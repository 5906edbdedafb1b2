//! The scanner: applies the rules to one lexed file.
//!
//! Everything here is lexical, on comment/string-blanked code lines (see
//! [`crate::lexer`]). Two derived structures make the rules precise
//! enough to run clean on a real workspace:
//!
//! * **declared unordered names** — identifiers bound with a
//!   `HashMap`/`HashSet` type anywhere on the line (let bindings, fn
//!   params, struct fields, turbofish collects). R1 only fires when one
//!   of *those names* is iterated, so `map.get(..)` lookups and ordered
//!   containers never trip it.
//! * **fn spans** — brace-matched `fn` bodies. A span whose text contains
//!   a parallel-sweep marker (`par_iter`, `par_chunks`, `.install(`,
//!   `spawn(` …) is a *sweep fn*; R3/R4/R5 fire only inside sweep fns.

use crate::lexer::Lexed;
use crate::rules::Rule;

/// How a file relates to the determinism discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Engine/protocol/driver code: everything it computes can reach a
    /// transcript. All rules apply.
    TranscriptAffecting,
    /// Observer code (bench harness, the linter itself, examples): only
    /// the ambient-entropy sources (R2 minus the `Instant::now` arm)
    /// apply — wall-clock timers are its job.
    Observer,
    /// Not scanned (tests, fixtures, third-party shims).
    Exempt,
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    /// Path as given to the scanner (workspace-relative in the CLI).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A half-open line span of one `fn` body, plus whether it contains a
/// parallel-sweep marker.
struct FnSpan {
    start: usize,
    end: usize,
    sweep: bool,
}

const SWEEP_MARKERS: [&str; 7] = [
    "par_iter",
    "par_chunks",
    "into_par_iter",
    "par_bridge",
    ".install(",
    "spawn(",
    "scope(",
];

/// The file that owns the journal-replay pattern (the round loop):
/// worker-side sends/emits there are collected into per-shard journals
/// and replayed in canonical shard order, so R4 does not apply to it.
const JOURNAL_FILES: [&str; 1] = ["shard.rs"];

/// Scans one file.
pub fn scan_file(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    if class == FileClass::Exempt {
        return Vec::new();
    }
    let lexed = Lexed::lex(src);
    let names = declared_unordered_names(&lexed);
    let spans = fn_spans(&lexed);
    let basename = path.rsplit('/').next().unwrap_or(path);
    let journal_file = JOURNAL_FILES.contains(&basename);
    let transcript = class == FileClass::TranscriptAffecting;

    let mut findings = Vec::new();
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let in_sweep = spans
            .iter()
            .filter(|s| s.start <= i && i < s.end)
            .min_by_key(|s| s.end - s.start)
            .is_some_and(|s| s.sweep);

        let mut push = |rule: Rule, message: String| {
            findings.push(Finding {
                rule,
                file: path.to_string(),
                line: i + 1,
                message,
                snippet: line.raw.trim().to_string(),
            });
        };

        // R1 — unordered iteration (transcript-affecting files only).
        if transcript {
            for name in iterated_names(code, &names) {
                push(
                    Rule::UnorderedIteration,
                    format!(
                        "`{name}` is a HashMap/HashSet and its iteration order is \
                         per-process random; iterate a BTreeMap/BTreeSet or sort first"
                    ),
                );
            }
        }

        // R2 — ambient entropy. The entropy sources apply to every
        // scanned class; the Instant::now arm only to transcript code
        // (observers exist to measure wall time).
        for pat in ["thread_rng", "from_entropy"] {
            if has_word(code, pat) {
                push(
                    Rule::AmbientEntropy,
                    format!("`{pat}` draws OS entropy; seed from Config::seed/scenario_seed"),
                );
            }
        }
        if code.contains("SystemTime::now") {
            push(
                Rule::AmbientEntropy,
                "`SystemTime::now` is ambient wall-clock state".to_string(),
            );
        }
        if transcript && code.contains("Instant::now") {
            push(
                Rule::AmbientEntropy,
                "`Instant::now` on a transcript-affecting path; metrics timers \
                 must be annotated as such"
                    .to_string(),
            );
        }

        if transcript {
            // R3 — relaxed atomics in sweeps + shared lock state.
            if in_sweep && code.contains("Ordering::Relaxed") {
                push(
                    Rule::RelaxedAtomic,
                    "relaxed atomic inside a parallel sweep; justify why the \
                     access order cannot reach the transcript"
                        .to_string(),
                );
            }
            if !code.trim_start().starts_with("use ")
                && ["Mutex<", "Mutex::new", "RwLock<", "RwLock::new"]
                    .iter()
                    .any(|p| code.contains(p))
            {
                push(
                    Rule::RelaxedAtomic,
                    "lock-guarded shared state on a transcript-affecting path; \
                     justify why the protected mutation is order-independent"
                        .to_string(),
                );
            }

            // R4 — send/emit inside sweeps, outside the journal files.
            if in_sweep
                && !journal_file
                && ["ctx.send(", ".emit(", "emitter."]
                    .iter()
                    .any(|p| code.contains(p))
            {
                push(
                    Rule::SendOutsideJournal,
                    "send/event emission inside a parallel sweep outside the \
                     journal-replay pattern; collect into per-worker journals \
                     and replay in canonical order"
                        .to_string(),
                );
            }

            // R5 — float accumulation in parallel folds.
            if in_sweep
                && (has_word(code, "f32") || has_word(code, "f64"))
                && ["+=", ".sum()", ".sum::<", "fold("]
                    .iter()
                    .any(|p| code.contains(p))
            {
                push(
                    Rule::FloatAccumulation,
                    "floating-point accumulation inside a parallel sweep; float \
                     addition is non-associative across chunk boundaries"
                        .to_string(),
                );
            }
        }
    }

    // Apply suppressions: an allow for the rule's slug on the finding's
    // line (or the comment block directly above) suppresses it — but only
    // with a non-empty written justification.
    findings.retain(|f| {
        let allows = lexed.allows_for(f.line - 1);
        match allows.iter().find(|a| a.rule == f.rule.slug()) {
            Some(a) if !a.reason.is_empty() => false,
            Some(_) => true, // annotation present but no justification
            None => true,
        }
    });
    // Upgrade the message for reasonless suppressions.
    for f in &mut findings {
        let allows = lexed.allows_for(f.line - 1);
        if allows
            .iter()
            .any(|a| a.rule == f.rule.slug() && a.reason.is_empty())
        {
            f.message = format!(
                "{} (suppression present but missing its justification — write \
                 `allow({}) — <why this is order-independent>`)",
                f.message,
                f.rule.slug()
            );
        }
    }
    findings
}

/// Collects identifiers declared with an unordered-container type
/// anywhere in the file's non-test code: `name: [&][mut]
/// [std::collections::]HashMap<…` (covers let bindings, fn params and
/// struct fields), plus `let name = …HashMap::new/with_capacity…` and
/// `let name … = … collect::<HashMap…>`. Test code is exempt from every
/// rule, so what it declares names nothing the rules see.
fn declared_unordered_names(lexed: &Lexed) -> Vec<String> {
    let mut names = Vec::new();
    for line in lexed.lines.iter().filter(|line| !line.in_test) {
        let code = &line.code;
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let toks = tokens(code);
        for (ti, tok) in toks.iter().enumerate() {
            if tok != "HashMap" && tok != "HashSet" {
                continue;
            }
            // Walk left over path/reference noise to the `:` separator.
            let mut j = ti;
            while j > 0 {
                let prev = &toks[j - 1];
                if prev == "::"
                    || prev == "std"
                    || prev == "collections"
                    || prev == "&"
                    || prev == "mut"
                {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 2 && toks[j - 1] == ":" && is_ident(&toks[j - 2]) {
                names.push(toks[j - 2].clone());
                continue;
            }
            // `let name = HashMap::new()` / `= x.collect::<HashMap…>()`.
            if let (Some(let_pos), Some(eq_pos)) = (
                toks.iter().position(|t| t == "let"),
                toks.iter().position(|t| t == "="),
            ) {
                if eq_pos < ti && let_pos < eq_pos {
                    // The bound name is the last ident before `=` that is
                    // not `mut` (patterns richer than that don't bind a
                    // single map anyway).
                    if let Some(name) = toks[let_pos + 1..eq_pos]
                        .iter()
                        .rev()
                        .find(|t| is_ident(t) && *t != "mut")
                    {
                        names.push(name.clone());
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Names from `names` that this line iterates.
fn iterated_names(code: &str, names: &[String]) -> Vec<String> {
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = tokens(code);
    const ITER_METHODS: [&str; 8] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
        "retain",
    ];
    for (i, tok) in toks.iter().enumerate() {
        if !names.contains(tok) {
            continue;
        }
        // `name.iter()` and friends.
        if toks.get(i + 1).map(String::as_str) == Some(".")
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.as_str()))
        {
            out.push(tok.clone());
            continue;
        }
        // `for … in [&[mut]] name {` / end of line.
        let mut j = i;
        while j > 0 && (toks[j - 1] == "&" || toks[j - 1] == "mut") {
            j -= 1;
        }
        if j > 0 && toks[j - 1] == "in" {
            let next = toks.get(i + 1).map(String::as_str);
            if next.is_none() || next == Some("{") {
                out.push(tok.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Brace-matched `fn` body spans (end is exclusive, in lines), with the
/// sweep-marker flag. Bodies are found from each `fn` keyword's first
/// `{` at or after it; nested fns produce nested spans and the scanner
/// takes the innermost.
fn fn_spans(lexed: &Lexed) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let n = lexed.lines.len();
    for start in 0..n {
        let toks = tokens(&lexed.lines[start].code);
        if !toks.iter().any(|t| t == "fn") {
            continue;
        }
        // Find the first `{` from the fn keyword onward, then match it.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut end = n;
        'outer: for (i, line) in lexed.lines.iter().enumerate().skip(start) {
            for ch in line.code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = i + 1;
                            break 'outer;
                        }
                    }
                    // A `;` before any `{`: trait method signature or
                    // extern decl — no body, no span.
                    ';' if !opened => {
                        end = start;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        if end > start {
            let sweep = lexed.lines[start..end]
                .iter()
                .any(|l| SWEEP_MARKERS.iter().any(|m| l.code.contains(m)));
            spans.push(FnSpan { start, end, sweep });
        }
    }
    spans
}

/// Splits blanked code into ident and punctuation tokens.
fn tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = code.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
            continue;
        }
        if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
        match c {
            ' ' | '\t' => {}
            ':' if chars.peek() == Some(&':') => {
                chars.next();
                out.push("::".to_string());
            }
            _ => out.push(c.to_string()),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn is_ident(tok: &str) -> bool {
    tok.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let right_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_file("x.rs", src, FileClass::TranscriptAffecting)
    }

    #[test]
    fn r1_fires_on_declared_map_iteration() {
        let src = "fn f(lists: &HashMap<u64, Vec<u64>>) {\n    for (k, v) in lists {\n        drop((k, v));\n    }\n}";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnorderedIteration);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn r1_ignores_lookups_and_btree() {
        let src = "fn f(m: &HashMap<u64, u64>, b: &BTreeMap<u64, u64>) {\n    let _ = m.get(&1);\n    for x in b.keys() { drop(x); }\n}";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn r1_field_iteration() {
        let src = "struct S { known: HashSet<u64> }\nimpl S {\n    fn f(&self) { for k in self.known.iter() { drop(k); } }\n}";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn r2_instant_only_for_transcript_class() {
        let src = "fn f() { let t = Instant::now(); drop(t); }";
        assert_eq!(scan(src).len(), 1);
        assert!(scan_file("x.rs", src, FileClass::Observer).is_empty());
        let sys = "fn f() { let t = SystemTime::now(); drop(t); }";
        assert_eq!(scan_file("x.rs", sys, FileClass::Observer).len(), 1);
    }

    #[test]
    fn r3_relaxed_only_in_sweep_fns() {
        let seq = "fn f(x: &AtomicUsize) { x.load(Ordering::Relaxed); }";
        assert!(scan(seq).is_empty());
        let par = "fn f(x: &AtomicUsize, v: &[u8]) {\n    v.par_iter().for_each(|_| {\n        x.fetch_add(1, Ordering::Relaxed);\n    });\n}";
        let f = scan(par);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RelaxedAtomic);
    }

    #[test]
    fn r4_send_in_sweep_fires_except_journal_files() {
        let src = "fn f(v: &[u8]) {\n    v.par_iter().for_each(|_| {\n        ctx.send(1, msg);\n    });\n}";
        assert_eq!(scan(src).len(), 1);
        assert!(scan_file("shard.rs", src, FileClass::TranscriptAffecting).is_empty());
    }

    #[test]
    fn r5_float_fold_in_sweep() {
        let src = "fn f(v: &[f64]) {\n    v.par_iter().for_each(|x| {\n        let mut acc: f64 = 0.0; acc += x;\n    });\n}";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatAccumulation);
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_does_not() {
        let with = format!(
            "fn f() {{\n    {} — timer feeds stats only\n    let t = Instant::now();\n    drop(t);\n}}",
            concat!("// detlint: ", "allow(ambient-entropy)")
        );
        assert!(scan(&with).is_empty());
        let without = format!(
            "fn f() {{\n    {}\n    let t = Instant::now();\n    drop(t);\n}}",
            concat!("// detlint: ", "allow(ambient-entropy)")
        );
        let f = scan(&without);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("missing its justification"));
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(m: &HashMap<u64, u64>) { for x in m.keys() { drop(x); } }\n}";
        assert!(scan(src).is_empty());
    }
}
