//! The determinism rules, their slugs and documentation.
//!
//! Every guarantee this workspace ships — bit-identical transcripts
//! across engines, worker counts, shards and scenario schedules — is a
//! consequence of a small set of mechanical disciplines. Each rule below
//! names one of them; the scanner (`crate::scan`) enforces them
//! lexically, and `// detlint: allow(<slug>) — <reason>` suppresses a
//! finding *with a written proof of why the site is order-independent*.

/// A rule identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: iteration over `HashMap`/`HashSet` on transcript-affecting
    /// paths. Hash iteration order is seeded per process; anything that
    /// flows from it (graph assembly order, first-violation blame,
    /// message order) silently varies run to run.
    UnorderedIteration,
    /// R2: ambient entropy. All randomness must derive from
    /// `Config::seed`/`scenario_seed`; wall-clock reads
    /// (`Instant::now`/`SystemTime::now`) are only legitimate as
    /// metrics timers and must say so.
    AmbientEntropy,
    /// R3: relaxed atomics inside parallel sweeps and lock-guarded
    /// shared state (`Mutex`/`RwLock`) on transcript-affecting paths —
    /// both legal only when the protected mutation is provably
    /// order-independent, and the justification must be written down.
    RelaxedAtomic,
    /// R4: event emission / `ctx.send` inside a parallel sweep outside
    /// the journal-replay pattern (`shard.rs`, the round loop, owns that
    /// pattern; everywhere else, emission from worker closures races the
    /// stream order).
    SendOutsideJournal,
    /// R5: floating-point accumulation inside parallel folds — float
    /// addition is not associative, so chunk boundaries change results.
    FloatAccumulation,
}

/// All rules, in report order.
pub const ALL: [Rule; 5] = [
    Rule::UnorderedIteration,
    Rule::AmbientEntropy,
    Rule::RelaxedAtomic,
    Rule::SendOutsideJournal,
    Rule::FloatAccumulation,
];

impl Rule {
    /// Short code (`R1`..`R5`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "R1",
            Rule::AmbientEntropy => "R2",
            Rule::RelaxedAtomic => "R3",
            Rule::SendOutsideJournal => "R4",
            Rule::FloatAccumulation => "R5",
        }
    }

    /// The slug used in `allow(...)` annotations and JSON output.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::RelaxedAtomic => "relaxed-atomic",
            Rule::SendOutsideJournal => "send-outside-journal",
            Rule::FloatAccumulation => "float-accumulation",
        }
    }

    /// One-line description for `detlint rules` and reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => {
                "iteration over HashMap/HashSet on a transcript-affecting path \
                 (hash order is per-process random; use BTreeMap/BTreeSet or sort)"
            }
            Rule::AmbientEntropy => {
                "ambient entropy (thread_rng/from_entropy/SystemTime::now, or \
                 Instant::now outside an annotated metrics timer); derive all \
                 randomness from Config::seed/scenario_seed"
            }
            Rule::RelaxedAtomic => {
                "Ordering::Relaxed inside a parallel sweep, or Mutex/RwLock \
                 shared state on a transcript-affecting path, without a written \
                 order-independence justification"
            }
            Rule::SendOutsideJournal => {
                "ctx.send/event emission inside a parallel sweep outside the \
                 journal-replay pattern (shard.rs, the round loop)"
            }
            Rule::FloatAccumulation => {
                "floating-point accumulation inside a parallel fold (float \
                 addition is non-associative; accumulate integers or fold \
                 sequentially in canonical order)"
            }
        }
    }

    /// Looks a rule up by its slug.
    pub fn from_slug(slug: &str) -> Option<Rule> {
        ALL.into_iter().find(|r| r.slug() == slug)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for r in ALL {
            assert_eq!(Rule::from_slug(r.slug()), Some(r));
        }
        assert_eq!(Rule::from_slug("nope"), None);
    }
}
