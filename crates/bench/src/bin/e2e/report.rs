//! Order statistics and the hand-rolled JSON writer/reader for the result
//! line (the workspace is offline: no serde).

use std::fmt::Write as _;

/// `(q1, median, q3)` by the exclusive method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` returns, so the spreads `--aa`
/// prints are the ones the benchmark driver computes. A single sample is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark contract bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[u64], p: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut data = values.to_vec();
    data.sort_unstable();
    let rank = (p * data.len()).div_ceil(100).clamp(1, data.len());
    data[rank - 1]
}

/// One reported metric value. `better` ("lower" or "higher") goes to
/// `BENCHMARK.json`, not to the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Appends `s` as a JSON string.
fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite `f64` prints with every digit it has (shortest round-trip
/// form); a non-finite one is not a JSON number and prints as `null`, so
/// a broken measurement is refused instead of read as a value.
fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

/// The result line of the benchmark contract: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        push_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Reads one metric's value back out of a [`result_line`]. The format is
/// our own, so the reader only has to read what the writer writes.
pub fn read_metric(line: &str, name: &str) -> Option<f64> {
    let mut key = String::new();
    push_str(&mut key, name);
    key.push_str(": {\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Reads a top-level `"key": value` scalar of a [`result_line`] as text.
pub fn read_scalar<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(&rest[..rest.find(',')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // Two samples extrapolate past neither end's neighbour.
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(percentile(&v, 50), 100);
        assert_eq!(percentile(&v, 99), 198);
        assert_eq!(percentile(&v, 100), 200);
        assert_eq!(percentile(&[42], 99), 42);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn result_line_round_trips_and_escapes() {
        let metric = |name: &str, value, unit| Metric {
            name: name.into(),
            value,
            unit,
            better: "lower",
        };
        let metrics = [
            metric("run_wall_s", 1.2034567891, "s"),
            metric("connectivity.stage.sub-establish_s", 0.0, "s"),
            metric("sim_rounds", 3811.0, "count"),
        ];
        let line = result_line(true, 12, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"run_wall_s\": {\"value\": 1.2034567891, \"unit\": \"s\"}, \
             \"connectivity.stage.sub-establish_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"sim_rounds\": {\"value\": 3811, \"unit\": \"count\"}}}"
        );
        assert_eq!(read_metric(&line, "run_wall_s"), Some(1.2034567891));
        assert_eq!(read_metric(&line, "sim_rounds"), Some(3811.0));
        assert_eq!(read_metric(&line, "absent"), None);
        assert_eq!(read_scalar(&line, "correct"), Some("true"));
        assert_eq!(read_scalar(&line, "failed"), Some("0"));

        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
        let mut n = String::new();
        push_num(&mut n, f64::NAN);
        assert_eq!(n, "null");
    }
}
