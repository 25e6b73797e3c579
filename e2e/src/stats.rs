//! How measurements turn into printed numbers: percentiles, the choice of
//! a stretch, span self times, metric names and the result line. No clock
//! and no I/O in here, so every rule is a unit test.

use std::collections::BTreeMap;
use std::fmt;

/// Fewest samples a percentile must leave beyond itself. With fewer, the
/// value is one neighbour's burst, not a property of the program.
pub const MIN_BEYOND: usize = 10;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A nearest-rank percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over, failed attempts included.
    pub n: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} (n={}, {} beyond)",
            self.value, self.n, self.beyond
        )
    }
}

/// Nearest-rank `q`-percentile (`0 < q < 1`) over *all* attempts. A
/// failed attempt is `f64::INFINITY` in `samples`: it sorts last, so
/// enough failures pull the percentile to infinity, which the result
/// line then refuses. Fewer than [`MIN_BEYOND`] samples beyond the rank
/// is an error naming the counts.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile wants 0 < q < 1, got {q}");
    if samples.iter().any(|v| v.is_nan()) {
        return Err("a latency sample is NaN".into());
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} refused: {n} samples leave {beyond} beyond rank {rank}, need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Latency of a failed, shed or expired attempt.
pub const FAILED_ATTEMPT: f64 = f64::INFINITY;

/// One metric across the stretches of a run. `best` is what the
/// benchmark reports (a neighbour only ever adds time, so the quietest
/// stretch is nearest the program's own speed); `median` and `worst` go
/// to standard error and to the `bench.*` metrics, so a program that is
/// slow in most stretches is still seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Picked {
    pub best: f64,
    pub median: f64,
    pub worst: f64,
}

/// Best, median and worst of one metric's per-stretch values.
pub fn pick(values: &[f64], better: Better) -> Option<Picked> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let (best, worst) = match better {
        Better::Lower => (lo, hi),
        Better::Higher => (hi, lo),
    };
    Some(Picked {
        best,
        median: median(&sorted),
        worst,
    })
}

/// Median of an ascending slice (mean of the middle two when even).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values; `None` when empty or any value is NaN.
pub fn median_of(values: &[f64]) -> Option<f64> {
    pick(values, Better::Lower).map(|p| p.median)
}

/// One timed interval. `parent` is the id of the span that caused it;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its own interval that its *direct* children cover. Children
/// may overlap each other (counted once) or run past the parent (the
/// overhang is not the parent's time, so it is clipped off).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for c in spans {
        if let Some(parent) = c.parent.filter(|p| *p != c.id) {
            children
                .entry(parent)
                .or_default()
                .push((c.start_ns, c.end_ns));
        }
    }
    spans
        .iter()
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&p.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(p.start_ns), e.min(p.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = p.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            p.duration_ns() - covered
        })
        .collect()
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

/// `[A-Za-z0-9_.-]+`, at most 64 characters, first one a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// A declared metric list is well formed: every name and unit valid, no
/// name twice, no more than `limit` of them.
pub fn check_declared(decls: &[Decl], limit: usize) -> Result<(), String> {
    if decls.is_empty() || decls.len() > limit {
        return Err(format!(
            "{} metrics declared, want 1..={limit}",
            decls.len()
        ));
    }
    for (i, d) in decls.iter().enumerate() {
        if !valid_name(d.name) {
            return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", d.name));
        }
        if !valid_unit(d.unit) {
            return Err(format!("unit {:?} of {} is not valid", d.unit, d.name));
        }
        if decls[..i].iter().any(|e| e.name == d.name) {
            return Err(format!("metric {} is declared twice", d.name));
        }
    }
    Ok(())
}

/// Put measured values in declared order. The printed list must equal
/// the declared one: a declared metric that was not measured, one
/// measured twice, or a measured one that was never declared is an error.
pub fn in_declared_order(
    decls: &[Decl],
    measured: &[(&'static str, f64)],
) -> Result<Vec<(Decl, f64)>, String> {
    for (i, (name, _)) in measured.iter().enumerate() {
        if !decls.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} was measured but is not declared"));
        }
        if measured[..i].iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} was measured twice"));
        }
    }
    decls
        .iter()
        .map(|d| {
            measured
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| (*d, v))
                .ok_or_else(|| format!("metric {} is declared but was not measured", d.name))
        })
        .collect()
}

/// The one JSON object a run ends with. Values are printed with all
/// their digits; a NaN or an infinity (a percentile that landed on a
/// failed attempt) is refused, because JSON has no way to say it and the
/// reader must not mistake it for a number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Decl, f64)],
) -> Result<String, String> {
    if attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {} is {v}, not a finite number", d.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

/// A result line read back: `(correct, attempted, failed, [(name, value,
/// unit)])`.
pub type ResultLine = (bool, u64, u64, Vec<(String, f64, String)>);

/// Read back what [`result_line`] wrote. Only for that exact layout; the
/// package's tests and nothing else read result lines in Rust.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
        s.find(key).map(|at| &s[at + key.len()..])
    }
    fn until<'a>(s: &'a str, stops: &[char]) -> &'a str {
        s.split(|c| stops.contains(&c)).next().unwrap_or(s).trim()
    }
    let correct = until(after(line, "\"correct\": ")?, &[',']).parse().ok()?;
    let attempted = until(after(line, "\"attempted\": ")?, &[','])
        .parse()
        .ok()?;
    let failed = until(after(line, "\"failed\": ")?, &[',']).parse().ok()?;
    let body = after(line, "\"metrics\": {")?.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ").filter(|e| !e.trim().is_empty()) {
        let name = until(after(entry, "\"")?, &['"']).to_string();
        let value = until(after(entry, "\"value\": ")?, &[',']).parse().ok()?;
        let unit = until(after(entry, "\"unit\": \"")?, &['"']).to_string();
        metrics.push((name, value, unit));
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank_over_all_attempts() {
        let p50 = percentile(&ramp(400), 0.50).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (200.0, 400, 200));
        let p95 = percentile(&ramp(400), 0.95).unwrap();
        assert_eq!((p95.value, p95.beyond), (380.0, 20));
        // 256 predictions of a training pass: rank 244, 12 beyond.
        let p95 = percentile(&ramp(256), 0.95).unwrap();
        assert_eq!((p95.value, p95.beyond), (244.0, 12));
        // Order of arrival does not matter.
        let mut shuffled = ramp(400);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.95).unwrap().value, 380.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail_and_says_how_thin() {
        // 180 samples leave 9 beyond p95.
        let err = percentile(&ramp(180), 0.95).unwrap_err();
        assert!(err.contains("180 samples"), "{err}");
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&ramp(200), 0.95).is_ok());
        assert!(percentile(&ramp(19), 0.50).is_err());
        assert!(percentile(&[], 0.50).is_err());
        assert!(percentile(&[1.0, f64::NAN], 0.5).is_err());
        let shown = percentile(&ramp(400), 0.95).unwrap().to_string();
        assert_eq!(shown, "380.0 (n=400, 20 beyond)");
    }

    #[test]
    fn failed_attempts_are_infinitely_slow() {
        // 5 % of 400 failed: p50 is untouched, p95 still finite at rank
        // 380, one more failure and it is infinite.
        let mut s = ramp(400);
        for v in s.iter_mut().take(20) {
            *v = FAILED_ATTEMPT;
        }
        assert!(percentile(&s, 0.95).unwrap().value.is_finite());
        assert_eq!(percentile(&s, 0.50).unwrap().value, 220.0);
        s[20] = FAILED_ATTEMPT;
        assert_eq!(percentile(&s, 0.95).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn each_metric_picks_its_own_best_stretch() {
        let ops = [410.0, 395.0, 402.0, 300.0];
        let p = pick(&ops, Better::Higher).unwrap();
        assert_eq!((p.best, p.median, p.worst), (410.0, 398.5, 300.0));
        let lat = [2.6, 2.4, 9.0];
        let p = pick(&lat, Better::Lower).unwrap();
        assert_eq!((p.best, p.median, p.worst), (2.4, 2.6, 9.0));
        assert!(pick(&[], Better::Lower).is_none());
        assert!(pick(&[1.0, f64::NAN], Better::Lower).is_none());
        // A stretch whose percentile hit a failed attempt can only be
        // the worst, never the best.
        let p = pick(&[f64::INFINITY, 3.0], Better::Lower).unwrap();
        assert_eq!((p.best, p.worst), (3.0, f64::INFINITY));
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_of_nested_spans_counts_direct_children_only() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_adjacent_overlapping_and_childless_spans() {
        // Adjacent children tile the parent exactly.
        let adjacent = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 40),
            span(3, Some(1), 40, 100),
        ];
        assert_eq!(self_times(&adjacent), vec![0, 40, 60]);
        // Overlapping children (16 tickets of one batch): the shared
        // part is covered once.
        let overlapping = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 35, 45),
        ];
        assert_eq!(self_times(&overlapping)[0], 40);
        // No children: all of it is self time.
        assert_eq!(self_times(&[span(1, None, 5, 25)]), vec![20]);
        // A zero-length span has zero self time.
        assert_eq!(self_times(&[span(1, None, 5, 5)]), vec![0]);
    }

    #[test]
    fn a_child_that_runs_past_its_parent_is_clipped() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 150, 260), // ends after the parent
            span(3, Some(1), 40, 110),  // starts before it
            span(4, Some(1), 300, 400), // misses it altogether
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 10);
        assert_eq!(st[1], 110, "the child keeps its own full duration");
    }

    const A: Decl = Decl {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
    };
    const B: Decl = Decl {
        name: "net.rtt_1conn_us",
        unit: "us",
        better: Better::Lower,
    };

    #[test]
    fn names_and_units_follow_the_contract() {
        for ok in ["a", "lat_p50_us", "net.rtt-1", "9lives", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_a", ".a", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["us", "1/s", "MiB", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_lists_are_bounded_and_unique() {
        assert!(check_declared(&[A, B], MAX_END_TO_END).is_ok());
        assert!(check_declared(&[], MAX_END_TO_END).is_err());
        assert!(check_declared(&[A, A], MAX_END_TO_END)
            .unwrap_err()
            .contains("twice"));
        assert!(check_declared(&[A; 17], MAX_END_TO_END).is_err());
        let odd = Decl { name: "a b", ..A };
        assert!(check_declared(&[odd], MAX_PER_LAYER).is_err());
        let unit = Decl { unit: "", ..A };
        assert!(check_declared(&[unit], MAX_PER_LAYER).is_err());
    }

    #[test]
    fn printed_list_must_equal_declared_list() {
        let got = in_declared_order(&[A, B], &[(B.name, 2.0), (A.name, 1.0)]).unwrap();
        assert_eq!(got[0].0.name, A.name);
        assert_eq!(got[1].1, 2.0);
        assert!(in_declared_order(&[A, B], &[(A.name, 1.0)])
            .unwrap_err()
            .contains("not measured"));
        assert!(in_declared_order(&[A], &[(A.name, 1.0), (B.name, 2.0)])
            .unwrap_err()
            .contains("not declared"));
        assert!(in_declared_order(&[A], &[(A.name, 1.0), (A.name, 2.0)])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn result_line_keeps_every_digit_and_round_trips() {
        let line = result_line(true, 1000, 0, &[(A, 1.203_456_789_012_3), (B, 76.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"lat_p50_us\": {\"value\": 1.2034567890123, \"unit\": \"us\"}, \
             \"net.rtt_1conn_us\": {\"value\": 76, \"unit\": \"us\"}}}"
        );
        let (correct, attempted, failed, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(
            metrics,
            vec![
                (
                    "lat_p50_us".to_string(),
                    1.203_456_789_012_3,
                    "us".to_string()
                ),
                ("net.rtt_1conn_us".to_string(), 76.0, "us".to_string()),
            ]
        );
        // Small and large magnitudes stay plain decimals (valid JSON).
        let line = result_line(false, 1, 1, &[(A, 1.5e-9), (B, 3.0e12)]).unwrap();
        assert!(line.contains("0.0000000015") && line.contains("3000000000000"));
        assert_eq!(parse_result_line(&line).unwrap().3[0].1, 1.5e-9);
    }

    #[test]
    fn result_line_refuses_what_json_cannot_say() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = result_line(true, 10, 0, &[(A, bad)]).unwrap_err();
            assert!(err.contains("lat_p50_us"), "{err}");
        }
        assert!(result_line(true, 0, 0, &[(A, 1.0)]).is_err());
    }
}
