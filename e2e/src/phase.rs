//! What a workload's timed phase yields, and how stretches become the
//! numbers a run reports.

use crate::stats::{median_of, percentile, pick, Better, Picked};
use std::path::PathBuf;
use std::time::Duration;

/// The four workloads `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WirePaper,
    WireTiny,
    BatchPaper,
    TrainPaper,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WirePaper,
        Workload::WireTiny,
        Workload::BatchPaper,
        Workload::TrainPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WirePaper => "wire_paper",
            Workload::WireTiny => "wire_tiny",
            Workload::BatchPaper => "batch_paper",
            Workload::TrainPaper => "train_paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run, as the command line asked for it.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sub-second stretches, a short simulation and a few train steps:
    /// every code path of a run in a few seconds, for the package's tests.
    pub smoke: bool,
    /// Corrupt one expected value, to show the correctness gate bites.
    pub flip_expected_bit: bool,
    /// `train_paper` only, and only from itself: do one set-up and one
    /// pass, print the set-up's seconds and the process's peak memory.
    pub fresh_process_sample: bool,
    /// Where checkpoints live while a run needs them and where the span
    /// file goes: `bench-e2e/` beside the executable.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Length of one stretch of a serving workload. Three seconds: the
    /// quietest such stretch of a run repeats within a few percent on
    /// this host, and half-second stretches did not (README, "Why the
    /// best stretch").
    pub fn stretch(&self) -> Duration {
        let full: f64 = if self.smoke { 0.25 } else { 3.0 };
        Duration::from_secs_f64(full.min(self.seconds))
    }

    /// Stretches in the timed phase of a serving workload.
    pub fn stretches(&self) -> usize {
        ((self.seconds / self.stretch().as_secs_f64()).round() as usize).max(1)
    }

    /// Latency samples a serving stretch collects before it may end, so
    /// that p95 has at least twenty beyond it (twelve in a smoke run,
    /// whose four stretches still pool a thousand samples for p99).
    pub fn min_samples(&self) -> usize {
        if self.smoke {
            250
        } else {
            400
        }
    }
}

/// Operations in the traced and the untraced half-seconds of a traced
/// run, with the wall time each kind took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Halves {
    pub traced_ops: u64,
    pub traced_s: f64,
    pub plain_ops: u64,
    pub plain_s: f64,
}

impl Halves {
    pub fn add(&mut self, traced: bool, ops: u64, secs: f64) {
        if traced {
            self.traced_ops += ops;
            self.traced_s += secs;
        } else {
            self.plain_ops += ops;
            self.plain_s += secs;
        }
    }

    fn merge(&mut self, o: &Halves) {
        self.traced_ops += o.traced_ops;
        self.traced_s += o.traced_s;
        self.plain_ops += o.plain_ops;
        self.plain_s += o.plain_s;
    }

    /// Share of throughput lost while spans were being recorded; zero
    /// when either kind of half-second never ran.
    pub fn overhead_share(&self) -> f64 {
        if self.traced_ops == 0 || self.plain_ops == 0 {
            return 0.0;
        }
        let traced = self.traced_ops as f64 / self.traced_s;
        let plain = self.plain_ops as f64 / self.plain_s;
        1.0 - traced / plain
    }
}

/// One stretch of the timed phase, on its own fresh set-up.
#[derive(Debug, Clone, Default)]
pub struct Stretch {
    /// Operations that completed and were verified.
    pub ops: u64,
    /// Wall time `ops` is divided by.
    pub secs: f64,
    /// One latency per attempt, in microseconds; a failed attempt is
    /// [`crate::stats::FAILED_ATTEMPT`].
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU time the stretch used.
    pub cpu_s: f64,
    pub halves: Halves,
}

/// Everything a workload's timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub stretches: Vec<Stretch>,
    /// Wall time of every set-up the run made.
    pub setups_s: Vec<f64>,
    /// `VmHWM` when the first stretch ended.
    pub peak_rss_mb: f64,
    /// Operations that failed a check outside any stretch (the reference
    /// values disagreeing with the training path).
    pub failed_checks: u64,
}

/// A run's numbers: the best stretch per metric is what is reported and
/// gated; median and worst say how disturbed the run was.
#[derive(Debug, Clone)]
pub struct Summary {
    pub ops_per_s: Picked,
    pub lat_p50_us: Picked,
    pub lat_p95_us: Picked,
    /// Refused unless the pooled samples leave ten beyond it; only the
    /// traced report asks for it.
    pub lat_p99_us_pooled: Result<f64, String>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub cpu_us_per_op: f64,
    pub trace_overhead_share: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn summarize(&self) -> Result<Summary, String> {
        let mut ops = Vec::new();
        let mut p50 = Vec::new();
        let mut p95 = Vec::new();
        let mut pooled = Vec::new();
        let mut halves = Halves::default();
        for (i, s) in self.stretches.iter().enumerate() {
            let p50_i = percentile(&s.lat_us, 0.50).map_err(|e| format!("stretch {i}: {e}"))?;
            let p95_i = percentile(&s.lat_us, 0.95).map_err(|e| format!("stretch {i}: {e}"))?;
            let rate = s.ops as f64 / s.secs;
            eprintln!(
                "e2e:   stretch {i}: {rate:.1} ops/s, p50 {p50_i} us, p95 {p95_i} us, {} failed of {}",
                s.failed, s.attempted
            );
            ops.push(rate);
            p50.push(p50_i.value);
            p95.push(p95_i.value);
            pooled.extend_from_slice(&s.lat_us);
            halves.merge(&s.halves);
        }
        let total_ops: u64 = self.stretches.iter().map(|s| s.ops).sum();
        let cpu_s: f64 = self.stretches.iter().map(|s| s.cpu_s).sum();
        let summary = Summary {
            ops_per_s: pick(&ops, Better::Higher).ok_or("no stretch ran")?,
            lat_p50_us: pick(&p50, Better::Lower).ok_or("no stretch ran")?,
            lat_p95_us: pick(&p95, Better::Lower).ok_or("no stretch ran")?,
            lat_p99_us_pooled: percentile(&pooled, 0.99).map(|p| p.value),
            setup_s: median_of(&self.setups_s).ok_or("no set-up was timed")?,
            peak_rss_mb: self.peak_rss_mb,
            cpu_us_per_op: cpu_s * 1e6 / total_ops.max(1) as f64,
            trace_overhead_share: halves.overhead_share(),
            attempted: self.stretches.iter().map(|s| s.attempted).sum(),
            failed: self.stretches.iter().map(|s| s.failed).sum::<u64>() + self.failed_checks,
        };
        for (name, p) in [
            ("ops_per_s", summary.ops_per_s),
            ("lat_p50_us", summary.lat_p50_us),
            ("lat_p95_us", summary.lat_p95_us),
        ] {
            eprintln!(
                "e2e: {name}: best {:.2} (reported), median {:.2}, worst {:.2} of {} stretches",
                p.best,
                p.median,
                p.worst,
                self.stretches.len()
            );
        }
        Ok(summary)
    }
}

impl Summary {
    /// The five end-to-end metrics, by declared name.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("ops_per_s", self.ops_per_s.best),
            ("lat_p50_us", self.lat_p50_us.best),
            ("lat_p95_us", self.lat_p95_us.best),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    /// The `bench.*` per-layer metrics: what the gated numbers leave out.
    pub fn bench(&self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![
            ("bench.ops_per_s_median_stretch", self.ops_per_s.median),
            ("bench.lat_p50_us_median_stretch", self.lat_p50_us.median),
            ("bench.lat_p95_us_median_stretch", self.lat_p95_us.median),
            ("bench.lat_p95_us_worst_stretch", self.lat_p95_us.worst),
            ("bench.lat_p99_us_pooled", self.lat_p99_us_pooled.clone()?),
            ("bench.cpu_us_per_op", self.cpu_us_per_op),
            ("bench.trace_overhead_share", self.trace_overhead_share),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stretch(ops: u64, secs: f64, base_us: f64) -> Stretch {
        Stretch {
            ops,
            secs,
            lat_us: (0..400).map(|i| base_us + i as f64).collect(),
            attempted: ops,
            failed: 0,
            cpu_s: 0.5,
            halves: Halves::default(),
        }
    }

    #[test]
    fn best_stretch_is_chosen_per_metric() {
        let out = Outcome {
            // The fast stretch has the worse tail on purpose.
            stretches: vec![stretch(1200, 3.0, 2000.0), stretch(900, 3.0, 1000.0)],
            setups_s: vec![0.5, 0.7, 0.6],
            peak_rss_mb: 42.0,
            failed_checks: 0,
        };
        let s = out.summarize().unwrap();
        assert_eq!(s.ops_per_s.best, 400.0);
        assert_eq!(s.ops_per_s.worst, 300.0);
        assert_eq!(s.lat_p50_us.best, 1199.0);
        assert_eq!(s.lat_p95_us.best, 1379.0);
        assert_eq!(s.lat_p95_us.worst, 2379.0);
        assert_eq!(s.setup_s, 0.6);
        assert_eq!(s.attempted, 2100);
        assert_eq!(s.cpu_us_per_op, 1e6 / 2100.0);
        assert!(
            s.bench().unwrap_err().contains("p99 refused"),
            "800 samples"
        );
        let names: Vec<_> = s.end_to_end().iter().map(|m| m.0).collect();
        assert_eq!(
            names,
            crate::metrics::END_TO_END
                .iter()
                .map(|d| d.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_stretch_with_too_few_samples_fails_the_run() {
        let mut thin = stretch(10, 3.0, 5.0);
        thin.lat_us.truncate(50);
        let out = Outcome {
            stretches: vec![thin],
            setups_s: vec![1.0],
            ..Outcome::default()
        };
        assert!(out.summarize().unwrap_err().contains("stretch 0"));
    }

    #[test]
    fn overhead_share_compares_traced_and_plain_half_seconds() {
        let mut h = Halves::default();
        assert_eq!(h.overhead_share(), 0.0);
        h.add(true, 90, 1.0);
        h.add(false, 100, 1.0);
        assert!((h.overhead_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plan_follows_seconds_and_smoke() {
        let mut o = Opts {
            workload: Workload::WirePaper,
            seed: 1,
            seconds: 24.0,
            trace: false,
            smoke: false,
            flip_expected_bit: false,
            fresh_process_sample: false,
            out_dir: PathBuf::new(),
        };
        assert_eq!((o.stretches(), o.stretch().as_secs_f64()), (8, 3.0));
        o.seconds = 2.0;
        assert_eq!((o.stretches(), o.stretch().as_secs_f64()), (1, 2.0));
        o.smoke = true;
        o.seconds = 0.5;
        assert_eq!(o.stretches(), 2);
        assert_eq!(Workload::parse("batch_paper"), Some(Workload::BatchPaper));
        assert_eq!(Workload::parse("live_stream"), None);
    }
}
