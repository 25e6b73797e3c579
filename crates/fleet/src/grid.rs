//! The declarative scenario grid: a sweep over (scenario × load × seed)
//! that expands into independent simulation shards.

pub use ntt_sim::scenarios::{Scenario, ScenarioConfig};

/// SplitMix64 finalizer — a bijection on `u64`, used to decorrelate
/// per-shard seeds. Because it is a bijection, distinct inputs always
/// produce distinct outputs, which is what makes [`SeedSchedule::Mixed`]
/// collision-free by construction. By-value convenience over the one
/// shared mixing routine ([`ntt_tensor::splitmix64`]), so fleet seed
/// schedules and trainer/dropout streams can never silently diverge.
pub fn splitmix64(x: u64) -> u64 {
    let mut state = x;
    ntt_tensor::splitmix64(&mut state)
}

/// How the per-shard seed is derived from `(base_seed, shard ordinal)`.
///
/// Both schedules are injective in the ordinal for a fixed base seed,
/// so every shard of a sweep gets a unique seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSchedule {
    /// `seed = splitmix64(base_seed + ordinal)` — decorrelated seeds;
    /// the default for grids, where neighboring cells should not share
    /// low-bit structure.
    Mixed,
    /// `seed = base_seed + ordinal` — the schedule of a serial loop over
    /// seeds, so fleet runs reproduce such a loop's traces bit-for-bit.
    Sequential,
}

impl SeedSchedule {
    /// The seed for shard `ordinal` under this schedule.
    pub fn shard_seed(&self, base_seed: u64, ordinal: u64) -> u64 {
        match self {
            SeedSchedule::Mixed => splitmix64(base_seed.wrapping_add(ordinal)),
            SeedSchedule::Sequential => base_seed.wrapping_add(ordinal),
        }
    }
}

/// One cell-instance of a sweep: a fully derived simulation config plus
/// its grid coordinates. `cfg` alone determines the trace; the rest is
/// bookkeeping for reports and sinks.
#[derive(Debug, Clone, Copy)]
pub struct Shard {
    /// Ordinal in grid expansion order (scenario-major, then load, then
    /// repeat). Sinks receive shards in exactly this order.
    pub index: usize,
    pub scenario: Scenario,
    /// Multiplier applied to the base foreground and cross rates.
    pub load_factor: f64,
    /// Repeat index within the (scenario, load) cell.
    pub run: usize,
    /// Fully derived config (rates scaled, per-shard seed set).
    pub cfg: ScenarioConfig,
}

/// A declarative sweep: (scenario × load_factor × runs_per_cell), every
/// combination simulated with a deterministically derived unique seed.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Template config; each shard copies it, scales the offered load,
    /// and substitutes its derived seed.
    pub base: ScenarioConfig,
    pub scenarios: Vec<Scenario>,
    /// Multipliers on `sender_rate_bps` and `cross_rate_bps` (1.0 =
    /// the base config's load).
    pub load_factors: Vec<f64>,
    /// Independent repeats (distinct seeds) per (scenario, load) cell.
    pub runs_per_cell: usize,
    pub base_seed: u64,
    pub seed_schedule: SeedSchedule,
}

impl SweepSpec {
    /// A one-scenario, base-load sweep; extend it with the builder
    /// methods. The base config's own seed becomes the sweep seed.
    pub fn new(base: ScenarioConfig) -> Self {
        SweepSpec {
            base_seed: base.seed,
            base,
            scenarios: vec![Scenario::Pretrain],
            load_factors: vec![1.0],
            runs_per_cell: 1,
            seed_schedule: SeedSchedule::Mixed,
        }
    }

    /// `n_runs` of one scenario on the sequential seed schedule
    /// (`cfg.seed, cfg.seed+1, ...`), so the expanded shards reproduce a
    /// serial loop's traces bit-for-bit.
    pub fn single(scenario: Scenario, cfg: ScenarioConfig, n_runs: usize) -> Self {
        SweepSpec {
            base_seed: cfg.seed,
            base: cfg,
            scenarios: vec![scenario],
            load_factors: vec![1.0],
            runs_per_cell: n_runs,
            seed_schedule: SeedSchedule::Sequential,
        }
    }

    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        assert!(!scenarios.is_empty(), "a sweep needs at least one scenario");
        self.scenarios = scenarios;
        self
    }

    pub fn load_factors(mut self, load_factors: Vec<f64>) -> Self {
        assert!(
            load_factors.iter().all(|l| *l > 0.0),
            "load factors must be positive"
        );
        assert!(!load_factors.is_empty(), "a sweep needs at least one load");
        self.load_factors = load_factors;
        self
    }

    pub fn runs_per_cell(mut self, runs: usize) -> Self {
        assert!(runs >= 1, "a sweep needs at least one run per cell");
        self.runs_per_cell = runs;
        self
    }

    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    pub fn seed_schedule(mut self, schedule: SeedSchedule) -> Self {
        self.seed_schedule = schedule;
        self
    }

    /// One-line human/provenance description of the grid, e.g.
    /// `"pretrain+case1 x loads [0.5, 1.0] x 2 runs (seed 7, Mixed)"`.
    pub fn describe(&self) -> String {
        let scenarios: Vec<String> = self.scenarios.iter().map(|s| s.label()).collect();
        format!(
            "{} x loads {:?} x {} runs (seed {}, {:?})",
            scenarios.join("+"),
            self.load_factors,
            self.runs_per_cell,
            self.base_seed,
            self.seed_schedule,
        )
    }

    /// Number of shards the grid expands to.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.load_factors.len() * self.runs_per_cell
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid into shards, scenario-major. Pure: the result
    /// depends only on the spec, never on threads or timing.
    ///
    /// The structural invariants are enforced here (not only in the
    /// builder methods, whose checks a struct literal could bypass):
    /// at least one scenario and one positive load factor. A
    /// `runs_per_cell` of 0 is allowed and expands to an empty sweep.
    pub fn expand(&self) -> Vec<Shard> {
        assert!(
            !self.scenarios.is_empty(),
            "a sweep needs at least one scenario"
        );
        assert!(
            !self.load_factors.is_empty(),
            "a sweep needs at least one load factor"
        );
        assert!(
            self.load_factors.iter().all(|l| *l > 0.0),
            "load factors must be positive"
        );
        let mut shards = Vec::with_capacity(self.len());
        for &scenario in &self.scenarios {
            for &load_factor in &self.load_factors {
                for run in 0..self.runs_per_cell {
                    let index = shards.len();
                    let mut cfg = self.base;
                    cfg.sender_rate_bps = self.base.sender_rate_bps * load_factor;
                    cfg.cross_rate_bps = self.base.cross_rate_bps * load_factor;
                    cfg.seed = self.seed_schedule.shard_seed(self.base_seed, index as u64);
                    shards.push(Shard {
                        index,
                        scenario,
                        load_factor,
                        run,
                        cfg,
                    });
                }
            }
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_scenario_major_and_complete() {
        let spec = SweepSpec::new(ScenarioConfig::tiny(3))
            .scenarios(vec![Scenario::Pretrain, Scenario::Case1])
            .load_factors(vec![0.5, 1.0])
            .runs_per_cell(2);
        let shards = spec.expand();
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.len(), spec.len());
        // Scenario-major: first four shards are Pretrain.
        assert!(shards[..4].iter().all(|s| s.scenario == Scenario::Pretrain));
        assert!(shards[4..].iter().all(|s| s.scenario == Scenario::Case1));
        // Load applied to both rates.
        let base = ScenarioConfig::tiny(3);
        assert_eq!(shards[0].cfg.sender_rate_bps, base.sender_rate_bps * 0.5);
        assert_eq!(shards[0].cfg.cross_rate_bps, base.cross_rate_bps * 0.5);
        assert_eq!(shards[2].cfg.sender_rate_bps, base.sender_rate_bps);
        // Indices are the ordinals.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = SweepSpec::new(ScenarioConfig::tiny(7))
            .scenarios(vec![Scenario::Case2, Scenario::ParkingLot { hops: 5 }])
            .runs_per_cell(3);
        let a: Vec<u64> = spec.expand().iter().map(|s| s.cfg.seed).collect();
        let b: Vec<u64> = spec.expand().iter().map(|s| s.cfg.seed).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_schedule_matches_run_many_seeds() {
        let cfg = ScenarioConfig::tiny(40);
        let spec = SweepSpec::single(Scenario::Pretrain, cfg, 4);
        let seeds: Vec<u64> = spec.expand().iter().map(|s| s.cfg.seed).collect();
        assert_eq!(seeds, vec![40, 41, 42, 43]);
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn expand_rejects_field_level_invariant_bypass() {
        // Builder methods assert, but the fields are pub; expand() must
        // still catch a struct mutated into an invalid state.
        let mut spec = SweepSpec::new(ScenarioConfig::tiny(0));
        spec.scenarios.clear();
        spec.expand();
    }

    #[test]
    #[should_panic(expected = "load factors must be positive")]
    fn expand_rejects_nonpositive_loads() {
        let mut spec = SweepSpec::new(ScenarioConfig::tiny(0));
        spec.load_factors = vec![1.0, 0.0];
        spec.expand();
    }

    #[test]
    fn zero_runs_expand_to_an_empty_sweep() {
        // Zero runs yield no traces, as a serial loop over no seeds would.
        let spec = SweepSpec::single(Scenario::Pretrain, ScenarioConfig::tiny(0), 0);
        assert!(spec.expand().is_empty());
        assert!(spec.is_empty());
    }

    #[test]
    fn mixed_schedule_decorrelates_neighbors() {
        let s = SeedSchedule::Mixed;
        let a = s.shard_seed(0, 0);
        let b = s.shard_seed(0, 1);
        // Neighboring ordinals should differ in many bits, not just one.
        assert!((a ^ b).count_ones() > 10, "{a:x} vs {b:x}");
    }
}
