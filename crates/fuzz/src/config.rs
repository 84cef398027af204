//! Fuzzing configuration and strategy selection.

use serde::{Deserialize, Serialize};
use symbfuzz_sim::SettleMode;

/// Which combinational-settle engine a campaign simulates with. Both
/// produce bit-identical values, toggles and campaign reports.
/// Campaigns run the compiled default; the fixpoint exists as the
/// four-state reference the settle-engine equivalence tests compare it
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SettlePolicy {
    /// Global fixpoint over every combinational process (original).
    Fixpoint,
    /// Word-level bytecode VM with the packed two-state fast path,
    /// escaping per cone on live X/Z (the default).
    #[default]
    Compiled,
}

impl SettlePolicy {
    /// The simulator mode this policy selects.
    pub fn to_mode(self) -> SettleMode {
        match self {
            SettlePolicy::Fixpoint => SettleMode::Fixpoint,
            SettlePolicy::Compiled => SettleMode::Compiled,
        }
    }
}

/// Which fuzzing algorithm drives the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// The paper's contribution: coverage-guided fuzzing with
    /// checkpoint rollback and SMT-solved constraints on stagnation.
    SymbFuzz,
    /// Plain UVM constrained-random testing (no feedback).
    UvmRandom,
    /// RFuzz-style: mux-toggle-coverage-guided bit-flip mutation
    /// (Laeufer et al., ICCAD 2018).
    RFuzz,
    /// DifuzzRTL-style: control-register-value coverage with word-level
    /// mutation (Hur et al., S&P 2021).
    DifuzzRtl,
    /// HWFP-style ("Fuzzing Hardware Like Software", Trippel et al.,
    /// USENIX Sec 2022): byte-granular mutation, two-state coverage
    /// view (X collapses to 0).
    Hwfp,
}

impl Strategy {
    /// Human-readable name used in reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SymbFuzz => "SymbFuzz",
            Strategy::UvmRandom => "UVM-random",
            Strategy::RFuzz => "RFuzz",
            Strategy::DifuzzRtl => "DifuzzRTL",
            Strategy::Hwfp => "HWFP",
        }
    }

    /// All strategies, SymbFuzz first (the order used in tables).
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::SymbFuzz,
            Strategy::RFuzz,
            Strategy::DifuzzRtl,
            Strategy::Hwfp,
            Strategy::UvmRandom,
        ]
    }
}

/// Campaign parameters (paper defaults in §5 "Parameter Setup": 300
/// cycles per interval, dumps every 3 intervals, stagnation threshold
/// of a few intervals).
///
/// `Deserialize` is hand-written so configs serialized before the
/// snapshot-tree release (no `snapshot_mem_budget` /
/// `use_ancestor_reentry` keys) still load, taking the defaults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzConfig {
    /// Clock cycles per interval `I` (one VCD dump / coverage scan).
    pub interval: u32,
    /// Stagnation threshold `Th`: intervals without new coverage before
    /// symbolic guidance kicks in.
    pub threshold: u32,
    /// Checkpoint fanout threshold (§4.5; the paper uses 3).
    pub checkpoint_fanout: usize,
    /// Total input-vector budget for the campaign.
    pub max_vectors: u64,
    /// RNG seed (campaigns are deterministic given a seed).
    pub seed: u64,
    /// Cycles to hold reset at campaign start and on full resets.
    pub reset_cycles: u32,
    /// Maximum cycles the symbolic engine may unroll when solving for
    /// a target state (§4.7 search depth limit).
    pub solve_depth: u32,
    /// Maximum distinct targets tried per guidance round.
    pub targets_per_round: usize,
    /// Byte budget for the copy-on-write snapshot store: unique page
    /// bytes beyond this trigger oldest-first eviction. Replaces the
    /// count-based `snapshot_cap` as the memory bound.
    pub snapshot_mem_budget: u64,
    /// Whether re-entry may fork the nearest snapshotted CFG ancestor
    /// and replay only the residual suffix. Off = the pre-snapshot-tree
    /// behaviour (exact-hit restore, else full reset + full replay) —
    /// the A/B control for the re-entry savings experiments.
    pub use_ancestor_reentry: bool,
    /// Ablation: disable checkpoint rollback (guidance restarts from a
    /// full reset instead, §4.5's alternative).
    pub use_checkpoints: bool,
    /// Ablation: disable the SMT-guided mutation entirely (stagnation
    /// is ignored; exploration stays purely random).
    pub use_solver: bool,
    /// Which combinational-settle engine to simulate with (defaults to
    /// the compiled bytecode VM; all policies are value-equivalent, and
    /// only the settle-engine equivalence tests set another).
    pub settle_policy: SettlePolicy,
    /// Conflict budget per symbolic solve (`None` = unlimited). When
    /// set, exhausted solves degrade to random mutation instead of
    /// stalling the campaign.
    pub solver_budget: Option<u64>,
    /// Wall-clock budget per symbolic solve in milliseconds (`None` =
    /// unlimited). The only non-deterministic knob: campaigns using it
    /// are no longer byte-identical run to run. Operator-facing only.
    pub solve_wall_ms: Option<u64>,
    /// Maximum budget-escalation level: after an exhausted solve the
    /// next attempt doubles the counter ceilings, up to `2^cap`×.
    pub escalation_cap: u32,
    /// Flight-recorder sampling interval in input vectors (`None` =
    /// recorder off). When set, the campaign captures one delta-
    /// compressed metrics sample every `N` vectors (deterministic under
    /// the manual clock) and enables the per-cone / per-goal profilers.
    pub sample_every: Option<u64>,
    /// Solver introspection: every symbolic solve additionally records
    /// CDCL analytics (learned-clause/LBD histograms, restart timeline,
    /// hot signals) and a blame set on `Unreachable`/`Exhausted`
    /// outcomes. Off by default;
    /// when off the solver's trace hooks cost one pointer test per
    /// conflict and nothing is allocated.
    pub solver_introspection: bool,
}

fn default_snapshot_mem_budget() -> u64 {
    64 * 1024 * 1024
}

impl Deserialize for FuzzConfig {
    fn from_value(v: &serde::Value) -> Result<FuzzConfig, serde::DeError> {
        let defaults = FuzzConfig::default();
        Ok(FuzzConfig {
            interval: Deserialize::from_value(v.field("interval")?)?,
            threshold: Deserialize::from_value(v.field("threshold")?)?,
            checkpoint_fanout: Deserialize::from_value(v.field("checkpoint_fanout")?)?,
            max_vectors: Deserialize::from_value(v.field("max_vectors")?)?,
            seed: Deserialize::from_value(v.field("seed")?)?,
            reset_cycles: Deserialize::from_value(v.field("reset_cycles")?)?,
            solve_depth: Deserialize::from_value(v.field("solve_depth")?)?,
            targets_per_round: Deserialize::from_value(v.field("targets_per_round")?)?,
            snapshot_mem_budget: match v.field("snapshot_mem_budget") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.snapshot_mem_budget,
            },
            use_ancestor_reentry: match v.field("use_ancestor_reentry") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.use_ancestor_reentry,
            },
            use_checkpoints: Deserialize::from_value(v.field("use_checkpoints")?)?,
            use_solver: Deserialize::from_value(v.field("use_solver")?)?,
            settle_policy: Deserialize::from_value(v.field("settle_policy")?)?,
            solver_budget: Deserialize::from_value(v.field("solver_budget")?)?,
            solve_wall_ms: Deserialize::from_value(v.field("solve_wall_ms")?)?,
            escalation_cap: Deserialize::from_value(v.field("escalation_cap")?)?,
            sample_every: Deserialize::from_value(v.field("sample_every")?)?,
            solver_introspection: match v.field("solver_introspection") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => defaults.solver_introspection,
            },
        })
    }
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            interval: 300,
            threshold: 3,
            checkpoint_fanout: 3,
            max_vectors: 100_000,
            seed: 0xC0FFEE,
            reset_cycles: 2,
            solve_depth: 8,
            targets_per_round: 8,
            snapshot_mem_budget: default_snapshot_mem_budget(),
            use_ancestor_reentry: true,
            use_checkpoints: true,
            use_solver: true,
            settle_policy: SettlePolicy::default(),
            solver_budget: None,
            solve_wall_ms: None,
            escalation_cap: 3,
            sample_every: None,
            solver_introspection: false,
        }
    }
}

impl FuzzConfig {
    /// Starts a validating builder seeded with the paper defaults.
    pub fn builder() -> FuzzConfigBuilder {
        FuzzConfigBuilder {
            config: FuzzConfig::default(),
        }
    }

    /// Checks the configuration for internal consistency — the same
    /// checks [`FuzzConfigBuilder::build`] runs, usable on configs
    /// assembled by hand (e.g. deserialized from disk).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval == 0 {
            return Err(ConfigError::ZeroInterval);
        }
        if self.max_vectors == 0 {
            return Err(ConfigError::ZeroMaxVectors);
        }
        if !self.use_solver && (self.solver_budget.is_some() || self.solve_wall_ms.is_some()) {
            return Err(ConfigError::SolverBudgetWithoutSolver);
        }
        if self.use_solver && self.solve_depth == 0 {
            return Err(ConfigError::ZeroSolveDepth);
        }
        if self.solver_budget == Some(0) || self.solve_wall_ms == Some(0) {
            return Err(ConfigError::ZeroSolverBudget);
        }
        if self.sample_every == Some(0) {
            return Err(ConfigError::ZeroSampleEvery);
        }
        if self.snapshot_mem_budget < 1024 {
            return Err(ConfigError::TinySnapshotBudget);
        }
        Ok(())
    }
}

/// An inconsistent [`FuzzConfig`], rejected by
/// [`FuzzConfig::validate`] / [`FuzzConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `interval` is zero — the campaign would never scan coverage.
    ZeroInterval,
    /// `max_vectors` is zero — the campaign would do nothing.
    ZeroMaxVectors,
    /// A solver budget was set while `use_solver` is off: the budget
    /// could never apply, so the intent is contradictory.
    SolverBudgetWithoutSolver,
    /// `use_solver` is on but `solve_depth` is zero — the engine
    /// refuses every such query (`ReachError::ZeroDepth`).
    ZeroSolveDepth,
    /// A solver budget of zero: every solve would exhaust immediately;
    /// use `use_solver: false` to disable guidance instead.
    ZeroSolverBudget,
    /// `sample_every` set to zero: the recorder would sample every
    /// vector boundary ambiguously; leave it `None` to disable.
    ZeroSampleEvery,
    /// `snapshot_mem_budget` below 1 KiB (including zero): too small
    /// to hold even one page, so every fork would immediately evict.
    TinySnapshotBudget,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroInterval => write!(f, "interval must be at least 1 cycle"),
            ConfigError::ZeroMaxVectors => write!(f, "max_vectors must be at least 1"),
            ConfigError::SolverBudgetWithoutSolver => write!(
                f,
                "solver budget set while use_solver is false; drop the budget or enable the solver"
            ),
            ConfigError::ZeroSolveDepth => {
                write!(f, "solve_depth must be at least 1 when use_solver is true")
            }
            ConfigError::ZeroSolverBudget => write!(
                f,
                "solver budget must be nonzero; set use_solver: false to disable guidance"
            ),
            ConfigError::ZeroSampleEvery => write!(
                f,
                "sample_every must be at least 1 vector; leave it unset to disable the recorder"
            ),
            ConfigError::TinySnapshotBudget => write!(
                f,
                "snapshot_mem_budget must be at least 1024 bytes (room for one small snapshot)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`FuzzConfig`]:
/// `FuzzConfig::builder().threshold(2).solver_budget(10_000).build()?`.
///
/// Every setter mirrors the field of the same name;
/// [`build`](Self::build) rejects inconsistent combinations with a
/// [`ConfigError`] instead of letting them reach the campaign loop.
#[derive(Debug, Clone)]
pub struct FuzzConfigBuilder {
    config: FuzzConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, v: $ty) -> Self {
            self.config.$name = v;
            self
        }
    };
}

impl FuzzConfigBuilder {
    /// The configuration as set so far (not yet validated).
    pub fn current(&self) -> &FuzzConfig {
        &self.config
    }

    setter!(
        /// Clock cycles per interval (coverage scan period).
        interval: u32
    );
    setter!(
        /// Stagnation threshold before symbolic guidance kicks in.
        threshold: u32
    );
    setter!(
        /// Checkpoint fanout threshold (§4.5).
        checkpoint_fanout: usize
    );
    setter!(
        /// Total input-vector budget.
        max_vectors: u64
    );
    setter!(
        /// RNG seed.
        seed: u64
    );
    setter!(
        /// Reset hold cycles.
        reset_cycles: u32
    );
    setter!(
        /// Maximum symbolic unroll depth.
        solve_depth: u32
    );
    setter!(
        /// Distinct targets tried per guidance round.
        targets_per_round: usize
    );
    setter!(
        /// Byte budget for the copy-on-write snapshot store.
        snapshot_mem_budget: u64
    );
    setter!(
        /// Enable nearest-ancestor snapshot re-entry (A/B control).
        use_ancestor_reentry: bool
    );
    setter!(
        /// Enable checkpoint rollback.
        use_checkpoints: bool
    );
    setter!(
        /// Enable SMT-guided mutation.
        use_solver: bool
    );
    setter!(
        /// Budget-escalation cap (levels of doubling).
        escalation_cap: u32
    );

    /// Caps each symbolic solve at `conflicts` CDCL conflicts.
    #[must_use]
    pub fn solver_budget(mut self, conflicts: u64) -> Self {
        self.config.solver_budget = Some(conflicts);
        self
    }

    /// Caps each symbolic solve at `ms` wall-clock milliseconds
    /// (non-deterministic; operator-facing runs only).
    #[must_use]
    pub fn solve_wall_ms(mut self, ms: u64) -> Self {
        self.config.solve_wall_ms = Some(ms);
        self
    }

    /// Turns on the flight recorder: one metrics sample every `n`
    /// input vectors, plus the per-cone and per-goal profilers.
    #[must_use]
    pub fn sample_every(mut self, n: u64) -> Self {
        self.config.sample_every = Some(n);
        self
    }

    setter!(
        /// Enable per-goal solver introspection (CDCL analytics, hot
        /// signals, blame sets).
        solver_introspection: bool
    );

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<FuzzConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = FuzzConfig::default();
        assert_eq!(c.interval, 300);
        assert_eq!(c.threshold, 3);
        assert_eq!(c.checkpoint_fanout, 3);
        assert_eq!(c.snapshot_mem_budget, 64 * 1024 * 1024);
        assert!(c.use_ancestor_reentry);
    }

    #[test]
    fn old_configs_without_budget_fields_still_deserialize() {
        // A config serialized before the snapshot-tree release has no
        // snapshot_mem_budget / use_ancestor_reentry keys; the manual
        // Deserialize must fill in the defaults.
        let v = Serialize::to_value(&FuzzConfig::default());
        let serde::Value::Object(fields) = v else {
            panic!("config serializes to an object")
        };
        let stripped: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| {
                k != "snapshot_mem_budget"
                    && k != "use_ancestor_reentry"
                    && k != "solver_introspection"
            })
            .collect();
        let back = FuzzConfig::from_value(&serde::Value::Object(stripped)).unwrap();
        assert_eq!(back.snapshot_mem_budget, 64 * 1024 * 1024);
        assert!(back.use_ancestor_reentry);
        assert!(!back.solver_introspection);
    }

    #[test]
    fn configs_with_the_retired_snapshot_cap_key_still_load() {
        // snapshot_cap was removed with the deprecated count-bound
        // shims, portfolio / affinity_ordering / solver_cache_budget
        // with portfolio racing, affinity ordering and the session byte
        // budget, testcase_len when the baseline testcase length
        // became a constant, and incremental_solving when the warm
        // frame chain became the one solve path; configs serialized
        // while they existed carry the keys and must still deserialize
        // (the fields are simply ignored).
        let v = Serialize::to_value(&FuzzConfig::default());
        let serde::Value::Object(mut fields) = v else {
            panic!("config serializes to an object")
        };
        for (key, value) in [
            ("snapshot_cap", serde::Value::Num(256.0)),
            ("portfolio", serde::Value::Num(2.0)),
            ("affinity_ordering", serde::Value::Bool(true)),
            ("solver_cache_budget", serde::Value::Num(16_777_216.0)),
            ("testcase_len", serde::Value::Num(32.0)),
            ("incremental_solving", serde::Value::Bool(true)),
        ] {
            fields.push((key.to_string(), value));
        }
        let back = FuzzConfig::from_value(&serde::Value::Object(fields.clone())).unwrap();
        assert_eq!(back, FuzzConfig::default());
        // A retired value is not ignored: the levelized settle engine
        // is gone, so a config that selects it fails with a typed error.
        for (key, value) in &mut fields {
            if key == "settle_policy" {
                *value = serde::Value::Str("Levelized".to_string());
            }
        }
        let err = FuzzConfig::from_value(&serde::Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("Levelized"), "{err}");
    }

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::HashSet<&str> =
            Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn config_serializes() {
        let c = FuzzConfig::default();
        let j = serde_json::to_string(&c).unwrap();
        let back: FuzzConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn builder_produces_valid_configs() {
        let c = FuzzConfig::builder()
            .threshold(2)
            .solver_budget(10_000)
            .escalation_cap(2)
            .build()
            .unwrap();
        assert_eq!(c.threshold, 2);
        assert_eq!(c.solver_budget, Some(10_000));
        assert_eq!(c.escalation_cap, 2);
        // Defaults pass validation as-is.
        assert_eq!(
            FuzzConfig::builder().build().unwrap(),
            FuzzConfig::default()
        );
    }

    #[test]
    fn builder_rejects_inconsistent_settings() {
        let err = FuzzConfig::builder()
            .use_solver(false)
            .solver_budget(100)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SolverBudgetWithoutSolver);
        assert_eq!(
            FuzzConfig::builder()
                .use_solver(false)
                .solve_wall_ms(5)
                .build()
                .unwrap_err(),
            ConfigError::SolverBudgetWithoutSolver
        );
        assert_eq!(
            FuzzConfig::builder().interval(0).build().unwrap_err(),
            ConfigError::ZeroInterval
        );
        assert_eq!(
            FuzzConfig::builder().max_vectors(0).build().unwrap_err(),
            ConfigError::ZeroMaxVectors
        );
        assert_eq!(
            FuzzConfig::builder().solve_depth(0).build().unwrap_err(),
            ConfigError::ZeroSolveDepth
        );
        assert_eq!(
            FuzzConfig::builder().solver_budget(0).build().unwrap_err(),
            ConfigError::ZeroSolverBudget
        );
        assert_eq!(
            FuzzConfig::builder().sample_every(0).build().unwrap_err(),
            ConfigError::ZeroSampleEvery
        );
        assert_eq!(
            FuzzConfig::builder()
                .snapshot_mem_budget(0)
                .build()
                .unwrap_err(),
            ConfigError::TinySnapshotBudget
        );
        assert_eq!(
            FuzzConfig::builder()
                .snapshot_mem_budget(1023)
                .build()
                .unwrap_err(),
            ConfigError::TinySnapshotBudget
        );
        assert!(FuzzConfig::builder()
            .snapshot_mem_budget(1024)
            .build()
            .is_ok());
        // Every arm renders an informative message.
        for e in [
            ConfigError::ZeroInterval,
            ConfigError::ZeroMaxVectors,
            ConfigError::SolverBudgetWithoutSolver,
            ConfigError::ZeroSolveDepth,
            ConfigError::ZeroSolverBudget,
            ConfigError::ZeroSampleEvery,
            ConfigError::TinySnapshotBudget,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
