//! Rule configuration: which files each rule covers, the float-
//! evidence vocabulary, and the pinned serde-compat baseline.
//!
//! The configuration is code, not an external file, for the same
//! reason the baselines in `BENCH_engine.json` are checked in: a
//! reviewer must see an explicit diff when an invariant's scope
//! changes.

use std::collections::BTreeMap;

/// Enforcement level for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Findings fail the run (exit code 1) unless suppressed inline.
    Deny,
    /// Findings are reported but do not fail the run.
    Allow,
}

/// Full linter configuration.
pub struct Config {
    /// Per-rule enforcement level; rules default to `Deny`.
    pub levels: BTreeMap<String, Level>,
    /// Modules where raw float accumulation is approved: the exact-
    /// summation kernel itself and the dot-product interest kernels
    /// whose fixed evaluation order is pinned by their own proptests.
    pub float_approved: Vec<&'static str>,
    /// Field names that are known `f64` state on core types; seeing
    /// `.name` marks the surrounding expression as float evidence.
    pub float_fields: Vec<&'static str>,
    /// Method names that are known to return `f64`.
    pub float_methods: Vec<&'static str>,
    /// Files whose non-test code must not panic (rule 2 scope).
    pub server_paths: Vec<&'static str>,
    /// Crate path prefix for the lock-discipline rule.
    pub lock_scope: &'static str,
    /// Crate path prefixes for the float-accumulation rule.
    pub float_scope: Vec<&'static str>,
    /// Crate path prefix for the serde-compat rule.
    pub serde_scope: &'static str,
    /// Pinned field/variant lists for wire-compatible types
    /// (rule 3 baseline). Keys are type names; values are the exact
    /// expected field or variant names in declaration order.
    pub serde_baseline: BTreeMap<&'static str, Vec<&'static str>>,
    /// Workspace-relative path of the bench baseline JSON.
    pub bench_baseline: &'static str,
    /// Workspace-relative path of the CI workflow file.
    pub ci_workflow: &'static str,
    /// Workspace-relative path of the bench scenario source.
    pub bench_source: &'static str,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            levels: BTreeMap::new(),
            float_approved: vec![
                "crates/igepa-core/src/exact.rs",
                "crates/igepa-core/src/interest.rs",
            ],
            float_fields: vec![
                "total",
                "interest_sum",
                "interaction_sum",
                "utility",
                "last_observed_drift",
            ],
            float_methods: vec!["weight", "utility", "interest", "interaction"],
            server_paths: vec![
                "crates/igepa-engine/src/transport.rs",
                "crates/igepa-engine/src/coordinator.rs",
                "crates/igepa-engine/src/faults.rs",
                "crates/igepa-engine/src/shard.rs",
                "crates/igepa-engine/src/durability/mod.rs",
                "crates/igepa-engine/src/durability/wal.rs",
                "crates/igepa-engine/src/durability/snapshot.rs",
                "crates/igepa-engine/src/durability/recovery.rs",
            ],
            lock_scope: "crates/igepa-engine/src/",
            float_scope: vec![
                "crates/igepa-core/src/",
                "crates/igepa-algos/src/",
                "crates/igepa-engine/src/",
            ],
            serde_scope: "crates/igepa-engine/src/",
            serde_baseline: default_serde_baseline(),
            bench_baseline: "BENCH_engine.json",
            ci_workflow: ".github/workflows/ci.yml",
            bench_source: "crates/igepa-bench/benches/engine.rs",
        }
    }
}

impl Config {
    /// Enforcement level for `rule`, defaulting to `Deny`.
    pub fn level(&self, rule: &str) -> Level {
        self.levels.get(rule).copied().unwrap_or(Level::Deny)
    }
}

/// The pinned wire-compat baseline: every `Deserialize`-reachable
/// config/snapshot type in `igepa-engine` and the exact fields or
/// variants it had when its decode path last proved legacy
/// compatibility. Adding a field without extending this list (and
/// without a `None => default` arm in the hand-written decoder — the
/// vendored serde derive has no `#[serde(default)]`) is a diagnostic.
fn default_serde_baseline() -> BTreeMap<&'static str, Vec<&'static str>> {
    let mut m: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
    m.insert(
        "EngineConfig",
        vec![
            "seed",
            "escalation_fraction",
            "staleness_check_interval",
            "max_staleness",
            "durability",
            "admission",
        ],
    );
    m.insert("AdmissionPolicy", vec!["Unbounded", "Bounded"]);
    m.insert(
        "OverloadStats",
        vec![
            "policy",
            "queue_depth",
            "high_water",
            "shed",
            "deadline_expired",
            "read_only",
        ],
    );
    m.insert(
        "EngineError",
        vec![
            "Rejected",
            "NotFound",
            "Unsupported",
            "Malformed",
            "Internal",
            "Overloaded",
            "DeadlineExceeded",
        ],
    );
    m.insert(
        "DurabilityPolicy",
        vec!["Off", "Interval", "EveryN", "Always"],
    );
    m.insert(
        "ShardedConfig",
        vec![
            "num_shards",
            "shard",
            "reconcile_interval",
            "reconcile_rounds",
        ],
    );
    m.insert(
        "EngineStats",
        vec![
            "deltas_applied",
            "deltas_rejected",
            "greedy_patches",
            "full_resolves",
            "batch_solves",
            "staleness_resolves",
            "staleness_checks",
            "quota_updates",
            "last_observed_drift",
        ],
    );
    m.insert(
        "CoordinatorStats",
        vec![
            "reconcile_passes",
            "quota_moved",
            "last_boundary_events",
            "reshards",
            "users_migrated",
            "migration_proposals",
        ],
    );
    m.insert(
        "ShardStatsEntry",
        vec![
            "shard",
            "users",
            "pairs",
            "utility",
            "stats",
            "moved_in",
            "moved_out",
        ],
    );
    m.insert(
        "MigrationRecord",
        vec![
            "from_shards",
            "to_shards",
            "moved_users",
            "quota_moved",
            "catalog_epoch",
        ],
    );
    m.insert("WalRecord", vec!["seq", "envelope_id", "epoch", "request"]);
    m.insert(
        "ShardRecord",
        vec![
            "quotas",
            "arrangement",
            "stats",
            "solve_counter",
            "last_staleness_check",
            "catalog_epoch",
            "interest_sum",
            "interaction_sum",
        ],
    );
    m.insert(
        "EngineSnapshotState",
        vec![
            "version",
            "wal_seq",
            "catalog_epoch",
            "config",
            "mirror",
            "owners",
            "rejected",
            "deltas_since_reconcile",
            "reconcile_candidates",
            "coordinator_stats",
            "probe_counter",
            "shards",
            "shard_migrations",
        ],
    );
    m
}
