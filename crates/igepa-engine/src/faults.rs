//! Deterministic fault injection for the sharded serving stack.
//!
//! Extends the one-shot crash injector idiom of the durability tests
//! (`tests/crash_recovery.rs`) into a *plan*: a seeded [`FaultPlan`]
//! names which degradations to inject — slow shard applies, dropped
//! worker view shipments, WAL stalls and a forced WAL append failure —
//! and a [`FaultInjector`] carries it into a server through
//! [`ServerOptions::faults`](crate::ServerOptions::faults), deciding every injection site from a counter hash so the same plan
//! against the same request interleaving injects the same faults.
//!
//! The harness exists to *prove degradation invariants*, not to
//! simulate hardware: under any plan the server must hand every
//! accepted request exactly one typed response, never panic or
//! deadlock, keep answering cached reads, and shut down with a
//! feasible merged arrangement (pinned by the `overload` proptests).
//!
//! What each fault models:
//!
//! * **Slow apply** (`slow_apply_permille` / `slow_apply_ms`) — a shard
//!   worker sleeps before executing an apply: a contended core, a cold
//!   cache, a GC-less runtime's moral equivalent of a pause. Backs up
//!   the dispatch queue so bounded admission actually sheds.
//! * **Dropped view shipment** (`drop_view_permille`) — a worker
//!   completes an apply but its epoch-tagged read-state view is lost
//!   ([`ViewUpdate::Lost`](crate::transport)). The dispatcher must
//!   recover the never-stale-after-ack guarantee by refreshing the
//!   query cache from the authoritative shards *before* releasing the
//!   ack.
//! * **WAL stall** (`wal_stall_permille` / `wal_stall_ms`) — the
//!   write-ahead append blocks like a congested disk; ack latency
//!   absorbs it (the WAL-before-ack contract is kept, not bypassed).
//! * **WAL failure** (`wal_fail_at`) — the Nth append fails outright.
//!   The server flips into read-only degraded mode: the failing
//!   request is refused, subsequent mutations shed with
//!   [`EngineError::Overloaded`](crate::EngineError::Overloaded), and
//!   cached reads keep answering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64: the decision hash behind every injection site (and the
/// client's retry jitter). Tiny, seedable, and good enough to
/// decorrelate sites without dragging in an RNG dependency.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, declarative fault schedule. `permille` fields are
/// per-thousand probabilities evaluated per site occurrence; `0`
/// disables the fault, `1000` fires every time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the decision stream. Two injectors with equal plans
    /// make identical decisions at equal site counters.
    pub seed: u64,
    /// Per-thousand chance a worker apply sleeps first.
    pub slow_apply_permille: u16,
    /// How long a slowed apply sleeps.
    pub slow_apply_ms: u64,
    /// Per-thousand chance a completed apply's view shipment is lost.
    pub drop_view_permille: u16,
    /// Per-thousand chance a WAL append stalls first.
    pub wal_stall_permille: u16,
    /// How long a stalled WAL append sleeps.
    pub wal_stall_ms: u64,
    /// 1-based index of the WAL append that fails outright (`None`:
    /// the WAL never fails). One-shot, like the crash injector it
    /// descends from: every append after the failed one would also
    /// fail in a real deployment, but the server is read-only by then
    /// and never attempts another.
    pub wal_fail_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity harness: serving with
    /// a quiet plan must be indistinguishable from serving without
    /// one).
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Parses the CLI spec: comma-separated `key=value` pairs over
    /// `seed`, `slow` / `slow_ms`, `drop`, `stall` / `stall_ms`,
    /// `walfail` — e.g. `seed=7,slow=250,slow_ms=2,drop=50,walfail=40`.
    /// Probabilities are permille. Unknown keys and unparsable values
    /// are errors, not silently ignored: a typo'd fault plan that
    /// injects nothing would pass every robustness test vacuously.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::quiet();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let parsed: u64 = value
                .parse()
                .map_err(|_| format!("fault-plan value `{value}` for `{key}` is not a number"))?;
            let permille = || -> Result<u16, String> {
                if parsed > 1000 {
                    return Err(format!("fault-plan `{key}={parsed}` exceeds 1000 permille"));
                }
                Ok(parsed as u16)
            };
            match key {
                "seed" => plan.seed = parsed,
                "slow" => plan.slow_apply_permille = permille()?,
                "slow_ms" => plan.slow_apply_ms = parsed,
                "drop" => plan.drop_view_permille = permille()?,
                "stall" => plan.wal_stall_permille = permille()?,
                "stall_ms" => plan.wal_stall_ms = parsed,
                "walfail" => plan.wal_fail_at = Some(parsed),
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Counters for what actually fired, for test assertions and the
/// experiments CLI report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Applies that were slowed.
    pub slow_applies: u64,
    /// View shipments that were dropped.
    pub dropped_views: u64,
    /// WAL appends that were stalled.
    pub wal_stalls: u64,
    /// WAL appends that were failed (0 or 1).
    pub wal_failures: u64,
}

/// The live injector: a [`FaultPlan`] plus per-site occurrence
/// counters. Decisions hash `(seed, site, occurrence)` — independent
/// of wall-clock, thread ids and socket timing — so a plan's injection
/// pattern is a pure function of how many times each site ran.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    apply_seq: AtomicU64,
    view_seq: AtomicU64,
    wal_seq: AtomicU64,
    slow_applies: AtomicU64,
    dropped_views: AtomicU64,
    wal_stalls: AtomicU64,
    wal_failures: AtomicU64,
}

/// Site salts keep the decision streams of different fault kinds
/// decorrelated even at equal occurrence counters.
const SITE_SLOW: u64 = 0x51;
const SITE_DROP: u64 = 0xd0;
const SITE_STALL: u64 = 0x5a;

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn fires(&self, site: u64, occurrence: u64, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        splitmix64(self.plan.seed ^ (site << 56) ^ occurrence) % 1000 < u64::from(permille)
    }

    /// Worker-side hook before executing an apply: sleeps when the
    /// plan slows this occurrence.
    pub(crate) fn before_apply(&self) {
        let n = self.apply_seq.fetch_add(1, Ordering::Relaxed);
        if self.fires(SITE_SLOW, n, self.plan.slow_apply_permille) {
            self.slow_applies.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.plan.slow_apply_ms));
        }
    }

    /// Worker-side hook after computing a completion's view: `true`
    /// means the shipment is lost and the dispatcher must recover.
    pub(crate) fn drop_view(&self) -> bool {
        let n = self.view_seq.fetch_add(1, Ordering::Relaxed);
        let fires = self.fires(SITE_DROP, n, self.plan.drop_view_permille);
        if fires {
            self.dropped_views.fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// Dispatcher-side hook before a WAL append: sleeps through a
    /// planned stall, then returns `true` when this append is the
    /// planned failure.
    pub(crate) fn wal_append_fault(&self) -> bool {
        let n = self.wal_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fires(SITE_STALL, n, self.plan.wal_stall_permille) {
            self.wal_stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.plan.wal_stall_ms));
        }
        let fails = self.plan.wal_fail_at == Some(n);
        if fails {
            self.wal_failures.fetch_add(1, Ordering::Relaxed);
        }
        fails
    }

    /// What has fired so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            slow_applies: self.slow_applies.load(Ordering::Relaxed),
            dropped_views: self.dropped_views.load(Ordering::Relaxed),
            wal_stalls: self.wal_stalls.load(Ordering::Relaxed),
            wal_failures: self.wal_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(FaultPlan {
            seed: 42,
            slow_apply_permille: 500,
            drop_view_permille: 300,
            ..FaultPlan::quiet()
        });
        let b = FaultInjector::new(a.plan().clone());
        let trace =
            |inj: &FaultInjector| -> Vec<bool> { (0..200).map(|_| inj.drop_view()).collect() };
        assert_eq!(trace(&a), trace(&b), "equal plans must decide equally");
        let c = FaultInjector::new(FaultPlan {
            seed: 43,
            ..a.plan().clone()
        });
        assert_ne!(
            trace(&a),
            trace(&c),
            "different seeds should decorrelate (200 draws at 30%)"
        );
    }

    #[test]
    fn permille_bounds_are_respected() {
        let never = FaultInjector::new(FaultPlan::quiet());
        assert!(
            (0..500).all(|_| !never.drop_view()),
            "0 permille never fires"
        );
        let always = FaultInjector::new(FaultPlan {
            drop_view_permille: 1000,
            ..FaultPlan::quiet()
        });
        assert!(
            (0..500).all(|_| always.drop_view()),
            "1000 permille always fires"
        );
    }

    #[test]
    fn wal_fail_at_is_one_shot_and_positional() {
        let inj = FaultInjector::new(FaultPlan {
            wal_fail_at: Some(3),
            ..FaultPlan::quiet()
        });
        let fired: Vec<bool> = (0..6).map(|_| inj.wal_append_fault()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(inj.counts().wal_failures, 1);
    }

    #[test]
    fn plan_parsing_roundtrips_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("seed=7,slow=250,slow_ms=2,drop=50,stall=10,stall_ms=1,walfail=40")
                .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                seed: 7,
                slow_apply_permille: 250,
                slow_apply_ms: 2,
                drop_view_permille: 50,
                wal_stall_permille: 10,
                wal_stall_ms: 1,
                wal_fail_at: Some(40),
            }
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::quiet());
        assert!(FaultPlan::parse("slow=1001").is_err(), "permille over 1000");
        assert!(FaultPlan::parse("warp=9").is_err(), "unknown key");
        assert!(FaultPlan::parse("slow").is_err(), "missing value");
        assert!(FaultPlan::parse("slow=fast").is_err(), "non-numeric value");
    }

    #[test]
    fn splitmix_is_stable() {
        // Pin the decision hash: a silent change would re-randomise
        // every recorded fault pattern.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(42), 0xbdd732262feb6e95);
    }
}
