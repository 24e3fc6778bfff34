//! The four workloads and every input they are driven with.
//!
//! A workload's instance is fixed by `--instance-seed I` (default 1):
//!
//! * the server builds its base dataset from `I` (the benchmark derives
//!   the same instance to keep a mirror of it);
//! * the write stream (a community delta trace) uses `I + 1`.
//!
//! `--seed N` sets the traffic's timing and read keys:
//!
//! * the read keys use `N + 2`;
//! * the arrival schedules use `N + 3`.
//!
//! Each phase sends a fixed number of writes (rate times duration) at
//! seeded Poisson arrival times, so every `--seed` applies the same writes
//! in the same order and ends in the same arrangement: `utility_ratio` is
//! a property of the instance and the code, and the spread of the timings
//! across seeds is run-to-run noise, not a different instance.

use igepa_core::{CapacityTarget, EventId, Instance, InstanceDelta, UserId};
use igepa_datagen::{
    generate_clustered_dataset, generate_community_trace, ClusteredConfig, ClusteredDataset,
    CommunityTraceConfig,
};
use igepa_engine::{EngineQuery, EngineRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shards every workload's server runs.
pub const SHARDS: usize = 2;
/// Communities the write traces are organised around (one per shard, as
/// the `serve` command's own traces are).
const TRACE_COMMUNITIES: usize = SHARDS;
/// Un-timed open-loop traffic before the measured window.
pub const WARMUP_SECONDS: f64 = 1.0;
/// Send-ahead window of the saturation phase.
pub const SATURATION_WINDOW: usize = 32;

/// Which delta trace the writer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMix {
    /// Population churn only: the `partition_friendly` community trace
    /// re-weighted to user-targeted deltas, with event-scoped edits
    /// dropped. Nothing broadcasts.
    UserScoped,
    /// The `announcement_heavy` trace with timed announcements: most
    /// deltas are event-scoped broadcasts.
    AnnouncementHeavy,
}

/// The operation the saturation phase pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturationOp {
    /// Further deltas of the write stream, on the writer connection.
    Writes,
    /// Further reads of the read stream, split over both connections.
    Reads,
}

/// One workload: a server configuration plus a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// `serve --scale`: 1.0 is 200 events and 2k users.
    pub scale: f64,
    /// Whether the server runs with a write-ahead log (fsync every 32).
    pub wal: bool,
    /// Open-loop write arrivals per second.
    pub write_rate: f64,
    /// Open-loop read arrivals per second.
    pub read_rate: f64,
    /// Share of reads that are `MergedSnapshot`.
    pub snapshot_share: f64,
    /// The write trace.
    pub mix: WriteMix,
    /// What the saturation phase pipelines, and how many.
    pub saturation: (SaturationOp, usize),
    /// Whether the run ends with a `kill -9` and a restart on the WAL.
    pub restart: bool,
}

/// Every workload, in the order a full run drives them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "user_churn",
        scale: 1.0,
        wal: true,
        write_rate: 1000.0,
        read_rate: 250.0,
        snapshot_share: 0.0,
        mix: WriteMix::UserScoped,
        saturation: (SaturationOp::Writes, 20_000),
        restart: true,
    },
    Workload {
        name: "read_mostly",
        scale: 1.0,
        wal: false,
        write_rate: 150.0,
        read_rate: 4000.0,
        snapshot_share: 0.01,
        mix: WriteMix::UserScoped,
        saturation: (SaturationOp::Reads, 80_000),
        restart: false,
    },
    Workload {
        name: "event_churn",
        scale: 1.0,
        wal: false,
        write_rate: 300.0,
        read_rate: 250.0,
        snapshot_share: 0.0,
        mix: WriteMix::AnnouncementHeavy,
        saturation: (SaturationOp::Writes, 6_000),
        restart: false,
    },
    Workload {
        name: "large_instance",
        scale: 5.0,
        wal: false,
        write_rate: 300.0,
        read_rate: 250.0,
        snapshot_share: 0.0,
        mix: WriteMix::UserScoped,
        saturation: (SaturationOp::Writes, 6_000),
        restart: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The clustered configuration `serve --scale` builds its dataset from
/// (the same scaling `igepa-experiments` applies).
pub fn scaled_clustered(scale: f64) -> ClusteredConfig {
    let scale = scale.max(0.01);
    let base = ClusteredConfig::default();
    ClusteredConfig {
        num_events: ((base.num_events as f64 * scale).round() as usize).max(8),
        num_users: ((base.num_users as f64 * scale).round() as usize).max(24),
        ..base
    }
}

/// The dataset a `serve --seed seed --scale scale` server starts from.
pub fn base_dataset(scale: f64, seed: u64) -> ClusteredDataset {
    generate_clustered_dataset(&scaled_clustered(scale), seed)
}

/// Durations of one run's phases.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Warm-up seconds (not measured).
    pub warmup: f64,
    /// Measured open-loop seconds.
    pub measured: f64,
    /// Divisor applied to the saturation count (20 in smoke mode).
    pub count_divisor: usize,
}

/// Which stream and phase a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Open-loop warm-up.
    Warmup,
    /// Open-loop measured window.
    Measured,
}

/// One open-loop phase: per connection, the requests and their due times
/// (seconds after the phase starts).
#[derive(Debug, Clone)]
pub struct OpenLoopPlan {
    /// The phase.
    pub phase: Phase,
    /// Writer connection: due offsets and requests.
    pub writes: Vec<(f64, EngineRequest)>,
    /// Reader connection: due offsets and requests.
    pub reads: Vec<(f64, EngineRequest)>,
}

/// Every request one run sends, in per-connection order.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed the base instance and the write stream were built from.
    pub instance_seed: u64,
    /// The base instance the server starts from.
    pub base: Instance,
    /// Warm-up then measured open-loop phases.
    pub open_loop: Vec<OpenLoopPlan>,
    /// The saturation phase's requests and the connection they go on.
    pub saturation: (SaturationOp, Vec<EngineRequest>),
}

impl Inputs {
    /// Every delta in the order the writer sends it (warm-up, measured,
    /// saturation) — the order the mirror applies them.
    pub fn deltas(&self) -> Vec<&InstanceDelta> {
        let open = self
            .open_loop
            .iter()
            .flat_map(|p| p.writes.iter().map(|(_, r)| r));
        let saturation = match self.saturation.0 {
            SaturationOp::Writes => self.saturation.1.as_slice(),
            SaturationOp::Reads => &[],
        };
        open.chain(saturation)
            .filter_map(|request| match request {
                EngineRequest::Apply { delta } => Some(delta),
                _ => None,
            })
            .collect()
    }
}

/// `round(rate * seconds)` arrival times (seconds, ascending) of a
/// Poisson process at `rate` per second over `seconds`, given that count:
/// sorted independent uniform times, from a dedicated generator.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate * seconds).round() as usize;
    let mut out: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..seconds)).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Mixes a stream tag into a seed, so independent streams drawn from one
/// seed never share a generator.
fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` deltas of the workload's write trace against `dataset`.
fn write_stream(
    workload: &Workload,
    dataset: &ClusteredDataset,
    count: usize,
    seed: u64,
) -> Vec<InstanceDelta> {
    let mut config = match workload.mix {
        WriteMix::UserScoped => {
            let mut config = CommunityTraceConfig::partition_friendly(count, TRACE_COMMUNITIES);
            config.base.weight_add_event = 0.0;
            config.base.weight_add_user = 0.10;
            config.base.weight_remove_user = 0.08;
            config.base.weight_update_bids = 0.45;
            config.base.weight_update_interaction = 0.30;
            config.base.weight_update_capacity = 0.07;
            config
        }
        WriteMix::AnnouncementHeavy => {
            CommunityTraceConfig::announcement_heavy(count, TRACE_COMMUNITIES)
        }
    };
    // Dropping event-capacity edits shortens a user-scoped trace; grow the
    // generated length until enough deltas survive. Deterministic, since
    // the generator is a pure function of (instance, config, seed).
    loop {
        let trace =
            generate_community_trace(&dataset.instance, &dataset.event_communities, &config, seed);
        let deltas: Vec<InstanceDelta> = trace
            .deltas
            .into_iter()
            .map(|t| t.delta)
            .filter(|delta| {
                workload.mix == WriteMix::AnnouncementHeavy
                    || !matches!(
                        delta,
                        InstanceDelta::UpdateCapacity {
                            target: CapacityTarget::Event(_),
                            ..
                        }
                    )
            })
            .collect();
        if deltas.len() >= count {
            return deltas.into_iter().take(count).collect();
        }
        config.base.num_deltas += count - deltas.len() + 64;
    }
}

/// One read of the workload's mix: `AssignmentsOf` 50%, `EventLoad` 30%
/// and `Utility` 20% of the non-snapshot share, over ids below the base
/// counts (always present, so no read fails).
fn read_request(
    rng: &mut StdRng,
    workload: &Workload,
    users: usize,
    events: usize,
) -> EngineRequest {
    let query = if rng.gen_range(0.0..1.0) < workload.snapshot_share {
        EngineQuery::MergedSnapshot
    } else {
        let pick: f64 = rng.gen_range(0.0..1.0);
        if pick < 0.5 {
            EngineQuery::AssignmentsOf {
                user: UserId::new(rng.gen_range(0..users)),
            }
        } else if pick < 0.8 {
            EngineQuery::EventLoad {
                event: EventId::new(rng.gen_range(0..events)),
            }
        } else {
            EngineQuery::Utility
        }
    };
    EngineRequest::Query { query }
}

/// Builds every input of one run of `workload`: the instance from
/// `instance_seed`, the traffic's timing and read keys from `seed`.
pub fn build_inputs(workload: &Workload, instance_seed: u64, seed: u64, timing: Timing) -> Inputs {
    let dataset = base_dataset(workload.scale, instance_seed);
    let users = dataset.instance.num_users();
    let events = dataset.instance.num_events();

    let phases = [
        (Phase::Warmup, timing.warmup),
        (Phase::Measured, timing.measured),
    ];
    let schedules: Vec<(Phase, Vec<f64>, Vec<f64>)> = phases
        .iter()
        .enumerate()
        .map(|(i, &(phase, seconds))| {
            let arrivals = seed.wrapping_add(3);
            let writes = poisson_schedule(
                workload.write_rate,
                seconds,
                stream_seed(arrivals, 2 * i as u64),
            );
            let reads = poisson_schedule(
                workload.read_rate,
                seconds,
                stream_seed(arrivals, 2 * i as u64 + 1),
            );
            (phase, writes, reads)
        })
        .collect();

    let (saturation_op, saturation_count) = workload.saturation;
    let saturation_count = (saturation_count / timing.count_divisor).max(1);
    let open_writes: usize = schedules.iter().map(|(_, writes, _)| writes.len()).sum();
    let saturation_writes = match saturation_op {
        SaturationOp::Writes => saturation_count,
        SaturationOp::Reads => 0,
    };
    let mut deltas = write_stream(
        workload,
        &dataset,
        open_writes + saturation_writes,
        instance_seed.wrapping_add(1),
    )
    .into_iter()
    .map(|delta| EngineRequest::Apply { delta });
    let mut read_rng = StdRng::seed_from_u64(seed.wrapping_add(2));

    let open_loop = schedules
        .into_iter()
        .map(|(phase, write_at, read_at)| OpenLoopPlan {
            phase,
            writes: write_at
                .into_iter()
                .map(|at| {
                    (
                        at,
                        deltas.next().expect("write stream sized to the schedule"),
                    )
                })
                .collect(),
            reads: read_at
                .into_iter()
                .map(|at| (at, read_request(&mut read_rng, workload, users, events)))
                .collect(),
        })
        .collect();
    let saturation = match saturation_op {
        SaturationOp::Writes => deltas.collect(),
        SaturationOp::Reads => (0..saturation_count)
            .map(|_| read_request(&mut read_rng, workload, users, events))
            .collect(),
    };
    Inputs {
        instance_seed,
        base: dataset.instance,
        open_loop,
        saturation: (saturation_op, saturation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igepa_experiments::{tcp_server_engine, ExperimentSettings};

    #[test]
    fn derived_base_instance_equals_the_servers() {
        for (scale, seed) in [(0.2, 7u64), (1.0, 1)] {
            let settings = ExperimentSettings {
                base_seed: seed,
                scale,
                ..ExperimentSettings::default()
            };
            let engine = tcp_server_engine(&settings, SHARDS, 1);
            let served = engine.instance();
            let derived = base_dataset(scale, seed).instance;
            assert_eq!(derived.num_users(), served.num_users());
            assert_eq!(derived.num_events(), served.num_events());
            for (mine, theirs) in derived.users().iter().zip(served.users()) {
                assert_eq!(mine.bids, theirs.bids, "bids of {:?}", mine.id);
                assert_eq!(mine.capacity, theirs.capacity);
            }
        }
    }

    #[test]
    fn seeded_schedule_is_deterministic_at_the_target_rate() {
        let a = poisson_schedule(1000.0, 100.0, 42);
        assert_eq!(a, poisson_schedule(1000.0, 100.0, 42));
        assert_ne!(a, poisson_schedule(1000.0, 100.0, 43));
        let rate = a.len() as f64 / 100.0;
        assert!((rate - 1000.0).abs() <= 20.0, "mean rate {rate}/s");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..100.0).contains(&t)));
        // Poisson arrivals: exponential gaps, whose standard deviation
        // equals their mean.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "gap coefficient of variation {cv}");
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seeds() {
        let timing = Timing {
            warmup: 0.05,
            measured: 0.2,
            count_divisor: 100,
        };
        let named = |name| workload(name).expect("known workload");
        let a = build_inputs(named("event_churn"), 1, 5, timing);
        let b = build_inputs(named("event_churn"), 1, 5, timing);
        assert_eq!(a.deltas(), b.deltas());
        assert_eq!(a.open_loop[1].reads, b.open_loop[1].reads);
        // Another traffic seed moves the arrivals and read keys, never the
        // writes or the instance.
        let c = build_inputs(named("event_churn"), 1, 6, timing);
        assert_eq!(a.deltas(), c.deltas());
        assert_ne!(a.open_loop[1].writes, c.open_loop[1].writes);
        assert_ne!(a.open_loop[1].reads, c.open_loop[1].reads);
        let d = build_inputs(named("event_churn"), 2, 5, timing);
        assert_ne!(a.deltas(), d.deltas());
        let user_scoped = build_inputs(named("user_churn"), 1, 5, timing);
        assert!(user_scoped.deltas().iter().all(|d| !matches!(
            d,
            InstanceDelta::AddEvent { .. }
                | InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::Event(_),
                    ..
                }
        )));
    }
}
