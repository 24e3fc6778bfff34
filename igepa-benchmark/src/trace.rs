//! Spans, self time, and the in-process replay that times each layer.
//!
//! The traced run replays a workload's exact request stream in this
//! process through the public function of each layer, in the order the
//! server runs them: encode the request envelope, frame it, deframe it,
//! decode it, append it to a WAL, validate the delta on a mirror
//! instance, handle it in an `EngineService` over the same two-shard
//! engine the server builds, then encode, frame, deframe and decode the
//! response. Every request gets a root span whose children are those
//! calls. The replay's final utility must equal the exact utility the
//! server reports with its closing snapshot bit for bit, which shows it
//! ran the same path as the server. It is not the
//! server's own timing: sockets, the dispatch queue, worker hand-off and
//! the server's read cache are what the residual (end-to-end mean minus
//! the layer means) leaves over.

use crate::wire;
use crate::workload::{Inputs, SHARDS};
use igepa_core::{
    AttributeVector, CapacityTarget, ConstantInterest, EventId, Instance, InstanceDelta,
    NeverConflict,
};
use igepa_engine::transport::{read_frame, write_frame};
use igepa_engine::{
    decode_request_envelope, decode_response_envelope, encode_response_envelope, recover,
    DurabilityController, DurabilityPolicy, EngineQuery, EngineRequest, EngineResponse,
    EngineService, Framing, ResponseEnvelope, ShardedEngine,
};
use igepa_experiments::{tcp_server_engine, ExperimentSettings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, request, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so overlapping children
/// are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(span.start_ns, span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What a request is, for the per-kind layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A mutation.
    Apply,
    /// A read other than a full snapshot.
    Read,
    /// `MergedSnapshot`.
    Snapshot,
}

impl Kind {
    /// Classifies a request.
    pub fn of(request: &EngineRequest) -> Kind {
        match request {
            EngineRequest::Query {
                query: EngineQuery::MergedSnapshot,
            } => Kind::Snapshot,
            EngineRequest::Query { .. } => Kind::Read,
            _ => Kind::Apply,
        }
    }

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Apply => "apply",
            Kind::Read => "read",
            Kind::Snapshot => "snapshot",
        }
    }
}

/// The fewest timings a layer metric of a kind gets: rare requests (a
/// closing snapshot) repeat each timed call until the layer has this
/// many, so its median is reportable.
const MIN_LAYER_SAMPLES: usize = 20;

/// Requests whose spans a replay keeps (every k-th, k chosen to keep
/// about this many); every request is timed either way.
pub const TRACED_REQUESTS: u64 = 2_000;

/// Event-side probes appended after the verified replay, so the
/// announcement and broadcast layers are timed on every workload.
const EVENT_PROBES: usize = 32;

/// Per-layer timings (µs) and frame sizes (bytes) of one replay.
#[derive(Debug, Default)]
pub struct Samples {
    /// `(layer, kind)` → timings in µs.
    pub times: BTreeMap<(&'static str, Kind), Vec<f64>>,
    /// `(direction, kind)` → frame sizes in bytes.
    pub bytes: BTreeMap<(&'static str, Kind), Vec<f64>>,
}

impl Samples {
    /// Timings of one layer and kind (empty if none).
    pub fn get(&self, layer: &'static str, kind: Kind) -> &[f64] {
        self.times.get(&(layer, kind)).map_or(&[], Vec::as_slice)
    }
}

struct Recorder {
    tracer: Tracer,
    samples: Samples,
    /// The request being replayed.
    id: u64,
    /// Its root span, when its spans are kept.
    root: Option<usize>,
}

impl Recorder {
    /// Runs `op` `reps` times as one layer call of the current request:
    /// every run is a timing sample, the first also a span (if kept).
    fn time<T>(
        &mut self,
        layer: &'static str,
        kind: Kind,
        reps: usize,
        mut op: impl FnMut() -> T,
    ) -> T {
        let start = self.tracer.now_ns();
        let mut result = op();
        let end = self.tracer.now_ns();
        if let Some(root) = self.root {
            self.tracer.record(layer, self.id, Some(root), start, end);
        }
        let timings = self.samples.times.entry((layer, kind)).or_default();
        timings.push((end - start) as f64 / 1e3);
        for _ in 1..reps {
            let start = Instant::now();
            result = op();
            timings.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        result
    }
}

/// Result of the in-process replay.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer timings.
    pub samples: Samples,
    /// The spans of every k-th request.
    pub tracer: Tracer,
    /// Utility of the replayed engine after the closing queries.
    pub final_utility: f64,
    /// Handle times (µs) of the applies during which a staleness check
    /// ran.
    pub staleness_apply_us: Vec<f64>,
    /// Sum of every apply's handle time (µs).
    pub apply_total_us: f64,
    /// Records the replay appended to its WAL.
    pub wal_records: u64,
    /// Bytes per WAL record.
    pub wal_bytes_per_record: f64,
    /// Fsyncs per WAL record.
    pub wal_fsyncs_per_record: f64,
    /// `recover()` time per replayed record (µs), fresh-engine build
    /// excluded.
    pub replay_us_per_record: f64,
}

/// The order the server sees a run's requests in, by due time across the
/// two connections (writes first on ties), then saturation, then
/// `closing`. Only the relative order of writes changes state, and that
/// is the writer connection's order.
fn request_stream<'a>(inputs: &'a Inputs, closing: &'a [EngineRequest]) -> Vec<&'a EngineRequest> {
    let mut stream = Vec::new();
    for plan in &inputs.open_loop {
        let mut merged: Vec<(f64, u8, &EngineRequest)> = plan
            .writes
            .iter()
            .map(|(at, r)| (*at, 0, r))
            .chain(plan.reads.iter().map(|(at, r)| (*at, 1, r)))
            .collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        stream.extend(merged.into_iter().map(|(_, _, r)| r));
    }
    stream.extend(inputs.saturation.1.iter());
    stream.extend(closing.iter());
    stream
}

fn is_announcement(delta: &InstanceDelta) -> bool {
    matches!(delta, InstanceDelta::AddEvent { .. })
}

fn is_event_capacity(delta: &InstanceDelta) -> bool {
    matches!(
        delta,
        InstanceDelta::UpdateCapacity {
            target: CapacityTarget::Event(_),
            ..
        }
    )
}

/// Replays `inputs` (then `closing`) in process and times every layer.
/// The WAL goes to `wal_dir` under the server's `every=32` policy on
/// every workload, so the append cost is priced even where the server
/// runs without one.
pub fn replay(
    inputs: &Inputs,
    settings: &ExperimentSettings,
    closing: &[EngineRequest],
    wal_dir: &Path,
) -> Result<Replay, String> {
    let stream = request_stream(inputs, closing);
    let snapshots = stream
        .iter()
        .filter(|r| Kind::of(r) == Kind::Snapshot)
        .count();
    let snapshot_reps = MIN_LAYER_SAMPLES.div_ceil(snapshots.max(1));
    let policy = DurabilityPolicy::EveryN { n: 32 };
    let mut wal = DurabilityController::create(wal_dir, policy).map_err(|e| format!("WAL: {e}"))?;
    wal.set_snapshot_every(0);
    let mut service = EngineService::new(tcp_server_engine(settings, SHARDS, 1));
    let mut mirror: Instance = inputs.base.clone();
    let stride = (stream.len() as u64).div_ceil(TRACED_REQUESTS).max(1);
    let mut rec = Recorder {
        tracer: Tracer::new(),
        samples: Samples::default(),
        id: 0,
        root: None,
    };
    let mut staleness_apply_us = Vec::new();
    let mut apply_total_us = 0.0;
    let mut final_utility = None;
    let mut frame = Vec::new();

    for (i, body) in stream.iter().enumerate() {
        let id = i as u64 + 1;
        let kind = Kind::of(body);
        let reps = if kind == Kind::Snapshot {
            snapshot_reps
        } else {
            1
        };
        rec.id = id;
        rec.root = id
            .is_multiple_of(stride)
            .then(|| rec.tracer.open("request", id, None));

        let line = rec.time("protocol.encode_request", kind, reps, || {
            wire::encode(id, body)
        });
        rec.time("transport.frame_write", kind, reps, || {
            frame.clear();
            write_frame(&mut frame, Framing::Lines, &line)
        })
        .map_err(|e| e.to_string())?;
        rec.samples
            .bytes
            .entry(("request", kind))
            .or_default()
            .push(frame.len() as f64);
        let received = rec
            .time("transport.frame_read", kind, reps, || {
                read_frame(&mut frame.as_slice(), Framing::Lines)
            })
            .map_err(|e| e.to_string())?
            .ok_or("empty request frame")?;
        let envelope = rec
            .time("protocol.decode_request", kind, reps, || {
                decode_request_envelope(&received, id)
            })
            .map_err(|e| e.to_string())?;

        let result = if let EngineRequest::Apply { delta } = &envelope.body {
            let epoch = service.backend().catalog().epoch();
            rec.time("durability.append", kind, 1, || {
                wal.log(id, epoch, &envelope.body)
            })
            .map_err(|e| format!("WAL append: {e}"))?;
            rec.time("coordinator.validate", kind, 1, || {
                mirror.apply_delta(delta, &NeverConflict, &ConstantInterest(0.5))
            })
            .map_err(|e| format!("mirror rejected {delta:?}: {e}"))?;
            let checks_before = service.backend().stats().staleness_checks;
            let result = rec.time("coordinator.apply", kind, 1, || {
                service.try_handle(&envelope.body)
            });
            let took = *rec
                .samples
                .get("coordinator.apply", kind)
                .last()
                .expect("just timed");
            apply_total_us += took;
            if service.backend().stats().staleness_checks > checks_before {
                staleness_apply_us.push(took);
            }
            if is_announcement(delta) {
                rec.samples
                    .times
                    .entry(("catalog.announce", kind))
                    .or_default()
                    .push(took);
            } else if is_event_capacity(delta) {
                rec.samples
                    .times
                    .entry(("coordinator.broadcast", kind))
                    .or_default()
                    .push(took);
            }
            result
        } else {
            rec.time("service.query", kind, reps, || {
                service.try_handle(&envelope.body)
            })
        };
        let result = result.map_err(|e| format!("replayed request {id} failed: {e}"))?;
        if let EngineResponse::Utility { total, .. } = &result {
            final_utility = Some(*total);
        }

        let response = ResponseEnvelope {
            id,
            result: Ok(result),
        };
        let line = rec.time("protocol.encode_response", kind, reps, || {
            encode_response_envelope(&response)
        });
        rec.time("transport.frame_write", kind, reps, || {
            frame.clear();
            write_frame(&mut frame, Framing::Lines, &line)
        })
        .map_err(|e| e.to_string())?;
        rec.samples
            .bytes
            .entry(("response", kind))
            .or_default()
            .push(frame.len() as f64);
        let received = rec
            .time("transport.frame_read", kind, reps, || {
                read_frame(&mut frame.as_slice(), Framing::Lines)
            })
            .map_err(|e| e.to_string())?
            .ok_or("empty response frame")?;
        rec.time("protocol.decode_response", kind, reps, || {
            decode_response_envelope(&received)
        })
        .map_err(|e| e.to_string())?;
        if let Some(root) = rec.root {
            rec.tracer.close(root);
        }
    }
    let final_utility = final_utility.ok_or("the replay's closing queries include no Utility")?;
    let wal_stats = wal.stats();
    drop(wal);

    // Recovery: the whole log replays onto a fresh engine (the replay
    // never checkpoints). The fresh build is timed apart and excluded.
    let mut fresh_s = 0.0;
    let started = Instant::now();
    let recovered = recover(
        wal_dir,
        || {
            let built = Instant::now();
            let engine = tcp_server_engine(settings, SHARDS, 1);
            fresh_s = built.elapsed().as_secs_f64();
            engine
        },
        |_| Err("the replay writes no snapshot".to_string()),
    )
    .map_err(|e| format!("recovering the replay's WAL: {e}"))?;
    let recover_s = started.elapsed().as_secs_f64() - fresh_s;
    if recovered.engine.merged_utility().total.to_bits() != final_utility.to_bits() {
        return Err("recovering the replay's WAL did not reproduce its utility".to_string());
    }

    probe_event_layers(
        &mut service,
        &mut rec.samples,
        settings.base_seed.wrapping_add(1),
    )?;

    let records = wal_stats.wal_records.max(1) as f64;
    Ok(Replay {
        samples: rec.samples,
        tracer: rec.tracer,
        final_utility,
        staleness_apply_us,
        apply_total_us,
        wal_records: wal_stats.wal_records,
        wal_bytes_per_record: wal_stats.wal_bytes as f64 / records,
        wal_fsyncs_per_record: wal_stats.fsyncs as f64 / records,
        replay_us_per_record: recover_s * 1e6 / recovered.report.replayed.max(1) as f64,
    })
}

/// Times `EVENT_PROBES` announcements and as many event-capacity edits on
/// the replayed engine after its result was checked, so
/// `catalog.announce_us` and `coordinator.broadcast_us` have samples on
/// every workload (on `event_churn` they add to the stream's own).
fn probe_event_layers(
    service: &mut EngineService<ShardedEngine>,
    samples: &mut Samples,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..2 * EVENT_PROBES {
        let (layer, delta) = if i % 2 == 0 {
            let slot = rng.gen_range(0..1_000i64);
            (
                "catalog.announce",
                InstanceDelta::AddEvent {
                    capacity: rng.gen_range(1..=20),
                    attrs: AttributeVector::from_time(slot * 30, 90),
                },
            )
        } else {
            let events = service.backend().instance().num_events();
            (
                "coordinator.broadcast",
                InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::Event(EventId::new(rng.gen_range(0..events))),
                    capacity: rng.gen_range(1..=20),
                },
            )
        };
        let start = Instant::now();
        service
            .try_handle(&EngineRequest::Apply { delta })
            .map_err(|e| format!("event probe failed: {e}"))?;
        let took = start.elapsed().as_nanos() as f64 / 1e3;
        samples
            .times
            .entry((layer, Kind::Apply))
            .or_default()
            .push(took);
    }
    Ok(())
}

/// Writes spans as a JSON array, each with its self time.
pub fn spans_json(tracer: &Tracer) -> String {
    let self_ns = self_times_ns(&tracer.spans);
    let spans: Vec<String> = tracer
        .spans
        .iter()
        .zip(&self_ns)
        .enumerate()
        .map(|(i, (span, self_ns))| {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]", spans.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the union 10..40 is covered once.
            span("b", Some(0), 20, 40),
            // Nested in `b`: only `b`'s self time shrinks.
            span("c", Some(2), 25, 35),
            // Sticks out of the root: clipped to it.
            span("d", Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 10, 20, 10, 10, 30]);
    }

    #[test]
    fn disjoint_and_identical_children() {
        let spans = vec![
            span("root", None, 0, 50),
            span("a", Some(0), 0, 10),
            span("b", Some(0), 0, 10),
            span("c", Some(0), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }
}
