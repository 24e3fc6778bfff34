//! `igepa-benchmark`: an open-loop, end-to-end benchmark of the IGEPA
//! arrangement server, with per-layer timings from a traced run.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run, trace and compare.

mod loadgen;
mod results;
mod server;
mod stats;
mod trace;
mod verify;
mod wire;
mod workload;

use igepa_algos::{ArrangementAlgorithm, GreedyArrangement};
use igepa_core::{ConstantInterest, NeverConflict};
use igepa_engine::{EngineQuery, EngineRequest, EngineResponse, RepairKind};
use igepa_experiments::ExperimentSettings;
use loadgen::Exchange;
use results::{Catalog, MetricSpec, WorkloadReport};
use server::{Server, ServerConfig};
use stats::{mean, median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Kind;
use verify::Snapshot;
use wire::Conn;
use workload::{
    Inputs, Phase, SaturationOp, Timing, Workload, SATURATION_WINDOW, WARMUP_SECONDS, WORKLOADS,
};

const USAGE: &str = "\
usage: igepa-benchmark --server PATH [--workload NAME] [--seed N] [--instance-seed I]
                       [--seconds S] [--trace 0|1] [--runs N] [--smoke] [--out-dir DIR]
       igepa-benchmark --compare BASE.json NEW.json

Run from the repository root: the metrics come from ./BENCHMARK.json.

  --server PATH       the igepa-experiments executable to start (run.sh passes it)
  --workload NAME     user_churn, read_mostly, event_churn or large_instance
                      (default: all four)
  --seed N            seed of the arrival schedules and read keys (default 1)
  --instance-seed I   seed of the dataset and the write stream (default 1)
  --seconds S         measured open-loop seconds per workload (default 15)
  --trace 0|1         1: also trace the run and report the per-layer metrics
  --runs N            repeat the whole benchmark N times, same seeds, into one
                      results file
  --smoke             1/20 of every duration and count, all checks on
  --out-dir DIR       results, traces and scratch WALs (default igepa-benchmark/out)
  --compare A B       compare two results files made with the same settings,
                      one verdict per row; exits 1 if any row is worse or
                      missing or any check failed";

/// Server set-ups per run: at least `SETUPS`, and more while they fit in
/// `SETUP_SECONDS` (a scale-1 set-up takes about 45 ms, with single spawns
/// up to 60% slower); `setup_s` reports their median.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
/// Restarts on the replayed log per traced run; `recovery_s` reports
/// their median.
const RECOVERIES: usize = 3;
/// Divisor of every duration and count in `--smoke` mode.
const SMOKE_DIVISOR: usize = 20;
/// The closing queries, in the order they are sent.
const CLOSING: [EngineQuery; 6] = [
    EngineQuery::Utility,
    EngineQuery::MergedSnapshot,
    EngineQuery::Stats,
    EngineQuery::ShardStats,
    EngineQuery::DurabilityStats,
    EngineQuery::OverloadStats,
];

#[derive(Debug)]
struct Args {
    server: Option<PathBuf>,
    workloads: Vec<&'static Workload>,
    seed: u64,
    instance_seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        server: None,
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        instance_seed: 1,
        seconds: 15.0,
        trace: false,
        runs: 1,
        smoke: false,
        out_dir: PathBuf::from("igepa-benchmark/out"),
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => args.server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                let found =
                    workload::workload(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![found];
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--instance-seed" => {
                args.instance_seed = value()?
                    .parse()
                    .map_err(|_| "--instance-seed needs an integer")?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| "--runs needs an integer")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalog = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|json| Catalog::parse(&json))
    {
        Ok(catalog) => catalog,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return compare(&catalog, base, new);
    }
    let Some(server) = args.server.clone().filter(|p| p.is_file()) else {
        eprintln!("--server must name the igepa-experiments executable\n\n{USAGE}");
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("{}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let reported = catalog.reported(args.trace);
    let mut runs = Vec::with_capacity(args.runs);
    for _ in 0..args.runs {
        let mut reports = Vec::new();
        for workload in &args.workloads {
            let report = run_workload(&args, &server, workload, reported);
            print!("{}", report.render());
            reports.push(report);
        }
        runs.push(reports);
    }

    let info = results::RunInfo {
        seed: args.seed,
        instance_seed: args.instance_seed,
        seconds: args.seconds,
        trace: args.trace,
        workloads: args.workloads.iter().map(|w| w.name.to_string()).collect(),
    };
    let results_path = args.out_dir.join("results.json");
    let results = results::results_json(&info, args.smoke, &runs);
    if let Err(e) = std::fs::write(&results_path, results) {
        eprintln!("{}: {e}", results_path.display());
    }
    let all_passed = runs.iter().flatten().all(|r| r.correct() && r.failed == 0);
    match runs.as_slice() {
        [only] if only.len() == 1 => println!("{}", only[0].contract_line(reported)),
        _ => println!(
            "results in {}: {}",
            results_path.display(),
            if all_passed {
                "every check passed"
            } else {
                "CHECKS FAILED"
            }
        ),
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(catalog: &Catalog, base: &str, new: &str) -> ExitCode {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let outcome = (|| results::compare(catalog, base, &read(base)?, new, &read(new)?))();
    match outcome {
        Ok((table, ok)) => {
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("refusing to compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload (untraced, and with `--trace` also traced plus the
/// in-process replay and the restarts on its log) and scores it; checks
/// that every metric of `reported` was measured.
fn run_workload(
    args: &Args,
    exe: &Path,
    workload: &'static Workload,
    reported: &[MetricSpec],
) -> WorkloadReport {
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let timing = Timing {
        warmup: WARMUP_SECONDS / divisor as f64,
        measured: args.seconds / divisor as f64,
        count_divisor: divisor,
    };
    let inputs = workload::build_inputs(workload, args.instance_seed, args.seed, timing);
    let mut report = WorkloadReport {
        workload: workload.name,
        seed: args.seed,
        ..WorkloadReport::default()
    };
    let scratch = |what: &str| {
        args.out_dir
            .join(format!("{what}-{}-{}", workload.name, std::process::id()))
    };
    let config = ServerConfig {
        exe: exe.to_path_buf(),
        seed: args.instance_seed,
        scale: workload.scale,
        wal: workload.wal.then(|| scratch("wal")),
    };
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };
    let restart = workload.restart && !args.trace;

    let outcome = (|| -> Result<(), String> {
        let mut untraced = serve(&config, &inputs, setups, false, restart)?;
        let served = score(&mut report, workload, &inputs, &untraced);
        untraced.drop_frames();
        if args.trace {
            let mut traced = serve(&config, &inputs, 1, true, false)?;
            let client = client_spans(&traced);
            let mut scratch_report = WorkloadReport::default();
            let traced_served = score(&mut scratch_report, workload, &inputs, &traced);
            traced.drop_frames();
            report.attempted += scratch_report.attempted;
            report.failed += scratch_report.failed;
            report.check(
                "traced run served the same utility",
                same_bits(traced_served, served, "traced", "untraced"),
            );
            let settings = ExperimentSettings {
                base_seed: args.instance_seed,
                scale: workload.scale,
                ..ExperimentSettings::default()
            };
            let replay_wal = scratch("replay-wal");
            server::fresh_dir(&replay_wal)?;
            let replayed =
                trace::replay(&inputs, &settings, &closing_requests(), &replay_wal).map(|replay| {
                    let restarts = restart_on_log(&config, &replay_wal, replay.final_utility);
                    (replay, restarts)
                });
            let _ = std::fs::remove_dir_all(&replay_wal);
            let (replay, restarts) = replayed?;
            report.check(
                "in-process replay reproduced the served utility",
                same_bits(Some(replay.final_utility), served, "replayed", "served"),
            );
            report.attempted += RECOVERIES as u64;
            report.failed += u64::from(restarts.is_err());
            report.metric(
                "recovery_s",
                "s",
                restarts.as_ref().ok().and_then(|times| median(times)),
                RECOVERIES,
            );
            report.check(
                "a server restarted on the replayed log restored its exact state",
                restarts.map(|_| ()),
            );
            layer_metrics(&mut report, workload, &untraced, &traced, &replay);
            let path = args.out_dir.join(format!("trace-{}.json", workload.name));
            std::fs::write(&path, trace_file(workload, args.seed, &client, &replay))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    })();
    if let Some(dir) = &config.wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    report.check("run completed", outcome);
    if !args.smoke {
        report.check_reported(reported);
    }
    report.attempted = report.attempted.max(1);
    report.metric(
        "failed_frac",
        "ratio",
        Some(report.failed as f64 / report.attempted as f64),
        report.attempted as usize,
    );
    report
}

fn closing_requests() -> Vec<EngineRequest> {
    CLOSING
        .iter()
        .map(|&query| EngineRequest::Query { query })
        .collect()
}

fn same_bits(a: Option<f64>, b: Option<f64>, a_name: &str, b_name: &str) -> Result<(), String> {
    match (a, b) {
        (Some(a), Some(b)) if a.to_bits() == b.to_bits() => Ok(()),
        _ => Err(format!("{a_name} utility {a:?} != {b_name} utility {b:?}")),
    }
}

/// What one server run observed.
struct Pass {
    setup_s: Vec<f64>,
    /// Per open-loop phase: the writer's and the reader's exchange.
    open: Vec<(Phase, Exchange, Exchange)>,
    /// One exchange per slice of [`saturation_split`].
    saturation: Vec<Exchange>,
    saturation_elapsed: Duration,
    closing: Vec<Result<EngineResponse, String>>,
    peak_rss_mb: Result<f64, String>,
    restart: Option<Restart>,
}

impl Pass {
    /// Frees the response frames once the pass is scored; latencies stay.
    fn drop_frames(&mut self) {
        let exchanges = self.open.iter_mut().flat_map(|(_, w, r)| [w, r]);
        for exchange in exchanges.chain(self.saturation.iter_mut()) {
            exchange.frames = Vec::new();
        }
    }
}

/// The `kill -9` and restart drill.
struct Restart {
    utility: f64,
    snapshot: Result<EngineResponse, String>,
}

/// Starts the server (at least `setups` times, keeping the last), drives every
/// phase, sends the closing queries and, with `restart`, runs the crash
/// drill. The server is killed when this returns.
fn serve(
    config: &ServerConfig,
    inputs: &Inputs,
    setups: usize,
    traced: bool,
    restart: bool,
) -> Result<Pass, String> {
    let mut setup_s: Vec<f64> = Vec::with_capacity(setups);
    let mut server: Option<Server> = None;
    while setup_s.len() < setups || (setups > 1 && setup_s.iter().sum::<f64>() < SETUP_SECONDS) {
        drop(server.take());
        if let Some(dir) = &config.wal {
            server::fresh_dir(dir)?;
        }
        let started = Server::start(config)?;
        setup_s.push(started.ready_s);
        server = Some(started);
    }
    let server = server.ok_or("no server was started")?;
    // Disjoint correlation-id ranges, so a request id names one request
    // of the run (and one root span of the trace).
    let mut writer = Conn::connect(&server.addr, 1).map_err(|e| format!("connect: {e}"))?;
    let mut reader = Conn::connect(&server.addr, 1 << 32).map_err(|e| format!("connect: {e}"))?;

    let mut open = Vec::with_capacity(inputs.open_loop.len());
    for plan in &inputs.open_loop {
        let start = Instant::now() + Duration::from_millis(2);
        let (writes, reads) = std::thread::scope(|scope| {
            let writes =
                scope.spawn(|| loadgen::open_loop(&mut writer, &plan.writes, start, traced));
            let reads = loadgen::open_loop(&mut reader, &plan.reads, start, traced);
            (writes.join().expect("writer thread panicked"), reads)
        });
        open.push((plan.phase, writes, reads));
    }
    let (saturation, saturation_elapsed) = match saturation_split(inputs)[..] {
        [writes] => {
            let (exchange, elapsed) = loadgen::pipelined(&mut writer, writes, SATURATION_WINDOW);
            (vec![exchange], elapsed)
        }
        [first, second] => std::thread::scope(|scope| {
            let first = scope.spawn(|| loadgen::pipelined(&mut writer, first, SATURATION_WINDOW));
            let (second, elapsed) = loadgen::pipelined(&mut reader, second, SATURATION_WINDOW);
            let (first, first_elapsed) = first.join().expect("saturation thread panicked");
            (vec![first, second], elapsed.max(first_elapsed))
        }),
        _ => unreachable!("saturation runs on one or two connections"),
    };
    let closing = CLOSING.iter().map(|&query| reader.query(query)).collect();
    let peak_rss_mb = server.peak_rss_mb();

    let restart = if restart {
        drop((writer, reader));
        drop(server);
        let again = Server::start(config)?;
        let mut conn = Conn::connect(&again.addr, 1).map_err(|e| format!("connect: {e}"))?;
        Some(Restart {
            utility: again.first_utility,
            snapshot: conn.query(EngineQuery::MergedSnapshot),
        })
    } else {
        None
    };
    Ok(Pass {
        setup_s,
        open,
        saturation,
        saturation_elapsed,
        closing,
        peak_rss_mb,
        restart,
    })
}

/// The saturation requests per connection: writes all go on the writer
/// connection, so their order (and the final state) is deterministic;
/// reads are split over both connections, whose answers are independent.
fn saturation_split(inputs: &Inputs) -> Vec<&[EngineRequest]> {
    let requests = inputs.saturation.1.as_slice();
    match inputs.saturation.0 {
        SaturationOp::Writes => vec![requests],
        SaturationOp::Reads => {
            let (first, second) = requests.split_at(requests.len() / 2);
            vec![first, second]
        }
    }
}

/// Starts the server [`RECOVERIES`] times on the log the in-process
/// replay wrote, which holds every write of the run and no snapshot, so
/// each start replays the whole log before it answers. Returns each
/// start's time from spawn to its first answer, once every restarted
/// server served a snapshot worth the replay's exact `utility`.
fn restart_on_log(config: &ServerConfig, wal: &Path, utility: f64) -> Result<Vec<f64>, String> {
    let config = ServerConfig {
        wal: Some(wal.to_path_buf()),
        ..config.clone()
    };
    (0..RECOVERIES)
        .map(|_| {
            let server = Server::start(&config)?;
            let mut conn = Conn::connect(&server.addr, 1).map_err(|e| format!("connect: {e}"))?;
            let snapshot = conn.query(EngineQuery::MergedSnapshot)?;
            let restored = snapshot_of(&snapshot).map(|s| s.utility);
            same_bits(restored, Some(utility), "restored", "replayed")?;
            Ok(server.ready_s)
        })
        .collect()
}

/// Checks one answered request: it must decode, carry no error, and be
/// the right response variant (`Applied` for every write).
fn classify(request: &EngineRequest, frame: Option<&String>) -> Result<EngineResponse, String> {
    let frame = frame.ok_or("no response")?;
    let (_, result) = wire::decode(frame)?;
    let response = result.map_err(|e| format!("server error: {e}"))?;
    let fits = match (request, &response) {
        (EngineRequest::Apply { .. }, EngineResponse::Applied { .. }) => true,
        (EngineRequest::Query { query }, response) => matches!(
            (query, response),
            (EngineQuery::Utility, EngineResponse::Utility { .. })
                | (
                    EngineQuery::AssignmentsOf { .. },
                    EngineResponse::Assignments { .. }
                )
                | (
                    EngineQuery::EventLoad { .. },
                    EngineResponse::EventLoad { .. }
                )
                | (EngineQuery::MergedSnapshot, EngineResponse::Snapshot { .. })
        ),
        _ => false,
    };
    if fits {
        Ok(response)
    } else {
        Err(format!("{request:?} answered {response:?}"))
    }
}

fn snapshot_of(response: &EngineResponse) -> Option<Snapshot> {
    match response {
        EngineResponse::Snapshot {
            num_events,
            num_users,
            utility,
            pairs,
        } => Some(Snapshot {
            num_events: *num_events,
            num_users: *num_users,
            utility: *utility,
            pairs: pairs.clone(),
        }),
        _ => None,
    }
}

/// Per-kind latencies (µs) of one exchange's answered, correct requests.
#[derive(Default)]
struct Latencies {
    apply: Vec<f64>,
    read: Vec<f64>,
    snapshot: Vec<f64>,
}

impl Latencies {
    fn of(&mut self, kind: Kind) -> &mut Vec<f64> {
        match kind {
            Kind::Apply => &mut self.apply,
            Kind::Read => &mut self.read,
            Kind::Snapshot => &mut self.snapshot,
        }
    }
}

/// Scores one pass into `report` (counts, checks and metrics) and returns
/// the exact utility of the served arrangement.
fn score(
    report: &mut WorkloadReport,
    workload: &Workload,
    inputs: &Inputs,
    pass: &Pass,
) -> Option<f64> {
    let mut first_failure: Option<String> = None;
    let mut fail = |report: &mut WorkloadReport, why: String| {
        report.failed += 1;
        first_failure.get_or_insert(why);
    };
    report.attempted += pass.setup_s.len() as u64;

    let mut measured = Latencies::default();
    let mut lags = Vec::new();
    let (mut applied, mut untouched) = (0usize, 0usize);
    // (measured window?, saturation?, exchange, its requests)
    let saturation = pass
        .saturation
        .iter()
        .zip(saturation_split(inputs))
        .map(|(exchange, requests)| (false, true, exchange, requests.iter().collect::<Vec<_>>()));
    let exchanges = pass
        .open
        .iter()
        .zip(&inputs.open_loop)
        .flat_map(|((phase, w, r), plan)| {
            let measured = *phase == Phase::Measured;
            [
                (
                    measured,
                    false,
                    w,
                    plan.writes.iter().map(|(_, q)| q).collect::<Vec<_>>(),
                ),
                (
                    measured,
                    false,
                    r,
                    plan.reads.iter().map(|(_, q)| q).collect(),
                ),
            ]
        })
        .chain(saturation);
    let mut saturation_ok = 0usize;
    for (is_measured, is_saturation, exchange, requests) in exchanges {
        report.attempted += requests.len() as u64;
        for _ in 0..exchange.stray_frames {
            fail(report, "a duplicate or unknown response id".to_string());
        }
        if let Some(e) = &exchange.transport_error {
            fail(report, e.clone());
        }
        if is_measured {
            lags.extend_from_slice(&exchange.lag_us);
        }
        for (i, request) in requests.iter().enumerate() {
            match classify(request, exchange.frames[i].as_ref()) {
                Ok(response) => {
                    if let EngineResponse::Applied { repair, .. } = &response {
                        applied += 1;
                        untouched += usize::from(*repair == RepairKind::Untouched);
                    }
                    if is_measured {
                        if let Some(latency) = exchange.latency_us(i) {
                            measured.of(Kind::of(request)).push(latency);
                        }
                    }
                    saturation_ok += usize::from(is_saturation);
                }
                Err(why) => fail(report, why),
            }
        }
    }

    report.attempted += pass.closing.len() as u64;
    let mut closing = Vec::new();
    for (query, answer) in CLOSING.iter().zip(&pass.closing) {
        match answer {
            Ok(response) => closing.push(Some(response.clone())),
            Err(why) => {
                fail(report, format!("{query:?}: {why}"));
                closing.push(None);
            }
        }
    }
    report.check(
        "every request answered correctly",
        first_failure.take().map_or(Ok(()), Err),
    );

    // End-to-end metrics.
    report.metric("setup_s", "s", median(&pass.setup_s), pass.setup_s.len());
    let writes = &measured.apply;
    let reads: Vec<f64> = measured
        .read
        .iter()
        .chain(&measured.snapshot)
        .copied()
        .collect();
    report.metric("apply_p50_us", "us", percentile(writes, 500), writes.len());
    report.metric("apply_p99_us", "us", percentile(writes, 990), writes.len());
    report.metric("read_p50_us", "us", percentile(&reads, 500), reads.len());
    report.metric("read_p99_us", "us", percentile(&reads, 990), reads.len());
    report.metric(
        "throughput_rps",
        "1/s",
        Some(saturation_ok as f64 / pass.saturation_elapsed.as_secs_f64()),
        saturation_ok,
    );
    report.metric(
        "server_rss_mb",
        "MB",
        pass.peak_rss_mb.as_ref().ok().copied(),
        1,
    );
    report.metric(
        "loadgen.send_lag_p99_us",
        "us",
        percentile(&lags, 990),
        lags.len(),
    );
    report.check(
        "open-loop send lag p99 under 1 ms",
        match percentile(&lags, 990) {
            Some(lag) if lag >= 1_000.0 => Err(format!(
                "send lag p99 is {lag:.0} us: the load generator fell behind"
            )),
            _ => Ok(()),
        },
    );
    report.metric("apply_mean_us", "us", mean(writes), writes.len());
    let plain_reads = &measured.read;
    report.metric("read_mean_us", "us", mean(plain_reads), plain_reads.len());

    // Layer counts from the server's own answers.
    report.metric(
        "shard.untouched_frac",
        "ratio",
        (applied > 0).then(|| untouched as f64 / applied as f64),
        applied,
    );
    let served_utility = match closing[0] {
        Some(EngineResponse::Utility { total, .. }) => Some(total),
        _ => None,
    };
    if let Some(EngineResponse::Stats { stats }) = &closing[2] {
        for (name, value) in [
            ("shard.staleness_checks", stats.staleness_checks),
            ("shard.greedy_patches", stats.greedy_patches),
            ("shard.full_resolves", stats.full_resolves),
            ("shard.staleness_resolves", stats.staleness_resolves),
            ("coordinator.quota_updates", stats.quota_updates),
        ] {
            report.metric(name, "count", Some(value as f64), 1);
        }
    }
    if let Some(EngineResponse::OverloadStats { stats }) = &closing[5] {
        report.metric(
            "transport.queue_high_water",
            "count",
            Some(stats.high_water as f64),
            1,
        );
    }
    let deltas = inputs.deltas();
    if workload.wal {
        report.check(
            "every write was logged before its ack",
            match &closing[4] {
                Some(EngineResponse::DurabilityStats { wal_records, .. })
                    if *wal_records == deltas.len() as u64 =>
                {
                    Ok(())
                }
                other => Err(format!(
                    "{} writes, durability stats {other:?}",
                    deltas.len()
                )),
            },
        );
    }

    // Correctness of the served arrangement against the mirror.
    let mut mirror = inputs.base.clone();
    let mirrored = deltas.iter().try_for_each(|delta| {
        mirror
            .apply_delta(delta, &NeverConflict, &ConstantInterest(0.5))
            .map(|_| ())
            .map_err(|e| format!("the mirror rejected {delta:?}: {e}"))
    });
    let snapshot = closing[1].as_ref().and_then(snapshot_of);
    report.check(
        "served snapshot is feasible and worth its utility bit for bit",
        mirrored.and_then(|()| match (&snapshot, served_utility) {
            (Some(snapshot), Some(utility)) => verify::check_snapshot(&mirror, snapshot, utility),
            _ => Err("no snapshot or utility answer".to_string()),
        }),
    );
    if let (Some(EngineResponse::ShardStats { shards }), Some(snapshot)) = (&closing[3], &snapshot)
    {
        let pairs: usize = shards.iter().map(|s| s.pairs).sum();
        report.check(
            "shard stats agree with the snapshot",
            if pairs == snapshot.pairs.len() {
                Ok(())
            } else {
                Err(format!(
                    "shards serve {pairs} pairs, the snapshot {}",
                    snapshot.pairs.len()
                ))
            },
        );
    }
    // The snapshot carries the exact merged utility; `Utility` adds the
    // shard totals in floating point, so only the former can be compared
    // bit for bit with the in-process replay.
    let exact_utility = snapshot.as_ref().map(|s| s.utility);
    if let Some(served) = exact_utility {
        let cold = GreedyArrangement
            .run_seeded(&mirror, inputs.instance_seed)
            .utility_value(&mirror);
        report.metric("utility_ratio", "ratio", Some(served / cold), 1);
    }

    if let Some(restart) = &pass.restart {
        report.attempted += 2;
        let recovered = restart.snapshot.as_ref().ok().and_then(snapshot_of);
        report.check(
            "restart on the WAL restored the exact state",
            same_bits(
                Some(restart.utility),
                served_utility,
                "recovered",
                "pre-kill",
            )
            .and_then(|()| {
                if recovered.is_some() && recovered == snapshot {
                    Ok(())
                } else {
                    Err("the recovered snapshot differs from the pre-kill one".to_string())
                }
            }),
        );
    }
    exact_utility
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    report: &mut WorkloadReport,
    workload: &Workload,
    untraced: &Pass,
    traced: &Pass,
    replay: &trace::Replay,
) {
    let samples = &replay.samples;
    let p50 = |layer, kind| percentile(samples.get(layer, kind), 500);
    let n = |layer, kind| samples.get(layer, kind).len();
    for kind in [Kind::Apply, Kind::Read, Kind::Snapshot] {
        let k = kind.label();
        for (layer, metric) in [
            ("protocol.encode_request", "protocol.encode_request_us"),
            ("protocol.decode_request", "protocol.decode_request_us"),
            ("protocol.encode_response", "protocol.encode_response_us"),
            ("protocol.decode_response", "protocol.decode_response_us"),
            ("transport.frame_write", "transport.frame_write_us"),
            ("transport.frame_read", "transport.frame_read_us"),
        ] {
            report.metric(
                format!("{metric}.{k}"),
                "us",
                p50(layer, kind),
                n(layer, kind),
            );
        }
        for direction in ["request", "response"] {
            let bytes = samples
                .bytes
                .get(&(direction, kind))
                .map_or(&[][..], Vec::as_slice);
            report.metric(
                format!("transport.{direction}_bytes.{k}"),
                "bytes",
                mean(bytes),
                bytes.len(),
            );
        }
    }
    let apply = Kind::Apply;
    let appends = samples.get("durability.append", apply);
    report.metric(
        "durability.append_us.p50",
        "us",
        percentile(appends, 500),
        appends.len(),
    );
    report.metric(
        "durability.append_us.p99",
        "us",
        percentile(appends, 990),
        appends.len(),
    );
    let records = replay.wal_records as usize;
    report.metric(
        "durability.bytes_per_write",
        "bytes",
        Some(replay.wal_bytes_per_record),
        records,
    );
    report.metric(
        "durability.fsyncs_per_write",
        "ratio",
        Some(replay.wal_fsyncs_per_record),
        records,
    );
    report.metric(
        "durability.replay_us_per_record",
        "us",
        Some(replay.replay_us_per_record),
        records,
    );
    report.metric(
        "coordinator.validate_us",
        "us",
        p50("coordinator.validate", apply),
        n("coordinator.validate", apply),
    );
    let applies = samples.get("coordinator.apply", apply);
    report.metric(
        "coordinator.apply_us.p50",
        "us",
        percentile(applies, 500),
        applies.len(),
    );
    report.metric(
        "coordinator.apply_us.p99",
        "us",
        percentile(applies, 990),
        applies.len(),
    );
    report.metric(
        "catalog.announce_us",
        "us",
        p50("catalog.announce", apply),
        n("catalog.announce", apply),
    );
    report.metric(
        "coordinator.broadcast_us",
        "us",
        p50("coordinator.broadcast", apply),
        n("coordinator.broadcast", apply),
    );
    report.metric(
        "service.query_us",
        "us",
        p50("service.query", Kind::Read),
        n("service.query", Kind::Read),
    );
    report.metric(
        "service.query_us.snapshot",
        "us",
        p50("service.query", Kind::Snapshot),
        n("service.query", Kind::Snapshot),
    );
    let stale = &replay.staleness_apply_us;
    report.metric("shard.staleness_check_us", "us", mean(stale), stale.len());
    report.metric(
        "shard.staleness_time_share",
        "ratio",
        Some(stale.iter().sum::<f64>() / replay.apply_total_us.max(f64::MIN_POSITIVE)),
        applies.len(),
    );

    // What the layers leave unexplained: sockets, dispatch queue, worker
    // hand-off, view shipping and the server's read cache.
    let layer_mean = |layer, kind| mean(samples.get(layer, kind)).unwrap_or(0.0);
    let server_path = |kind: Kind| {
        let handle = if kind == Kind::Apply {
            "coordinator.apply"
        } else {
            "service.query"
        };
        let mut sum: f64 = [
            "protocol.encode_request",
            "protocol.decode_request",
            handle,
            "protocol.encode_response",
            "protocol.decode_response",
        ]
        .iter()
        .map(|layer| layer_mean(layer, kind))
        .sum();
        // Two frames per request: the request and its response.
        sum += 2.0
            * (layer_mean("transport.frame_write", kind)
                + layer_mean("transport.frame_read", kind));
        if kind == Kind::Apply && workload.wal {
            sum += layer_mean("durability.append", kind);
        }
        sum
    };
    for (kind, e2e, residual) in [
        (apply, "apply_mean_us", "transport.residual_apply_us"),
        (Kind::Read, "read_mean_us", "transport.residual_read_us"),
    ] {
        let e2e = report.metrics.get(e2e).map(|m| m.value);
        report.metric(residual, "us", e2e.map(|e2e| e2e - server_path(kind)), 1);
    }
    if let (Some(t), Some(u)) = (measured_apply_p50(traced), measured_apply_p50(untraced)) {
        report.metric("trace.overhead_ratio", "ratio", Some(t / u), 1);
    }
}

fn measured_apply_p50(pass: &Pass) -> Option<f64> {
    let (_, writes, _) = pass
        .open
        .iter()
        .find(|(phase, _, _)| *phase == Phase::Measured)?;
    let latencies: Vec<f64> = (0..writes.arrival_ns.len())
        .filter_map(|i| writes.latency_us(i))
        .collect();
    percentile(&latencies, 500)
}

/// Client spans of every k-th request of a traced pass's measured phase:
/// the request (due time to arrival) with its encode, write and wait;
/// decoding ran after the phase, so `client.decode` is a root of its own.
fn client_spans(traced: &Pass) -> trace::Tracer {
    let mut client = trace::Tracer::new();
    let Some((_, writes, reads)) = traced
        .open
        .iter()
        .find(|(phase, _, _)| *phase == Phase::Measured)
    else {
        return client;
    };
    let requests = (writes.client.len() + reads.client.len()) as u64;
    let stride = requests.div_ceil(trace::TRACED_REQUESTS).max(1) as usize;
    for exchange in [writes, reads] {
        for (i, times) in exchange.client.iter().enumerate().step_by(stride) {
            let (Some(arrival), Some(frame)) = (exchange.arrival_ns[i], &exchange.frames[i]) else {
                continue;
            };
            let id = exchange.first_id + i as u64;
            let root = client.record("client.request", id, None, exchange.due_ns[i], arrival);
            let steps = [
                ("client.encode", times.encode_start, times.encode_end),
                ("client.write", times.encode_end, times.write_end),
                ("client.wait", times.write_end, arrival),
            ];
            for (name, start, end) in steps {
                client.record(name, id, Some(root), start, end);
            }
            let start = Instant::now();
            let _ = wire::decode(frame);
            let took = start.elapsed().as_nanos() as u64;
            client.record("client.decode", id, None, arrival, arrival + took);
        }
    }
    client
}

/// The trace file: a per-span-name summary of the replay's kept spans,
/// those spans, and the traced pass's client spans.
fn trace_file(
    workload: &Workload,
    seed: u64,
    client: &trace::Tracer,
    replay: &trace::Replay,
) -> String {
    let self_ns = trace::self_times_ns(&replay.tracer.spans);
    let mut by_name: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> = Default::default();
    for (span, self_time) in replay.tracer.spans.iter().zip(&self_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push((span.end_ns - span.start_ns) as f64 / 1e3);
        entry.1.push(*self_time as f64 / 1e3);
    }
    let layers: Vec<String> = by_name
        .iter()
        .map(|(name, (durations, self_times))| {
            format!(
                "\"{name}\":{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"self_mean_us\":{}}}",
                durations.len(),
                mean(durations).unwrap_or(0.0),
                percentile(durations, 500).map_or("null".to_string(), |v| v.to_string()),
                mean(self_times).unwrap_or(0.0),
            )
        })
        .collect();
    format!(
        "{{\"schema_version\":{},\"workload\":\"{}\",\"seed\":{seed},\"layers\":{{{}}},\
         \"replay_spans\":{},\"client_spans\":{}}}\n",
        results::SCHEMA_VERSION,
        workload.name,
        layers.join(","),
        trace::spans_json(&replay.tracer),
        trace::spans_json(client),
    )
}
