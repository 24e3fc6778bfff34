//! Command-line entry point of the experiment harness.
//!
//! ```text
//! igepa-experiments <command> [options]
//!
//! Commands:
//!   table1                 Table I default synthetic setting
//!   table2                 Table II (Meetup-SF simulator)
//!   figure1 --factor <f>   One subfigure of Fig. 1 (a..f, or names like "users")
//!   figure1-all            All six subfigures
//!   ratio                  Empirical approximation-ratio study
//!   ablations              α, β, LP backend, rounding and interaction ablations
//!   clustered              Paper roster on the community-structured workload
//!   scalability            Runtime vs |U| for LP-packing (both backends) and GG
//!   online                 Online-arrival study (online greedy / ranking vs offline)
//!   serve                  Serving study: warm-start engine vs cold re-solve on a delta trace
//!   overload               Loopback flood vs a bounded-admission, fault-injected server
//!   reshard                Live-reshard a running `serve --listen` server (--connect, --shards)
//!   recover <dir>          Rebuild a `serve --wal <dir>` server's state after a crash
//!   all                    Everything above, plus the qualitative shape checks
//!
//! Options:
//!   --reps <n>        repetitions per configuration (default 10)
//!   --paper-reps      use the paper's 50 repetitions
//!   --scale <x>       scale |V| and |U| by x (default 1.0; use e.g. 0.1 for a quick run)
//!   --seed <n>        base random seed
//!   --extensions      also run LocalSearch and Online-Greedy
//!   --exact-lp        force the exact simplex LP backend
//!   --csv-dir <dir>   also write CSV files into <dir>
//! ```

use igepa_algos::LpBackend;
use igepa_engine::FaultPlan;
use igepa_experiments::{
    check_sweep, check_table_ordering, check_users_sweep_convergence, parse_cli_options,
    parse_fsync_policy, run_all_figure1, run_alpha_ablation, run_backend_ablation,
    run_beta_ablation, run_clustered_table, run_connect_study, run_extension_ablation, run_figure1,
    run_grow_study, run_interaction_ablation, run_listen, run_loopback_study, run_online_study,
    run_overload_study, run_ratio_study, run_recover_study, run_reshard_command, run_scalability,
    run_serve_study, run_sharded_serve_study, run_table1, run_table2, CliOptions,
    ExperimentSettings, Figure1Factor, ShapeReport, SweepReport, TableReport,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let command = args[0].clone();
    let options = parse_cli_options(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        print_usage();
        std::process::exit(2);
    });

    let mut settings = ExperimentSettings::default();
    settings.repetitions = options.reps.unwrap_or(settings.repetitions);
    if options.paper_reps {
        settings.repetitions = 50;
    }
    settings.scale = options.scale.unwrap_or(settings.scale);
    settings.base_seed = options.seed.unwrap_or(settings.base_seed);
    settings.include_extensions = options.extensions;
    if options.exact_lp {
        settings.lp_backend = LpBackend::Simplex;
    }

    match command.as_str() {
        "table1" => emit_table(run_table1(&settings), &options),
        "table2" => emit_table(run_table2(&settings), &options),
        "figure1" => {
            let factor = options
                .factor
                .as_deref()
                .and_then(Figure1Factor::parse)
                .unwrap_or_else(|| {
                    eprintln!("--factor must be one of a..f, events, users, pcf, pdeg, event-capacity, user-capacity");
                    std::process::exit(2);
                });
            emit_sweep(run_figure1(factor, &settings), &options);
        }
        "figure1-all" => {
            for report in run_all_figure1(&settings) {
                emit_sweep(report, &options);
            }
        }
        "ratio" => {
            let report = run_ratio_study(&settings, 10);
            println!("{}", report.to_markdown());
        }
        "ablations" => {
            emit_sweep(run_alpha_ablation(&settings), &options);
            emit_sweep(run_beta_ablation(&settings), &options);
            emit_table(run_backend_ablation(&settings), &options);
            emit_table(run_extension_ablation(&settings), &options);
            for report in run_interaction_ablation(&settings) {
                emit_table(report, &options);
            }
        }
        "clustered" => emit_table(run_clustered_table(&settings), &options),
        "scalability" => emit_sweep(run_scalability(&settings), &options),
        "online" => emit_table(run_online_study(&settings), &options),
        "serve" => {
            let shards = options.shards.unwrap_or(1);
            if let Some(addr) = &options.connect {
                // Drive a server started elsewhere with `--listen`.
                let deltas = options.deltas.unwrap_or(500);
                let report = run_connect_study(&settings, addr, deltas, shards, options.churn);
                println!("{}", report.to_markdown());
            } else if let Some(addr) = &options.listen {
                if let Some(grow_to) = options.grow_to {
                    // Elastic smoke: loopback server + client with a live
                    // Reshard issued mid-trace; the server must not reject
                    // a single request and must exit feasible.
                    let deltas = options.deltas.unwrap_or(400);
                    let report = run_grow_study(
                        &settings,
                        addr,
                        deltas,
                        shards.max(1),
                        grow_to,
                        options.grow_at.unwrap_or(deltas / 2),
                        options.churn,
                    );
                    println!("{}", report.to_markdown());
                    if !report.passed() {
                        eprintln!(
                            "elastic smoke FAILED: expected zero rejections, a {} -> {} \
                             migration with balanced counters and a feasible exit",
                            shards.max(1),
                            grow_to
                        );
                        std::process::exit(1);
                    }
                } else if let Some(deltas) = options.deltas {
                    // Loopback smoke: server + client in this process,
                    // with a server-side feasibility check on shutdown.
                    let report =
                        run_loopback_study(&settings, addr, deltas, shards.max(1), options.churn);
                    println!("{}", report.to_markdown());
                    if report.merged_feasible != Some(true) {
                        eprintln!("merged arrangement is INFEASIBLE after the TCP smoke");
                        std::process::exit(1);
                    }
                    if report.rejected > 0 {
                        eprintln!(
                            "{} deltas rejected (trace must replay cleanly)",
                            report.rejected
                        );
                        std::process::exit(1);
                    }
                } else {
                    let policy = match options.fsync.as_deref() {
                        None => igepa_engine::DurabilityPolicy::Always,
                        Some(value) => parse_fsync_policy(value).unwrap_or_else(|| {
                            eprintln!("--fsync must be off, always, every=N or interval=MS");
                            std::process::exit(2);
                        }),
                    };
                    let wal = options
                        .wal
                        .as_deref()
                        .map(|dir| (std::path::Path::new(dir), policy));
                    run_listen(&settings, addr, shards.max(1), wal);
                }
            } else {
                let deltas = options.deltas.unwrap_or(10_000);
                if shards > 1 {
                    let report = run_sharded_serve_study(&settings, deltas, shards, options.churn);
                    println!("{}", report.to_markdown());
                    if !report.merged_feasible {
                        eprintln!("merged arrangement is INFEASIBLE");
                        std::process::exit(1);
                    }
                } else {
                    let report = run_serve_study(&settings, deltas);
                    println!("{}", report.to_markdown());
                }
            }
        }
        "overload" => {
            let shards = options.shards.unwrap_or(4).max(1);
            let deltas = options.deltas.unwrap_or(2_000);
            // Cap 2 stays far below the flood's burst rate on any
            // machine; a generous cap makes shedding a timing accident
            // (slow applies throttle the pipelined flooders, so the
            // dispatch queue only backs up during bursts).
            let cap = options.admission_cap.unwrap_or(2);
            let plan = match options.fault_plan.as_deref() {
                // Default: slow every apply by 1ms so a tiny cap
                // actually backs up — sheds are the point of the
                // study, not a lucky race.
                None => FaultPlan::parse("slow=1000,slow_ms=1").expect("default plan parses"),
                Some(spec) => FaultPlan::parse(spec).unwrap_or_else(|e| {
                    eprintln!("--fault-plan: {e}");
                    std::process::exit(2);
                }),
            };
            let report = run_overload_study(&settings, deltas, shards, cap, plan);
            println!("{}", report.to_markdown());
            if !report.passed() {
                eprintln!(
                    "overload study FAILED: expected typed sheds, zero reader errors, \
                     one response per request and a feasible exit"
                );
                std::process::exit(1);
            }
        }
        "reshard" => {
            let Some(addr) = options.connect.as_deref() else {
                eprintln!("usage: igepa-experiments reshard --connect <addr> --shards <n>");
                std::process::exit(2);
            };
            let Some(shards) = options.shards.filter(|&n| n > 0) else {
                eprintln!("reshard needs --shards <n> (the target shard count, > 0)");
                std::process::exit(2);
            };
            run_reshard_command(addr, shards);
        }
        "recover" => {
            let dir = options.positional.clone().or(options.wal.clone());
            let Some(dir) = dir else {
                eprintln!(
                    "usage: igepa-experiments recover <dir> [--shards n] [--seed n] [--scale x]"
                );
                std::process::exit(2);
            };
            let shards = options.shards.unwrap_or(1).max(1);
            match run_recover_study(&settings, std::path::Path::new(&dir), shards) {
                Ok(report) => {
                    println!("{}", report.to_markdown());
                    if !report.passed() {
                        eprintln!("recovered state FAILED its integrity checks");
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("recovery from {dir} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "all" => {
            let mut shape = ShapeReport::default();

            let table1 = run_table1(&settings);
            shape.checks.extend(check_table_ordering(&table1, 0.02));
            emit_table(table1, &options);

            for report in run_all_figure1(&settings) {
                let monotone = matches!(report.id.as_str(), "fig1a" | "fig1b" | "fig1e" | "fig1f");
                shape.checks.extend(check_sweep(&report, monotone, 0.02));
                if report.id == "fig1b" {
                    shape.checks.extend(check_users_sweep_convergence(&report));
                }
                emit_sweep(report, &options);
            }

            let table2 = run_table2(&settings);
            shape.checks.extend(check_table_ordering(&table2, 0.02));
            emit_table(table2, &options);

            println!("{}", run_ratio_study(&settings, 10).to_markdown());
            emit_sweep(run_alpha_ablation(&settings), &options);
            emit_sweep(run_beta_ablation(&settings), &options);
            emit_table(run_backend_ablation(&settings), &options);
            emit_table(run_extension_ablation(&settings), &options);
            for report in run_interaction_ablation(&settings) {
                emit_table(report, &options);
            }
            emit_table(run_clustered_table(&settings), &options);
            emit_sweep(run_scalability(&settings), &options);
            emit_table(run_online_study(&settings), &options);
            println!(
                "{}",
                run_serve_study(&settings, options.deltas.unwrap_or(2_000)).to_markdown()
            );

            println!("### Shape checks (qualitative claims of the paper)\n");
            println!("{}", shape.to_markdown());
            if shape.all_passed() {
                println!("\nall shape checks passed");
            } else {
                println!("\n{} shape check(s) FAILED", shape.failures());
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn emit_table(report: TableReport, options: &CliOptions) {
    println!("{}", report.to_markdown());
    write_csv(&report.id, &report.to_csv(), options);
}

fn emit_sweep(report: SweepReport, options: &CliOptions) {
    println!("{}", report.to_markdown());
    write_csv(&report.id, &report.to_csv(), options);
}

fn write_csv(id: &str, csv: &str, options: &CliOptions) {
    if let Some(dir) = &options.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("cannot write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

fn print_usage() {
    println!(
        "igepa-experiments — reproduce the tables and figures of the IGEPA paper\n\n\
         Usage: igepa-experiments <table1|table2|figure1|figure1-all|ratio|ablations|clustered|scalability|online|serve|overload|reshard|recover|all> [options]\n\n\
         Options:\n\
           --reps <n>       repetitions per configuration (default 10)\n\
           --paper-reps     use the paper's 50 repetitions\n\
           --scale <x>      scale |V| and |U| by x (default 1.0)\n\
           --seed <n>       base random seed\n\
           --factor <f>     subfigure for `figure1`: a..f, events, users, pcf, pdeg,\n\
                            event-capacity, user-capacity\n\
           --extensions     also run LocalSearch and Online-Greedy\n\
           --exact-lp       force the exact simplex LP backend\n\
           --csv-dir <dir>  also write CSV files into <dir>\n\
           --deltas <n>     trace length for `serve` (default 10000)\n\
           --shards <n>     shard count for `serve` (default 1: a one-shard\n\
                            ShardedEngine over the whole instance)\n\
           --churn          announcement-heavy trace for `serve` (event churn)\n\
           --listen <addr>  serve over TCP (with --deltas: in-process loopback\n\
                            smoke incl. feasibility check; without: serve forever)\n\
           --connect <addr> drive a --listen server from this process\n\
           --wal <dir>      with `serve --listen`: durable serving — write-ahead\n\
                            log + checkpoints in <dir>, auto-recovery on restart;\n\
                            `recover <dir>` rebuilds and verifies after a crash\n\
           --fsync <p>      WAL fsync policy: off, always (default), every=N,\n\
                            interval=MS\n\
           --admission-cap <n>  for `overload`: dispatch-queue cap; mutations\n\
                            beyond it are refused with a typed Overloaded error\n\
                            (default 2)\n\
           --fault-plan <s> for `overload`: deterministic fault spec, e.g.\n\
                            seed=7,slow=250,slow_ms=2,drop=50,walfail=40\n\
                            (default slow=1000,slow_ms=1)\n\
           --grow-to <n>    with `serve --listen`: elastic smoke — issue a live\n\
                            Reshard to <n> shards mid-trace; fails on any\n\
                            rejection or an infeasible exit\n\
           --grow-at <i>    delta index the mid-trace Reshard is issued at\n\
                            (default half the trace); `reshard --connect <addr>\n\
                            --shards <n>` live-reshards a running server"
    );
}
