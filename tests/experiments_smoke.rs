//! Smoke tests for the experiment harness: every table/figure entry point
//! runs end to end on scaled-down settings and produces well-formed reports.

use igepa::experiments::{
    parse_cli_options, run_figure1, run_ratio_study, run_table1, run_table2, ExperimentSettings,
    Figure1Factor,
};

fn smoke_settings() -> ExperimentSettings {
    ExperimentSettings {
        repetitions: 1,
        scale: 0.05,
        ..ExperimentSettings::quick()
    }
}

#[test]
fn table1_smoke() {
    let report = run_table1(&smoke_settings());
    assert_eq!(report.id, "table1");
    assert_eq!(report.results.len(), 4);
    let md = report.to_markdown();
    let csv = report.to_csv();
    for name in ["LP-packing", "GG", "Random-U", "Random-V"] {
        assert!(md.contains(name));
        assert!(csv.contains(name));
    }
}

#[test]
fn table2_smoke() {
    let report = run_table2(&smoke_settings());
    assert_eq!(report.id, "table2");
    assert_eq!(report.results.len(), 4);
    for result in &report.results {
        assert!(result.mean_utility > 0.0, "{} scored 0", result.algorithm);
        assert!(result.min_utility <= result.mean_utility + 1e-9);
        assert!(result.mean_utility <= result.max_utility + 1e-9);
    }
}

#[test]
fn figure1_subfigure_smoke() {
    // One cheap subfigure is enough to exercise the sweep plumbing; the
    // others share the exact same code path with different factors.
    let report = run_figure1(Figure1Factor::ConflictProbability, &smoke_settings());
    assert_eq!(report.id, "fig1c");
    assert_eq!(report.points.len(), 5);
    let csv = report.to_csv();
    assert_eq!(csv.trim().lines().count(), 1 + 5 * 4);
    // Sweep values must appear in the rendered output.
    let md = report.to_markdown();
    assert!(md.contains("0.1") && md.contains("0.5"));
}

#[test]
fn all_figure1_factors_are_runnable_metadata_wise() {
    // Full sweeps are exercised by the bench harness; here we only verify
    // the factor metadata produces valid configurations.
    for factor in Figure1Factor::all() {
        for value in factor.sweep_values() {
            let config = factor.apply(&igepa::datagen::SyntheticConfig::paper_default(), value);
            assert!(config.num_events > 0);
            assert!(config.num_users > 0);
            assert!(config.p_conflict >= 0.0 && config.p_conflict <= 1.0);
            assert!(config.p_friend >= 0.0 && config.p_friend <= 1.0);
        }
    }
}

#[test]
fn ratio_study_smoke_respects_theorem_two() {
    let settings = ExperimentSettings {
        repetitions: 3,
        ..ExperimentSettings::quick()
    };
    let report = run_ratio_study(&settings, 2);
    assert_eq!(report.theoretical_bound, 0.25);
    for result in &report.results {
        assert!(result.mean_ratio >= 0.25);
        assert!(result.mean_ratio <= 1.0 + 1e-9);
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn bad_numeric_flag_values_are_usage_errors() {
    // A present-but-unparsable value must be refused (the binary prints
    // the usage and exits 2), not replaced by the flag's default.
    for (flag, value) in [
        ("--shards", "two"),
        ("--scale", "1,5"),
        ("--seed", "-3"),
        ("--deltas", "1e3"),
        ("--reps", ""),
        ("--grow-at", "half"),
    ] {
        let err = parse_cli_options(&args(&["--listen", "127.0.0.1:0", flag, value]))
            .expect_err("an unparsable number must be a usage error");
        assert_eq!(err.flag, flag);
        assert_eq!(err.value, value);
        assert!(err.to_string().contains(flag));
    }

    // Well-formed values still parse, and an absent value keeps the
    // default.
    let options = parse_cli_options(&args(&[
        "--shards", "2", "--seed", "7", "--scale", "0.5", "--deltas",
    ]))
    .unwrap();
    assert_eq!(options.shards, Some(2));
    assert_eq!(options.seed, Some(7));
    assert_eq!(options.scale, Some(0.5));
    assert_eq!(options.deltas, None);
}
