//! # igepa-experiments — reproduction harness for every table and figure
//!
//! One module per artefact of the paper's evaluation section:
//!
//! | Paper artefact | Module / entry point | CLI |
//! |---|---|---|
//! | Table I default synthetic setting | [`tables::run_table1`] | `igepa-experiments table1` |
//! | Fig. 1(a)–(f) parameter sweeps | [`figure1::run_figure1`] | `igepa-experiments figure1 --factor <a..f>` |
//! | Table II (Meetup-SF) | [`tables::run_table2`] | `igepa-experiments table2` |
//! | Theorem 2 empirical check (extension) | [`ratio::run_ratio_study`] | `igepa-experiments ratio` |
//!
//! Reports are produced as markdown (for EXPERIMENTS.md) and CSV (for
//! plotting), and the whole suite can be run with `igepa-experiments all`.
//!
//! ```
//! use igepa_experiments::{ExperimentSettings, run_table2};
//!
//! // A scaled-down Table II run (full scale takes a few minutes).
//! let settings = ExperimentSettings { repetitions: 1, scale: 0.05, ..ExperimentSettings::quick() };
//! let report = run_table2(&settings);
//! assert_eq!(report.results.len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod bundle;
pub mod cli;
pub mod figure1;
pub mod online;
pub mod ratio;
pub mod report;
pub mod scalability;
pub mod serve;
pub mod settings;
pub mod shape;
pub mod tables;

pub use ablation::{
    run_alpha_ablation, run_backend_ablation, run_beta_ablation, run_clustered_table,
    run_extension_ablation, run_interaction_ablation,
};
pub use bundle::ResultsBundle;
pub use cli::{parse_cli_options, CliOptions, UsageError};
pub use figure1::{run_all_figure1, run_figure1, Figure1Factor};
pub use online::run_online_study;
pub use ratio::{run_ratio_study, RatioReport, RatioResult};
pub use report::{AlgorithmResult, SweepPoint, SweepReport, TableReport};
pub use scalability::{run_scalability, DEFAULT_USER_COUNTS};
pub use serve::{
    parse_fsync_policy, recover_served_engine, run_connect_study, run_grow_study, run_listen,
    run_loopback_study, run_overload_study, run_recover_study, run_reshard_command,
    run_serve_study, run_sharded_serve_study, serving_engine, sharded_serving_engine,
    sharded_serving_engine_with_admission, tcp_server_engine, GrowReport, LoopbackReport,
    OverloadReport, RecoverReport, ServeReport, ShardedServeReport,
};
pub use settings::ExperimentSettings;
pub use shape::{
    check_sweep, check_table_ordering, check_users_sweep_convergence, ShapeCheck, ShapeReport,
};
pub use tables::{run_table1, run_table2, table1_workload_stats};
