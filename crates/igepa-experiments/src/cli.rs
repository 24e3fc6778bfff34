//! Option parsing for the `igepa-experiments` command line.
//!
//! Flags are parsed into [`CliOptions`] without interpreting them; the
//! binary decides what each command does with them. A flag whose value
//! is present but does not parse (`--shards two`, `--scale 1,5`) is a
//! [`UsageError`], never a silent fall-back to the default.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Every option the binary understands, as given on the command line.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CliOptions {
    /// `--reps <n>`: repetitions per configuration.
    pub reps: Option<usize>,
    /// `--paper-reps`: use the paper's 50 repetitions.
    pub paper_reps: bool,
    /// `--scale <x>`: scale |V| and |U| by x.
    pub scale: Option<f64>,
    /// `--seed <n>`: base random seed.
    pub seed: Option<u64>,
    /// `--extensions`: also run the extension algorithms.
    pub extensions: bool,
    /// `--exact-lp`: force the exact simplex LP backend.
    pub exact_lp: bool,
    /// `--factor <f>`: the Fig. 1 subfigure.
    pub factor: Option<String>,
    /// `--csv-dir <dir>`: also write CSV files here.
    pub csv_dir: Option<PathBuf>,
    /// `--deltas <n>`: trace length for `serve` / `overload`.
    pub deltas: Option<usize>,
    /// `--shards <n>`: shard count.
    pub shards: Option<usize>,
    /// `--listen <addr>`: serve over TCP.
    pub listen: Option<String>,
    /// `--connect <addr>`: drive a `--listen` server.
    pub connect: Option<String>,
    /// `--churn`: announcement-heavy trace.
    pub churn: bool,
    /// `--wal <dir>`: durability directory.
    pub wal: Option<String>,
    /// `--fsync <p>`: WAL fsync policy, parsed by the `serve` command.
    pub fsync: Option<String>,
    /// `--admission-cap <n>`: dispatch-queue cap for `overload`.
    pub admission_cap: Option<usize>,
    /// `--fault-plan <s>`: fault spec for `overload`.
    pub fault_plan: Option<String>,
    /// `--grow-to <n>`: live-reshard target of the elastic smoke.
    pub grow_to: Option<usize>,
    /// `--grow-at <i>`: delta index of the mid-trace reshard.
    pub grow_at: Option<usize>,
    /// First bare (non-`--`) argument after the command, e.g. the
    /// durability directory of `recover <dir>`.
    pub positional: Option<String>,
}

/// A numeric flag whose value does not parse as a number of its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag, e.g. `--shards`.
    pub flag: String,
    /// The value given for it.
    pub value: String,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: `{}` is not a valid number", self.flag, self.value)
    }
}

impl std::error::Error for UsageError {}

/// Parses the value of a numeric flag: absent stays `None`, present must
/// parse.
fn number<T: FromStr>(flag: &str, value: Option<&String>) -> Result<Option<T>, UsageError> {
    value
        .map(|v| {
            v.parse().map_err(|_| UsageError {
                flag: flag.to_string(),
                value: v.clone(),
            })
        })
        .transpose()
}

/// Parses the options following the command name. Unknown `--` flags are
/// reported on stderr and skipped.
pub fn parse_cli_options(args: &[String]) -> Result<CliOptions, UsageError> {
    let mut options = CliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                options.reps = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--paper-reps" => options.paper_reps = true,
            "--scale" => {
                options.scale = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--seed" => {
                options.seed = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--extensions" => options.extensions = true,
            "--exact-lp" => options.exact_lp = true,
            "--factor" => {
                options.factor = args.get(i + 1).cloned();
                i += 1;
            }
            "--csv-dir" => {
                options.csv_dir = args.get(i + 1).map(PathBuf::from);
                i += 1;
            }
            "--deltas" => {
                options.deltas = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--shards" => {
                options.shards = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--listen" => {
                options.listen = args.get(i + 1).cloned();
                i += 1;
            }
            "--churn" => options.churn = true,
            "--connect" => {
                options.connect = args.get(i + 1).cloned();
                i += 1;
            }
            "--wal" => {
                options.wal = args.get(i + 1).cloned();
                i += 1;
            }
            "--fsync" => {
                options.fsync = args.get(i + 1).cloned();
                i += 1;
            }
            "--admission-cap" => {
                options.admission_cap = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--fault-plan" => {
                options.fault_plan = args.get(i + 1).cloned();
                i += 1;
            }
            "--grow-to" => {
                options.grow_to = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            "--grow-at" => {
                options.grow_at = number(&args[i], args.get(i + 1))?;
                i += 1;
            }
            other => {
                if !other.starts_with("--") && options.positional.is_none() {
                    options.positional = Some(other.to_string());
                } else {
                    eprintln!("ignoring unknown option: {other}");
                }
            }
        }
        i += 1;
    }
    Ok(options)
}
