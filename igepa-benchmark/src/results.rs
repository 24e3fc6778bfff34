//! Metric records, the results file, and `--compare`.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the results-file layout; `--compare` refuses files of
/// another version.
pub const SCHEMA_VERSION: i128 = 2;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// The outcome of one workload in one run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` the run used.
    pub seed: u64,
    /// Requests sent, in every phase.
    pub attempted: u64,
    /// Requests that failed: transport errors, missing or duplicate
    /// replies, error results and non-`Applied` writes.
    pub failed: u64,
    /// Every correctness check, with its failure message.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl WorkloadReport {
    /// Records a metric; `None` (too few samples) records nothing.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.metrics.insert(
                name.into(),
                Metric {
                    value,
                    unit,
                    samples,
                },
            );
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, outcome: Result<(), String>) {
        self.checks.push((name.into(), outcome));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, outcome)| outcome.is_ok())
    }

    /// Checks that every metric of `specs` was measured, in its unit.
    pub fn check_reported(&mut self, specs: &[MetricSpec]) {
        let wrong: Vec<String> = specs
            .iter()
            .filter_map(|spec| match self.metrics.get(&spec.name) {
                None => Some(format!("{} missing", spec.name)),
                Some(m) if m.unit != spec.unit => {
                    Some(format!("{} in {}, not {}", spec.name, m.unit, spec.unit))
                }
                Some(_) => None,
            })
            .collect();
        self.check(
            "every metric of BENCHMARK.json was measured in its unit",
            if wrong.is_empty() {
                Ok(())
            } else {
                Err(wrong.join("; "))
            },
        );
    }

    /// The contract line: `correct`, `attempted`, `failed`, and the
    /// metrics of `specs` that were measured.
    pub fn contract_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<(String, Value)> = specs
            .iter()
            .filter_map(|spec| {
                self.metrics.get(&spec.name).map(|m| {
                    (
                        spec.name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Float(m.value)),
                            ("unit".to_string(), Value::String(m.unit.to_string())),
                        ]),
                    )
                })
            })
            .collect();
        let line = Value::Object(vec![
            (
                "correct".to_string(),
                Value::Bool(self.correct() && self.failed == 0),
            ),
            ("attempted".to_string(), Value::Int(self.attempted.into())),
            ("failed".to_string(), Value::Int(self.failed.into())),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite metrics serialize")
    }

    /// Human-readable lines: every metric with unit and sample count, then
    /// every check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}): {} requests, {} failed",
            self.workload, self.seed, self.attempted, self.failed
        );
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "  {name:<40} {:>14.4} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        for (name, outcome) in &self.checks {
            match outcome {
                Ok(()) => {
                    let _ = writeln!(out, "  check {name}: ok");
                }
                Err(why) => {
                    let _ = writeln!(out, "  check {name}: FAILED: {why}");
                }
            }
        }
        out
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                        ("samples".to_string(), Value::Int(m.samples as i128)),
                    ]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(name, outcome)| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(name.clone())),
                    ("passed".to_string(), Value::Bool(outcome.is_ok())),
                    (
                        "detail".to_string(),
                        outcome
                            .as_ref()
                            .err()
                            .map_or(Value::Null, |e| Value::String(e.clone())),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "workload".to_string(),
                Value::String(self.workload.to_string()),
            ),
            ("seed".to_string(), Value::Int(self.seed.into())),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Int(self.attempted.into())),
            ("failed".to_string(), Value::Int(self.failed.into())),
            ("checks".to_string(), Value::Array(checks)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// The settings a results file was produced with; `--compare` compares
/// only files whose settings are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// `--seed` of every run.
    pub seed: u64,
    /// `--instance-seed` of every run.
    pub instance_seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Whether this was a `--trace` run.
    pub trace: bool,
    /// The workloads every run drove, in order.
    pub workloads: Vec<String>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_head() -> String {
    // Only the checkout's own repository: never one found in a parent.
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|head| head.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The results file of `runs` (each a list of workload reports).
pub fn results_json(info: &RunInfo, smoke: bool, runs: &[Vec<WorkloadReport>]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs = runs
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            Value::Object(vec![
                ("run".to_string(), Value::Int(i as i128)),
                (
                    "workloads".to_string(),
                    Value::Array(reports.iter().map(WorkloadReport::to_value).collect()),
                ),
            ])
        })
        .collect();
    let workloads = info
        .workloads
        .iter()
        .map(|name| Value::String(name.clone()))
        .collect();
    let doc = Value::Object(vec![
        ("schema_version".to_string(), Value::Int(SCHEMA_VERSION)),
        (
            "benchmark".to_string(),
            Value::String("igepa-benchmark".to_string()),
        ),
        ("smoke".to_string(), Value::Bool(smoke)),
        ("trace".to_string(), Value::Bool(info.trace)),
        ("seed".to_string(), Value::Int(info.seed.into())),
        (
            "instance_seed".to_string(),
            Value::Int(info.instance_seed.into()),
        ),
        ("seconds".to_string(), Value::Float(info.seconds)),
        ("workloads".to_string(), Value::Array(workloads)),
        ("nproc".to_string(), Value::Int(nproc as i128)),
        ("cpu_model".to_string(), Value::String(cpu_model())),
        ("git_head".to_string(), Value::String(git_head())),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    serde_json::to_string_pretty(&doc).expect("finite metrics serialize")
}

// ------------------------------------------------------------- compare

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: Option<&Value>) -> Option<f64> {
    match value? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn text(value: Option<&Value>) -> Option<&str> {
    match value? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn items(value: Option<&Value>) -> &[Value] {
    match value {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

fn uint(value: Option<&Value>) -> Option<u64> {
    match value? {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// A metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the metric is reported in.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base median by which an end-to-end metric may worsen;
    /// `None` for a per-layer metric.
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` defines. It is the one list of metric
/// names, units and end-to-end/per-layer split: runs check and print
/// against it, and `--compare` judges by it.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// End-to-end metrics, each with a bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, without bounds.
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    /// Reads the metrics of a `BENCHMARK.json`.
    pub fn parse(json: &str) -> Result<Catalog, String> {
        let doc: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            items(field(&doc, key))
                .iter()
                .map(|metric| {
                    let name = text(field(metric, "name"))
                        .ok_or(format!("a {key} metric without a name"))?;
                    let unit =
                        text(field(metric, "unit")).ok_or(format!("metric {name} has no unit"))?;
                    let higher_is_better = match text(field(metric, "better")) {
                        Some("higher") => true,
                        Some("lower") => false,
                        other => return Err(format!("metric {name}: better is {other:?}")),
                    };
                    let bound = number(field(metric, "bound"));
                    if bounded && bound.is_none() {
                        return Err(format!("end-to-end metric {name} has no bound"));
                    }
                    Ok(MetricSpec {
                        name: name.to_string(),
                        unit: unit.to_string(),
                        higher_is_better,
                        bound: bound.filter(|_| bounded),
                    })
                })
                .collect()
        };
        let catalog = Catalog {
            end_to_end: list("end_to_end", true)?,
            per_layer: list("per_layer", false)?,
        };
        if catalog.end_to_end.is_empty() {
            return Err("BENCHMARK.json lists no end-to-end metric".to_string());
        }
        Ok(catalog)
    }

    /// The metrics a run reports on its result line: the per-layer ones
    /// with `--trace 1`, the end-to-end ones otherwise.
    pub fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One results file: its settings, the per-(workload, metric) values
/// across its runs, and whether every run passed its checks without
/// failures.
struct Loaded {
    info: RunInfo,
    values: BTreeMap<(String, String), Vec<f64>>,
    all_passed: bool,
}

fn load(path: &str, contents: &str) -> Result<Loaded, String> {
    let doc: Value = serde_json::from_str(contents).map_err(|e| format!("{path}: {e}"))?;
    match number(field(&doc, "schema_version")) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        other => {
            return Err(format!(
                "{path}: results schema_version {other:?} is not {SCHEMA_VERSION}; \
                 re-run the benchmark with this version before comparing"
            ))
        }
    }
    if field(&doc, "smoke") == Some(&Value::Bool(true)) {
        return Err(format!(
            "{path}: smoke results are not comparable; run without --smoke"
        ));
    }
    let missing = |key: &str| format!("{path}: no {key}");
    let info = RunInfo {
        seed: uint(field(&doc, "seed")).ok_or_else(|| missing("seed"))?,
        instance_seed: uint(field(&doc, "instance_seed"))
            .ok_or_else(|| missing("instance_seed"))?,
        seconds: number(field(&doc, "seconds")).ok_or_else(|| missing("seconds"))?,
        trace: match field(&doc, "trace") {
            Some(Value::Bool(trace)) => *trace,
            _ => return Err(missing("trace")),
        },
        workloads: items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(Some(w)).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .filter(|names| !names.is_empty())
            .ok_or_else(|| missing("workloads"))?,
    };
    let mut loaded = Loaded {
        info,
        values: BTreeMap::new(),
        all_passed: true,
    };
    for run in items(field(&doc, "runs")) {
        for report in items(field(run, "workloads")) {
            let workload = text(field(report, "workload")).unwrap_or("?").to_string();
            loaded.all_passed &= field(report, "correct") == Some(&Value::Bool(true))
                && number(field(report, "failed")) == Some(0.0);
            if let Some(Value::Object(metrics)) = field(report, "metrics") {
                for (name, metric) in metrics {
                    if let Some(value) = number(field(metric, "value")) {
                        loaded
                            .values
                            .entry((workload.clone(), name.clone()))
                            .or_default()
                            .push(value);
                    }
                }
            }
        }
    }
    Ok(loaded)
}

/// The settings in which two results files differ.
fn differences(a: &RunInfo, b: &RunInfo) -> Vec<String> {
    let mut out = Vec::new();
    if a.seed != b.seed {
        out.push(format!("--seed {} vs {}", a.seed, b.seed));
    }
    if a.instance_seed != b.instance_seed {
        out.push(format!(
            "--instance-seed {} vs {}",
            a.instance_seed, b.instance_seed
        ));
    }
    if a.seconds != b.seconds {
        out.push(format!("--seconds {} vs {}", a.seconds, b.seconds));
    }
    if a.trace != b.trace {
        out.push(format!(
            "--trace {} vs {}",
            u8::from(a.trace),
            u8::from(b.trace)
        ));
    }
    if a.workloads != b.workloads {
        out.push(format!("workloads {:?} vs {:?}", a.workloads, b.workloads));
    }
    out
}

/// Verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new side wins at least 9 in 10 run pairs, and the medians
    /// differ by more than the base's quartile spread.
    Improved,
    /// Not worse than the base median by more than the bound.
    Unchanged,
    /// Worse than the base median by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so "unchanged" cannot be
    /// claimed, and not every new run beats every base run.
    Unresolved,
    /// Not improved, and without a bound nothing more can be said.
    NoBound,
}

/// Judges one row by the choosing-metrics rules (§6.5 and §8).
pub fn verdict(base: &[f64], new: &[f64], spec: &MetricSpec) -> Option<Verdict> {
    let (base_median, new_median) = (median(base)?, median(new)?);
    let better = |a: f64, b: f64| if spec.higher_is_better { a > b } else { a < b };
    let spread = |values: &[f64], mid: f64| {
        quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE))
    };
    let base_iqr = quartiles(base).map_or(0.0, |(q1, q3)| q3 - q1);
    let pairs = (base.len() * new.len()) as f64;
    let wins = base
        .iter()
        .flat_map(|b| new.iter().map(move |n| (*b, *n)))
        .filter(|&(b, n)| better(n, b))
        .count() as f64;
    if wins >= 0.9 * pairs && (new_median - base_median).abs() > base_iqr {
        return Some(Verdict::Improved);
    }
    let Some(limit) = spec.bound else {
        return Some(Verdict::NoBound);
    };
    let every_new_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    if spread(base, base_median).max(spread(new, new_median)) > limit && !every_new_better {
        return Some(Verdict::Unresolved);
    }
    let worse_by = if spec.higher_is_better {
        (base_median - new_median) / base_median.abs()
    } else {
        (new_median - base_median) / base_median.abs()
    };
    Some(if worse_by > limit {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    })
}

/// Compares two results files made with the same settings, one row per
/// (workload, metric of the catalogue) the base file reports; returns the
/// table and whether the new side may land: no row worse, none missing
/// from the new file, every check passed on both sides.
pub fn compare(
    catalog: &Catalog,
    base_path: &str,
    base: &str,
    new_path: &str,
    new: &str,
) -> Result<(String, bool), String> {
    let base = load(base_path, base)?;
    let new = load(new_path, new)?;
    let differ = differences(&base.info, &new.info);
    if !differ.is_empty() {
        return Err(format!(
            "{base_path} and {new_path} were made with other settings: {}",
            differ.join(", ")
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<40} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "bound"
    );
    let mut ok = base.all_passed && new.all_passed;
    let cell = |values: &[f64]| match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".to_string(),
    };
    let mut missing = 0;
    for workload in &base.info.workloads {
        for spec in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            let key = (workload.clone(), spec.name.clone());
            // A metric this mode does not report is no row.
            let Some(b) = base.values.get(&key) else {
                continue;
            };
            let (new_cell, verdict) = match new.values.get(&key) {
                Some(n) => {
                    let verdict = verdict(b, n, spec);
                    ok &= verdict != Some(Verdict::Worse);
                    (
                        cell(n),
                        match verdict {
                            Some(Verdict::Improved) => "improved",
                            Some(Verdict::Unchanged) => "unchanged",
                            Some(Verdict::Worse) => "WORSE",
                            Some(Verdict::Unresolved) => "unresolved",
                            Some(Verdict::NoBound) | None => "-",
                        },
                    )
                }
                None => {
                    missing += 1;
                    ok = false;
                    ("-".to_string(), "MISSING")
                }
            };
            let _ = writeln!(
                out,
                "{workload:<15} {:<40} {:>30} {:>30} {:>7}  {verdict}",
                spec.name,
                cell(b),
                new_cell,
                spec.bound
                    .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            );
        }
    }
    if missing > 0 {
        let _ = writeln!(
            out,
            "{missing} row(s) of {base_path} are missing from {new_path}"
        );
    }
    if !base.all_passed || !new.all_passed {
        let _ = writeln!(
            out,
            "a correctness check or request failed in one of the files"
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "apply_p50_us".to_string(),
            unit: "us".to_string(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&base, &base, &lower(0.1)), Some(Verdict::Unchanged));
        let slower = [130.0, 131.0, 129.0, 130.5, 129.5];
        assert_eq!(verdict(&base, &slower, &lower(0.1)), Some(Verdict::Worse));
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&base, &faster, &lower(0.1)),
            Some(Verdict::Improved)
        );
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            verdict(&base, &noisy, &lower(0.1)),
            Some(Verdict::Unresolved)
        );
        let unbounded = MetricSpec {
            bound: None,
            ..lower(0.1)
        };
        assert_eq!(verdict(&base, &faster, &unbounded), Some(Verdict::Improved));
        assert_eq!(verdict(&base, &slower, &unbounded), Some(Verdict::NoBound));
    }

    /// A results file with one run of `user_churn` per entry of `values`
    /// (of `apply_p50_us`; `None` leaves the metric out).
    fn results(values: &[Option<f64>]) -> String {
        let runs: Vec<String> = values
            .iter()
            .map(|value| {
                let metrics = value.map_or(String::new(), |v| {
                    format!("\"apply_p50_us\":{{\"value\":{v},\"unit\":\"us\"}}")
                });
                format!(
                    "{{\"workloads\":[{{\"workload\":\"user_churn\",\"correct\":true,\
                     \"failed\":0,\"metrics\":{{{metrics}}}}}]}}"
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"smoke\":false,\"trace\":false,\
             \"seed\":1,\"instance_seed\":1,\"seconds\":15,\"workloads\":[\"user_churn\"],\
             \"runs\":[{}]}}",
            runs.join(",")
        )
    }

    #[test]
    fn compare_refuses_files_it_cannot_compare() {
        let catalog = Catalog {
            end_to_end: vec![lower(0.1)],
            per_layer: Vec::new(),
        };
        let good = results(&[Some(100.0)]);
        assert!(compare(&catalog, "a", &good, "b", &good).unwrap().1);
        let old = good.replace(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":0",
        );
        let err = compare(&catalog, "a", &good, "b", &old).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let smoke = good.replace("\"smoke\":false", "\"smoke\":true");
        assert!(compare(&catalog, "a", &smoke, "b", &good).is_err());
        for (from, to, what) in [
            ("\"seed\":1", "\"seed\":2", "--seed"),
            (
                "\"instance_seed\":1",
                "\"instance_seed\":2",
                "--instance-seed",
            ),
            ("\"seconds\":15", "\"seconds\":10", "--seconds"),
            ("\"trace\":false", "\"trace\":true", "--trace"),
            (
                "\"workloads\":[\"user_churn\"],",
                "\"workloads\":[\"user_churn\",\"read_mostly\"],",
                "workloads",
            ),
        ] {
            let other = good.replacen(from, to, 1);
            assert_ne!(other, good, "{from}");
            let err = compare(&catalog, "a", &good, "b", &other).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn a_row_missing_from_the_new_file_fails_the_comparison() {
        let catalog = Catalog {
            end_to_end: vec![lower(0.1)],
            per_layer: Vec::new(),
        };
        let base = results(&[Some(100.0), Some(101.0)]);
        let partial = results(&[None]);
        let (table, ok) = compare(&catalog, "a", &base, "b", &partial).unwrap();
        assert!(!ok, "{table}");
        assert!(table.contains("MISSING"), "{table}");
        // A metric the base does not report is no row at all.
        let (table, ok) = compare(&catalog, "a", &partial, "b", &base).unwrap();
        assert!(ok, "{table}");
    }

    #[test]
    fn the_repository_benchmark_json_parses_and_names_our_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let catalog = Catalog::parse(&json).unwrap();
        let setup = catalog
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        for metric in &catalog.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "{} above setup_s",
                metric.name
            );
        }
        let doc: Value = serde_json::from_str(&json).unwrap();
        let workloads: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
