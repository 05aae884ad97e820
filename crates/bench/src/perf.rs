//! The perf regression gate over `BENCH_*.json` files.
//!
//! The vendored criterion shim emits one `BENCH_<harness>.json` per bench
//! binary when `LUMIERE_BENCH_OUT` is set (schema in
//! `docs/REPORT_SCHEMA.md`). This module loads those files, merges them
//! into a committed baseline (`BENCH_baseline.json`) and gates new runs
//! against it: the job fails when any tracked metric regresses by more than
//! a threshold.
//!
//! **Tracked metric.** Wall-clock numbers are not comparable across
//! machines, so the gate compares the **calibration-normalized minimum**:
//! `min_ns / calibration_ns`, where `calibration_ns` is the cost of a fixed
//! spin workload measured by the same process that ran the benchmark
//! (`criterion::calibration`). The minimum is the most scheduler-noise
//! robust statistic of a benchmark; dividing by the calibration cancels raw
//! CPU speed to first order, which is what makes a committed baseline
//! meaningful on a different CI machine. Mean and σ are carried along for
//! reporting only.
//!
//! The workflow is documented in `docs/PERFORMANCE.md`:
//! `bench_gate --check` in CI, `bench_gate --update-baseline` locally when
//! a perf change is intentional.

use serde::{json, Deserialize, Serialize};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Default regression threshold, in percent, over the baseline's
/// normalized minimum.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Version stamp of both the per-harness files and the merged baseline.
///
/// v2: results gained `elements` — logical items (simulator events,
/// transactions) processed per iteration, `0` when the benchmark declared
/// no throughput. `elements / min` is the events/sec figure the gate
/// renders; the gated metric is still the calibration-normalized minimum,
/// which for a fixed element count gates events/sec exactly (they are each
/// other's reciprocal up to the constant `elements`).
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// One benchmark's statistics, as written by the criterion shim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Full benchmark label (`group/function/param`).
    pub name: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Iterations per timed sample.
    pub batch: u64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: u64,
    /// Sample standard deviation, nanoseconds.
    pub sigma_ns: u64,
    /// Fastest sample, nanoseconds (the gated metric, after normalization).
    pub min_ns: u64,
    /// Elements processed per iteration (`0` = no declared throughput).
    pub elements: u64,
}

/// One `BENCH_<harness>.json` file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The bench binary that produced the file (`crypto`, `table1`, ...).
    pub harness: String,
    /// Cost of the fixed calibration workload on the producing machine,
    /// nanoseconds.
    pub calibration_ns: u64,
    /// The measurement budget the run used, milliseconds.
    pub budget_ms: u64,
    /// Per-benchmark results.
    pub results: Vec<BenchEntry>,
}

/// One benchmark in the committed baseline, with the calibration of the
/// machine that produced it (so normalized comparisons work cross-machine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Full benchmark label.
    pub name: String,
    /// The harness the benchmark belongs to.
    pub harness: String,
    /// Calibration cost on the baseline machine, nanoseconds.
    pub calibration_ns: u64,
    /// Baseline mean, nanoseconds (reporting only).
    pub mean_ns: u64,
    /// Baseline σ, nanoseconds (reporting only).
    pub sigma_ns: u64,
    /// Baseline minimum, nanoseconds (the gated metric).
    pub min_ns: u64,
    /// Elements processed per iteration (`0` = no declared throughput);
    /// `elements / min` is the baseline's events-per-second figure.
    pub elements: u64,
}

/// The committed perf baseline (`BENCH_baseline.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Baseline {
    /// Layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Every tracked benchmark, sorted by `(harness, name)`.
    pub entries: Vec<BaselineEntry>,
}

/// Loads every `BENCH_*.json` file under `dir`, sorted by file name.
pub fn load_bench_dir(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .map(|entry| {
            entry
                .map(|e| e.path())
                .map_err(|e| format!("cannot list {}: {e}", dir.display()))
        })
        .collect::<Result<_, _>>()?;
    paths.retain(|p| {
        p.extension().is_some_and(|ext| ext == "json")
            && p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_"))
    });
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no BENCH_*.json files found", dir.display()));
    }
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let file: BenchFile = json::from_str(&text)
                .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            if file.schema_version != BENCH_SCHEMA_VERSION {
                return Err(format!(
                    "{}: bench schema version {} is not the supported {BENCH_SCHEMA_VERSION}",
                    path.display(),
                    file.schema_version
                ));
            }
            if file.calibration_ns == 0 {
                return Err(format!("{}: calibration_ns is zero", path.display()));
            }
            Ok(file)
        })
        .collect()
}

/// Merges per-harness bench files into a baseline, sorted by
/// `(harness, name)` so the serialized baseline is deterministic.
pub fn merge_to_baseline(files: &[BenchFile]) -> Baseline {
    let mut entries: Vec<BaselineEntry> = files
        .iter()
        .flat_map(|file| {
            file.results.iter().map(|r| BaselineEntry {
                name: r.name.clone(),
                harness: file.harness.clone(),
                calibration_ns: file.calibration_ns,
                mean_ns: r.mean_ns,
                sigma_ns: r.sigma_ns,
                min_ns: r.min_ns,
                elements: r.elements,
            })
        })
        .collect();
    entries.sort_by(|a, b| (&a.harness, &a.name).cmp(&(&b.harness, &b.name)));
    Baseline {
        schema_version: BENCH_SCHEMA_VERSION,
        entries,
    }
}

/// Loads the committed baseline file. An entry with a zero calibration or a
/// zero minimum is rejected: its normalized baseline would be ∞ or 0, and
/// the gate would pass that benchmark at any speed.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let baseline: Baseline =
        json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    if baseline.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "{}: baseline schema version {} is not the supported {BENCH_SCHEMA_VERSION}",
            path.display(),
            baseline.schema_version
        ));
    }
    for entry in &baseline.entries {
        for (field, value) in [
            ("calibration_ns", entry.calibration_ns),
            ("min_ns", entry.min_ns),
        ] {
            if value == 0 {
                return Err(format!(
                    "{}: entry {}/{} has {field} zero",
                    path.display(),
                    entry.harness,
                    entry.name
                ));
            }
        }
    }
    Ok(baseline)
}

/// Writes the baseline deterministically (pretty JSON, trailing newline).
pub fn write_baseline(path: &Path, baseline: &Baseline) -> Result<(), String> {
    let mut text = json::to_string_pretty(baseline);
    text.push('\n');
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One gated comparison: the normalized minimum of a fresh run against the
/// baseline's.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// Benchmark label.
    pub name: String,
    /// `min/calibration` on the baseline machine.
    pub baseline: f64,
    /// `min/calibration` on this machine.
    pub current: f64,
    /// `current / baseline` (1.0 = unchanged, 1.30 = 30 % slower).
    pub ratio: f64,
    /// This run's throughput, `elements / min` in elements per second
    /// (`None` when the benchmark declared no throughput). Reporting only —
    /// the gated metric above already tracks it up to a constant.
    pub events_per_sec: Option<f64>,
}

/// Outcome of gating a set of bench files against the baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Benchmarks whose normalized minimum regressed past the threshold.
    pub regressions: Vec<GateLine>,
    /// Benchmarks compared and found within the threshold.
    pub passed: Vec<GateLine>,
    /// Baseline benchmarks missing from the new run (renamed or removed —
    /// update the baseline).
    pub missing: Vec<String>,
    /// New benchmarks that are not in the baseline yet (not gated; update
    /// the baseline to start tracking them).
    pub untracked: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no regressions, no missing benchmarks).
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders a human-readable summary.
    pub fn render(&self, threshold_pct: f64) -> String {
        // Throughput-declaring benchmarks get their current events/sec
        // appended — the figure humans compare across machines at a glance.
        let rate = |line: &GateLine| match line.events_per_sec {
            Some(r) if r >= 1e6 => format!(" [{:.2} Mevents/s]", r / 1e6),
            Some(r) if r >= 1e3 => format!(" [{:.1} Kevents/s]", r / 1e3),
            Some(r) => format!(" [{r:.0} events/s]"),
            None => String::new(),
        };
        let mut out = String::new();
        for line in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION {:-60} {:+.1}% (normalized min {:.4} -> {:.4}, threshold {:.0}%){}",
                line.name,
                (line.ratio - 1.0) * 100.0,
                line.baseline,
                line.current,
                threshold_pct,
                rate(line)
            );
        }
        for name in &self.missing {
            let _ = writeln!(
                out,
                "MISSING    {name} (in baseline but not in this run; update the baseline)"
            );
        }
        for name in &self.untracked {
            let _ = writeln!(out, "untracked  {name} (not in baseline; not gated)");
        }
        for line in &self.passed {
            let _ = writeln!(
                out,
                "ok         {:-60} {:+.1}%{}",
                line.name,
                (line.ratio - 1.0) * 100.0,
                rate(line)
            );
        }
        let _ = writeln!(
            out,
            "gate: {} compared, {} regressed, {} missing, {} untracked",
            self.passed.len() + self.regressions.len(),
            self.regressions.len(),
            self.missing.len(),
            self.untracked.len()
        );
        out
    }
}

/// Gates fresh bench files against the baseline at `threshold_pct`.
pub fn gate(baseline: &Baseline, files: &[BenchFile], threshold_pct: f64) -> GateReport {
    let mut report = GateReport::default();
    // Keyed by (harness, name) — the same identity merge_to_baseline sorts
    // by — so two harnesses may legally use the same benchmark label.
    struct Current {
        normalized: f64,
        events_per_sec: Option<f64>,
        seen: bool,
    }
    let mut current: std::collections::BTreeMap<(&str, &str), Current> = Default::default();
    for file in files {
        for r in &file.results {
            let events_per_sec = (r.elements > 0 && r.min_ns > 0)
                .then(|| r.elements as f64 / (r.min_ns as f64 / 1e9));
            current.insert(
                (file.harness.as_str(), r.name.as_str()),
                Current {
                    normalized: r.min_ns as f64 / file.calibration_ns as f64,
                    events_per_sec,
                    seen: false,
                },
            );
        }
    }
    for entry in &baseline.entries {
        match current.get_mut(&(entry.harness.as_str(), entry.name.as_str())) {
            None => report.missing.push(entry.name.clone()),
            Some(run) => {
                run.seen = true;
                let base = entry.min_ns as f64 / entry.calibration_ns as f64;
                let line = GateLine {
                    name: entry.name.clone(),
                    baseline: base,
                    current: run.normalized,
                    ratio: if base > 0.0 {
                        run.normalized / base
                    } else {
                        1.0
                    },
                    events_per_sec: run.events_per_sec,
                };
                if line.ratio > 1.0 + threshold_pct / 100.0 {
                    report.regressions.push(line);
                } else {
                    report.passed.push(line);
                }
            }
        }
    }
    for ((_, name), run) in current {
        if !run.seen {
            report.untracked.push(name.to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(harness: &str, calibration_ns: u64, results: &[(&str, u64)]) -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            harness: harness.to_string(),
            calibration_ns,
            budget_ms: 500,
            results: results
                .iter()
                .map(|(name, min_ns)| BenchEntry {
                    name: name.to_string(),
                    samples: 10,
                    batch: 1,
                    mean_ns: min_ns + 5,
                    sigma_ns: 2,
                    min_ns: *min_ns,
                    elements: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn baseline_merge_is_sorted_and_deterministic() {
        let files = vec![
            file("table1", 1000, &[("b/2", 200), ("a/1", 100)]),
            file("crypto", 2000, &[("sign", 50)]),
        ];
        let baseline = merge_to_baseline(&files);
        let names: Vec<&str> = baseline.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["sign", "a/1", "b/2"]); // crypto < table1
        assert_eq!(baseline.entries[0].calibration_ns, 2000);
        let a = json::to_string_pretty(&baseline);
        let b = json::to_string_pretty(&merge_to_baseline(&files));
        assert_eq!(a, b);
    }

    #[test]
    fn gate_normalizes_by_calibration() {
        let baseline = merge_to_baseline(&[file("t", 1000, &[("x", 100)])]);
        // A machine twice as slow: calibration 2000, min 210 ⇒ normalized
        // 0.105 vs baseline 0.100 ⇒ +5 %: inside a 25 % threshold.
        let ok = gate(&baseline, &[file("t", 2000, &[("x", 210)])], 25.0);
        assert!(ok.pass(), "{ok:?}");
        assert_eq!(ok.passed.len(), 1);
        // Same machine speed, min 130 ⇒ +30 %: regression.
        let bad = gate(&baseline, &[file("t", 1000, &[("x", 130)])], 25.0);
        assert!(!bad.pass());
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].ratio > 1.29 && bad.regressions[0].ratio < 1.31);
        let rendered = bad.render(25.0);
        assert!(rendered.contains("REGRESSION"), "{rendered}");
    }

    #[test]
    fn gate_flags_missing_and_untracked_benchmarks() {
        let baseline = merge_to_baseline(&[file("t", 1000, &[("gone", 100), ("kept", 100)])]);
        let report = gate(
            &baseline,
            &[file("t", 1000, &[("kept", 100), ("brand-new", 10)])],
            25.0,
        );
        assert!(!report.pass(), "a missing benchmark must fail the gate");
        assert_eq!(report.missing, vec!["gone".to_string()]);
        assert_eq!(report.untracked, vec!["brand-new".to_string()]);
        assert_eq!(report.passed.len(), 1);
    }

    #[test]
    fn bench_files_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("lumiere-bench-gate-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let f = file("crypto", 1234, &[("sign", 77)]);
        let mut text = json::to_string_pretty(&f);
        text.push('\n');
        fs::write(dir.join("BENCH_crypto.json"), text).unwrap();
        // Non-bench JSON files are ignored.
        fs::write(dir.join("notes.json"), "{}").unwrap();
        let loaded = load_bench_dir(&dir).unwrap();
        assert_eq!(loaded, vec![f.clone()]);
        // Baseline write/load round-trip.
        let baseline = merge_to_baseline(&loaded);
        let path = dir.join("BENCH_baseline.json");
        write_baseline(&path, &baseline).unwrap();
        assert_eq!(load_baseline(&path).unwrap(), baseline);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baselines_with_zero_calibration_or_minimum_are_rejected() {
        let dir = std::env::temp_dir().join(format!(
            "lumiere-bench-zero-baseline-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_baseline.json");
        let good = merge_to_baseline(&[file("crypto", 1000, &[("sign", 50), ("verify", 70)])]);
        write_baseline(&path, &good).unwrap();
        assert_eq!(load_baseline(&path).unwrap(), good);
        let mut zero_calibration = good.clone();
        zero_calibration.entries[1].calibration_ns = 0;
        write_baseline(&path, &zero_calibration).unwrap();
        let err = load_baseline(&path).unwrap_err();
        assert!(
            err.contains("crypto/verify") && err.contains("calibration_ns"),
            "{err}"
        );
        let mut zero_min = good.clone();
        zero_min.entries[0].min_ns = 0;
        write_baseline(&path, &zero_min).unwrap();
        let err = load_baseline(&path).unwrap_err();
        assert!(
            err.contains("crypto/sign") && err.contains("min_ns"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shim_emitted_json_parses() {
        // The criterion shim hand-writes its JSON; pin the exact shape it
        // emits to the parser used by the gate.
        let text = r#"{
  "schema_version": 2,
  "harness": "events",
  "calibration_ns": 1913043,
  "budget_ms": 500,
  "results": [
    {"name": "events/steady/256", "samples": 50, "batch": 4, "mean_ns": 120, "sigma_ns": 3, "min_ns": 117, "elements": 52000},
    {"name": "events/worst/256", "samples": 50, "batch": 2, "mean_ns": 240, "sigma_ns": 9, "min_ns": 230, "elements": 0}
  ]
}"#;
        let parsed: BenchFile = json::from_str(text).unwrap();
        assert_eq!(parsed.harness, "events");
        assert_eq!(parsed.results.len(), 2);
        assert_eq!(parsed.results[1].min_ns, 230);
        assert_eq!(parsed.results[0].elements, 52_000);
        assert_eq!(parsed.results[1].elements, 0);
    }

    #[test]
    fn gate_renders_events_per_second_for_throughput_benchmarks() {
        // 1e9 ns min with 5e6 elements ⇒ 5 Mevents/s on the current run.
        let mut base_file = file("events", 1000, &[("run", 1_000_000_000)]);
        base_file.results[0].elements = 5_000_000;
        let baseline = merge_to_baseline(&[base_file.clone()]);
        assert_eq!(baseline.entries[0].elements, 5_000_000);
        let report = gate(&baseline, &[base_file], 25.0);
        assert!(report.pass(), "{report:?}");
        assert_eq!(report.passed[0].events_per_sec, Some(5_000_000.0));
        let rendered = report.render(25.0);
        assert!(rendered.contains("5.00 Mevents/s"), "{rendered}");
    }
}
