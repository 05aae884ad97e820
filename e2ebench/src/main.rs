//! End-to-end benchmark of the Lumiere reproduction.
//!
//! ```text
//! e2ebench --workload <live-light|live-heavy|sim-byzantine> --seed <n>
//!          --seconds <s> --trace <0|1> [--steady <k>]
//! ```
//!
//! One run builds its inputs from the seed, measures for `--seconds`, checks
//! the outputs (the correctness gate) and only then prints every metric by
//! name and unit, followed by one JSON object on the last line of standard
//! output. With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` the run is split into an untraced half and a traced half and
//! the JSON carries the per-layer metrics plus `overhead.<metric>` (traced
//! minus untraced) for every end-to-end metric. `--steady k` runs the
//! workload `k` times on seeds `seed .. seed+k` in child processes and
//! prints each end-to-end metric's median and quartiles. A failed check
//! exits with code 1 and prints no result. `e2ebench --reference` runs the
//! host-speed reference kernel alone (see `reference`). See `NOTES.md`.

mod live;
mod reference;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tx_latency_p50_ms", "ms"),
    ("tx_latency_p99_ms", "ms"),
    ("cpu_ms_per_ktx", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_events_per_s", "1/s"),
    ("msgs_per_decision", "count"),
    ("auth_bytes_per_decision", "B"),
    ("stall_max_ms", "ms"),
];

/// The `WireMessage::kind()` tags the step and transport layers report,
/// plus `wake` for timer events. Lumiere sends no other kinds.
const KINDS: [&str; 11] = [
    "proposal",
    "vote",
    "new-qc",
    "view-msg",
    "view-cert",
    "epoch-view-msg",
    "epoch-cert",
    "timeout",
    "timeout-cert",
    "submit",
    "wake",
];

/// The per-layer metrics, in output order, with their units. Layers are
/// named by module; a layer a workload does not run reports 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("runtime.driver.idle_share".into(), "share"),
        ("runtime.driver.timer_late_p99_ms".into(), "ms"),
        ("runtime.driver.gen_late_p99_ms".into(), "ms"),
    ];
    for kind in KINDS {
        names.push((format!("runtime.step.{kind}.calls"), "count"));
        names.push((format!("runtime.step.{kind}.us_per_call"), "us"));
    }
    for (name, unit) in [
        ("runtime.step.busy_share", "share"),
        ("core.mempool.depth_p99", "count"),
        ("core.mempool.repeat_share", "share"),
        ("core.mempool.shed", "count"),
        ("core.mempool.txs_per_block", "count"),
        ("consensus.engine.blocks_per_s", "1/s"),
        ("consensus.engine.commit_gap_p99_ms", "ms"),
        ("consensus.engine.views_per_block", "count"),
        ("core.lumiere.views_per_s", "1/s"),
        ("core.lumiere.heavy_syncs", "count"),
        ("core.lumiere.stalls", "count"),
        ("runtime.tcp.send.us_per_call", "us"),
        ("runtime.tcp.broadcast.us_per_call", "us"),
        ("runtime.tcp.frames_per_ktx", "count"),
        ("runtime.tcp.modeled_bytes_per_ktx", "B"),
        ("runtime.codec.encode.ns_per_msg", "ns"),
        ("runtime.codec.decode.ns_per_msg", "ns"),
        ("runtime.codec.frame_bytes_per_msg", "B"),
        ("runtime.codec.bytes_over_wire_size", "ratio"),
        ("crypto.verify_ops_per_block", "count"),
        ("crypto.auth_bytes_per_block", "B"),
        ("crypto.verify_ops_per_decision", "count"),
        ("sim.runner.events", "count"),
        ("sim.runner.events_per_decision", "count"),
        ("sim.runner.ns_per_event", "ns"),
        ("sim.runner.build_s", "s"),
    ] {
        names.push((name.into(), unit));
    }
    for (name, unit) in END_TO_END {
        names.push((format!("overhead.{name}"), unit));
    }
    names
}

/// What one measured phase of a workload produced. Only built after the
/// phase's correctness gate passed.
#[derive(Debug, Default)]
struct Outcome {
    /// Operations due (transactions).
    attempted: u64,
    /// Operations that failed (shed, never committed, or committed late).
    failed: u64,
    /// End-to-end metric values by name.
    end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced phases only).
    per_layer: BTreeMap<String, f64>,
    /// Human-readable context printed beside the metrics (sample counts).
    notes: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LiveLight,
    LiveHeavy,
    SimByzantine,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::LiveLight => "live-light",
            Workload::LiveHeavy => "live-heavy",
            Workload::SimByzantine => "sim-byzantine",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::LiveLight,
            Workload::LiveHeavy,
            Workload::SimByzantine,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// Runs one measured phase of `seconds`, traced or not.
    fn run(self, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
        match self {
            Workload::LiveLight => live::run(live::LIGHT_TPS, seed, seconds, trace),
            Workload::LiveHeavy => live::run(live::HEAVY_TPS, seed, seconds, trace),
            Workload::SimByzantine => sim::run(seed, seconds, trace),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--steady" => {
                if flags.insert(&flag[2..], value).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let number = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} needs a number")),
            None => default.ok_or(format!("--{key} is required")),
        }
    };
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seconds = number("seconds", None)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match number("trace", Some(0))? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let steady = flags
        .contains_key("steady")
        .then(|| number("steady", None))
        .transpose()?;
    Ok(Args {
        workload,
        seed: number("seed", None)?,
        seconds,
        trace,
        steady,
    })
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs the workload (two half-length phases when traced) and prints the
/// result. Any failed check returns before anything is printed.
fn measure(args: &Args) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let (outcome, metrics) = if args.trace {
        let untraced = args.workload.run(args.seed, seconds / 2.0, false)?;
        let mut traced = args.workload.run(args.seed, seconds / 2.0, true)?;
        for (name, _) in END_TO_END {
            let delta = traced.end_to_end[name] - untraced.end_to_end[name];
            traced.per_layer.insert(format!("overhead.{name}"), delta);
        }
        let metrics: Vec<(String, f64, &str)> = per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = traced.per_layer.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect();
        (traced, metrics)
    } else {
        let outcome = args.workload.run(args.seed, seconds, false)?;
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), outcome.end_to_end[name], unit))
            .collect();
        (outcome, metrics)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# failed_share {} ({} of {} due transactions)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

/// Pulls `"name": {"value": X` pairs out of a result line this binary
/// printed (the format is fixed by [`json_metrics`]).
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let names = line
        .split("\": {\"value\"")
        .filter_map(|chunk| chunk.rsplit('"').next().map(str::to_string));
    let values = line.split("{\"value\": ").skip(1).map(|piece| {
        let number = piece.split(',').next().unwrap_or("");
        number.trim().parse().unwrap_or(f64::NAN)
    });
    names.zip(values).collect()
}

/// Runs the workload `runs` times in child processes on consecutive seeds
/// and prints each end-to-end metric's median, quartiles and quartile
/// spread as a share of the median.
fn steady(args: &Args, runs: u64) -> Result<(), String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for seed in args.seed..args.seed + runs {
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("cannot run child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !last.starts_with("{\"correct\": true") {
            return Err(format!(
                "seed {seed} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        println!("# seed {seed}: {last}");
        for (name, value) in parse_metrics(last) {
            samples.entry(name).or_default().push(value);
        }
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, _) in END_TO_END {
        let values = samples.get(name).ok_or(format!("no values for {name}"))?;
        let [q1, q2, q3] = stats::quartiles(values);
        println!(
            "{name:<28} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4}",
            stats::ratio(q3 - q1, q2)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child mode of `reference::measure_ms`.
    if argv == ["--reference"] {
        println!("{}", reference::kernel_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.steady {
        Some(runs) => steady(&args, runs),
        None => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}
