//! The `sim-byzantine` workload: the deterministic simulator running
//! Lumiere with n = 128, Δ = 10 ms, fixed δ = 1 ms (so broadcasts stay
//! symbolic), GST at 200 ms, eight silent leaders chosen by the seed and a
//! 1,000 tx/s client load over a 20 s virtual horizon.
//!
//! A phase repeats rounds for as long as they fit: a round builds the
//! simulation `BUILDS` times, times the reference kernel
//! ([`crate::reference`]) and runs the last build. Every run of a seed must
//! produce the same report, which doubles as a determinism check. The
//! timed metrics scale each round to the kernel's nominal host speed:
//! `setup_s` is the median build, `cpu_ms_per_ktx` and `sim_events_per_s`
//! the interquartile mean over the runs. Counts come from `SimReport`; the
//! traced phase also records the simulator's execution trace
//! (`run_with_trace`).

use crate::stats::{self, percentile_of, ratio, Stopwatch};
use crate::{reference, Outcome};
use lumiere_core::LeaderSchedule;
use lumiere_sim::runner::Simulation;
use lumiere_sim::trace::TraceKind;
use lumiere_sim::{
    ArrivalProfile, ByzBehavior, ExecOptions, ProtocolKind, SimConfig, SimReport, WorkloadConfig,
};
use lumiere_types::{Duration, Time, View};
use std::collections::BTreeSet;
use std::time::Instant;

const N: usize = 128;
const SILENT_LEADERS: usize = 8;
const HORIZON_MS: u64 = 20_000;
/// Clients submit during the first `ARRIVALS_MS` of the horizon; the rest
/// drains, so every submitted transaction can commit before the run ends.
const ARRIVALS_MS: u64 = 19_001;
const RATE_TPS: u64 = 1_000;
/// Simulation builds before each run; `setup_s` is the median build, scaled
/// like the run that follows it.
const BUILDS: usize = 20;

/// SplitMix64: a tiny seeded generator for choosing the faulty set.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed's silent-leader set: `SILENT_LEADERS` distinct ids whose
/// positions in the seed's leader permutation are pairwise non-adjacent
/// and off its ends, so every silent leader stalls exactly its own two
/// views and the worst stall has the same shape on every seed.
fn silent_leaders(seed: u64) -> Vec<usize> {
    let LeaderSchedule::PairedReverse { order } = LeaderSchedule::lumiere(N, seed) else {
        unreachable!("Lumiere uses the paired-reverse schedule")
    };
    let mut state = seed;
    let mut positions: BTreeSet<usize> = BTreeSet::new();
    while positions.len() < SILENT_LEADERS {
        let p = 1 + (splitmix(&mut state) % (N as u64 - 2)) as usize;
        if !positions.contains(&(p - 1)) && !positions.contains(&(p + 1)) {
            positions.insert(p);
        }
    }
    let mut ids: Vec<usize> = positions.iter().map(|&p| order[p].as_usize()).collect();
    ids.sort_unstable();
    ids
}

/// The seed's fixed message delay: δ = 1 ms ± up to 20 µs. With delays
/// fixed, virtual-time metrics are exact functions of the seed; the small
/// offset makes them differ between seeds rather than repeat to the digit.
fn actual_delay(seed: u64) -> Duration {
    let mut state = seed ^ 0x0064_656c_7461;
    Duration::from_micros(980 + (splitmix(&mut state) % 41) as i64)
}

/// The workload: 1,000 tx/s for `ARRIVALS_MS`, then nothing. Expressed as
/// a one-window burst over a 1 tx/s base, whose single leftover arrival
/// would fall after the horizon.
fn workload() -> WorkloadConfig {
    WorkloadConfig::constant(1).with_profile(ArrivalProfile::Bursty {
        period_ms: HORIZON_MS,
        burst_ms: ARRIVALS_MS,
        multiplier: RATE_TPS as u32,
    })
}

fn config(seed: u64) -> SimConfig {
    SimConfig::new(ProtocolKind::Lumiere, N)
        .with_delta(Duration::from_millis(10))
        .with_actual_delay(actual_delay(seed))
        .with_gst(Time::from_millis(200))
        .with_horizon(Duration::from_millis(HORIZON_MS as i64))
        .with_seed(seed)
        .with_faulty_ids(silent_leaders(seed), ByzBehavior::SilentLeader)
        .with_workload(workload())
}

/// The report fields that must repeat exactly for one seed.
fn exact(r: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.events_processed,
        r.total_messages(),
        r.auth_bytes,
        r.verify_ops,
        r.commit_times.clone(),
        r.txs_committed,
        r.tx_latency_p50,
        r.tx_latency_p99,
    )
}

/// Gaps (µs) between consecutive decisions at or after GST.
fn commit_gaps_us(r: &SimReport) -> Vec<f64> {
    let times: Vec<Time> = r
        .commit_times
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| t >= r.gst)
        .collect();
    times
        .windows(2)
        .map(|w| (w[1] - w[0]).as_micros() as f64)
        .collect()
}

/// One measured phase of `sim-byzantine`.
pub(crate) fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let phase = Instant::now();
    let due = workload()
        .arrivals(seed, Duration::from_millis(HORIZON_MS as i64))
        .len() as u64;
    let mut build_s = Vec::new();
    let mut run_s = Vec::new();
    let mut cpu_ms_per_ktx = Vec::new();
    let mut first: Option<SimReport> = None;
    let mut views_entered = 0usize;
    let mut ref_ms = Vec::new();
    loop {
        let mut sim = None;
        for _ in 0..BUILDS {
            drop(sim.take());
            let start = Instant::now();
            // View entries are traced only with exact (unsampled) metrics.
            let cfg = match trace {
                true => config(seed)
                    .with_trace()
                    .with_sample_metrics_above(usize::MAX),
                false => config(seed),
            };
            sim = Some(Simulation::with_exec(cfg, ExecOptions::default()));
            build_s.push(start.elapsed().as_secs_f64());
        }
        let sim = sim.expect("at least one build");
        ref_ms.push(reference::measure_ms()?);
        let clock = Stopwatch::start();
        let report = if trace {
            let (report, tr) = sim.run_with_trace();
            let views: BTreeSet<View> = tr
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::EnteredView(v) => Some(v),
                    _ => None,
                })
                .collect();
            views_entered = views.len();
            report
        } else {
            sim.run()
        };
        let (wall_s, cpu_ms) = clock.read();

        // Correctness gate.
        if !report.safety_ok {
            return Err("simulated honest chains diverged".into());
        }
        if report.truncated {
            return Err("simulation hit its event cap".into());
        }
        if report.txs_submitted != due || report.txs_committed > report.txs_submitted {
            return Err(format!(
                "transaction accounting: {} due, {} submitted, {} committed",
                due, report.txs_submitted, report.txs_committed
            ));
        }
        if let Some(f) = &first {
            if exact(f) != exact(&report) {
                return Err("two runs of one seed produced different reports".into());
            }
        }

        run_s.push(wall_s);
        cpu_ms_per_ktx.push(ratio(cpu_ms, report.txs_committed as f64 / 1_000.0));
        first.get_or_insert(report);
        // Another run only if it fits in the phase.
        let elapsed = phase.elapsed().as_secs_f64();
        if elapsed + elapsed / run_s.len() as f64 > seconds {
            break;
        }
    }
    let r = first.expect("at least one run");

    let decisions = r.decisions() as f64;
    let gaps_us = commit_gaps_us(&r);
    let ms = |d: Duration| d.as_micros() as f64 / 1_000.0;
    // Each run's host speed relative to the reference's nominal speed, from
    // the kernel timed just before it; the timed metrics are scaled by it.
    let slowdown: Vec<f64> = ref_ms.iter().map(|t| t / reference::NOMINAL_MS).collect();
    let scaled_build_s: Vec<f64> = build_s
        .chunks(BUILDS)
        .zip(&slowdown)
        .flat_map(|(builds, slow)| builds.iter().map(move |b| b / slow))
        .collect();
    let scaled_cpu_ms_per_ktx: Vec<f64> = cpu_ms_per_ktx
        .iter()
        .zip(&slowdown)
        .map(|(cpu, slow)| cpu / slow)
        .collect();
    let scaled_events_per_s: Vec<f64> = run_s
        .iter()
        .zip(&slowdown)
        .map(|(s, slow)| r.events_processed as f64 / s * slow)
        .collect();
    let mut outcome = Outcome {
        attempted: r.txs_submitted,
        failed: r.txs_submitted - r.txs_committed,
        ..Outcome::default()
    };
    let e2e = &mut outcome.end_to_end;
    e2e.insert("setup_s", stats::median(&scaled_build_s));
    e2e.insert("tx_latency_p50_ms", ms(r.tx_latency_p50));
    e2e.insert("tx_latency_p99_ms", ms(r.tx_latency_p99));
    e2e.insert(
        "cpu_ms_per_ktx",
        stats::interquartile_mean(&scaled_cpu_ms_per_ktx),
    );
    e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    e2e.insert(
        "sim_events_per_s",
        stats::interquartile_mean(&scaled_events_per_s),
    );
    e2e.insert(
        "msgs_per_decision",
        ratio(r.total_messages() as f64, decisions),
    );
    e2e.insert(
        "auth_bytes_per_decision",
        ratio(r.auth_bytes as f64, decisions),
    );
    let stall_us = gaps_us.iter().copied().fold(0.0, f64::max);
    e2e.insert("stall_max_ms", stall_us / 1_000.0);
    outcome.notes.push(format!(
        "silent leaders {:?}, delta {} us; {} latency samples, {} decisions, {} events; {} runs, {} builds",
        silent_leaders(seed),
        actual_delay(seed).as_micros(),
        r.txs_committed,
        r.decisions(),
        r.events_processed,
        run_s.len(),
        build_s.len()
    ));
    outcome.notes.push(format!(
        "unscaled setup_s {}; unscaled cpu_ms_per_ktx per run {cpu_ms_per_ktx:.1?}; reference kernel ms per run {ref_ms:.1?} (nominal {})",
        stats::median(&build_s),
        reference::NOMINAL_MS
    ));

    if trace {
        let virtual_s = r.end_time.as_micros() as f64 / 1e6;
        let gamma_us = config(seed).params().gamma().as_micros() as f64;
        let stalls = gaps_us.iter().filter(|&&g| g >= gamma_us).count();
        let run_wall = stats::median(&run_s);
        let commit_gap_p99_ms = percentile_of(gaps_us, 99) / 1_000.0;
        outcome.per_layer.extend([
            ("core.mempool.shed".to_string(), r.txs_shed as f64),
            (
                "core.mempool.txs_per_block".into(),
                ratio(r.txs_committed as f64, decisions),
            ),
            (
                "consensus.engine.blocks_per_s".into(),
                decisions / virtual_s,
            ),
            (
                "consensus.engine.commit_gap_p99_ms".into(),
                commit_gap_p99_ms,
            ),
            (
                "consensus.engine.views_per_block".into(),
                ratio(views_entered as f64, decisions),
            ),
            (
                "core.lumiere.views_per_s".into(),
                views_entered as f64 / virtual_s,
            ),
            (
                "core.lumiere.heavy_syncs".into(),
                r.heavy_sync_epochs_after(Time::ZERO) as f64,
            ),
            ("core.lumiere.stalls".into(), stalls as f64),
            (
                "crypto.verify_ops_per_decision".into(),
                ratio(r.verify_ops as f64, decisions),
            ),
            ("sim.runner.events".into(), r.events_processed as f64),
            (
                "sim.runner.events_per_decision".into(),
                ratio(r.events_processed as f64, decisions),
            ),
            (
                "sim.runner.ns_per_event".into(),
                run_wall * 1e9 / r.events_processed as f64,
            ),
            ("sim.runner.build_s".into(), stats::median(&build_s)),
        ]);
    }
    Ok(outcome)
}
