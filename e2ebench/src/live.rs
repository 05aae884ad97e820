//! The live workloads: four honest Lumiere nodes in this process on a TCP
//! loopback mesh, each run by `lumiere_runtime::driver::run` with the
//! driver's own open-loop generator (`DriverOptions::load_tps`).
//!
//! Every layer is measured from outside, at its public boundary: [`Probe`]
//! implements `ConsensusRuntime` around `ProtocolRuntime`, and [`Tap`]
//! implements `Transport` around `TcpTransport`; both are handed to the
//! driver. Codec cost comes from replaying the messages the traced run
//! captured through `encode_frame` / `decode_frame`.
//!
//! Open-loop accounting: the k-th transaction of a node is due at its boot
//! plus `k / rate`; it is timed from that instant, not from the (possibly
//! late) submit. A cluster's generator is open for its measured run only —
//! the wrappers drop submissions due after it — and the cluster then drains
//! until every due transaction is committed at its submitting node or the
//! 1 s limit has passed for all of them.

use crate::stats::{self, percentile_of, ratio};
use crate::{Outcome, KINDS};
use lumiere_runtime::driver::{self, DriverOptions, DriverSummary};
use lumiere_runtime::{
    build_runtime, decode_frame, encode_frame, ConsensusRuntime, ProtocolKind, ProtocolRuntime,
    RuntimeOutput, TcpMeshConfig, TcpTransport, Transport, TransportError, WireMessage,
};
use lumiere_types::{Duration, Params, ProcessId, Time, Transaction, View};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

/// Total offered load of `live-light`, transactions per second.
pub(crate) const LIGHT_TPS: u64 = 400;
/// Total offered load of `live-heavy`, transactions per second.
pub(crate) const HEAVY_TPS: u64 = 2_000;

const NODES: usize = 4;
const DELTA_MS: i64 = 5;
/// A transaction committed later than this after it was due has failed.
const LATENCY_LIMIT_US: i64 = 1_000_000;
/// How long past the measured run the drain may wait (the latency limit plus a
/// margin for the stop request to reach every driver).
const DRAIN_CAP: WallDuration = WallDuration::from_millis(1_200);
/// Target length of one cluster's run, seconds.
const CLUSTER_S: f64 = 10.0;
/// Target length of one measurement window, seconds.
const WINDOW_S: f64 = 2.5;
/// Mesh connections per cluster; `setup_s` is the median over all.
const SETUP_REPS: usize = 3;
/// Cap on messages captured for the codec replay.
const CAPTURE_CAP: usize = 50_000;

/// Index into [`KINDS`] of a message's kind.
fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or_else(|| panic!("unexpected message kind {kind}"))
}
const WAKE: usize = KINDS.len() - 1;

/// The driver's transaction-id layout: node `i` numbers its k-th
/// transaction `((i + 1) << 40) + k`.
fn tx_origin(raw: u64) -> (usize, u64) {
    (
        ((raw >> 40) as usize).wrapping_sub(1),
        raw & ((1 << 40) - 1),
    )
}

/// Per-kind call count and busy time.
#[derive(Debug, Default, Clone, Copy)]
struct Calls {
    calls: u64,
    nanos: u64,
}

impl Calls {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.nanos += since.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Calls) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    fn us_per_call(&self) -> f64 {
        ratio(self.nanos as f64 / 1_000.0, self.calls as f64)
    }
}

/// One node's running counts, bumped by its two wrappers and sampled by
/// the main thread at window boundaries (statistics only, so `Relaxed`).
#[derive(Debug, Default)]
struct Counters {
    /// Own transactions committed (also read by the drain loop).
    own_committed: AtomicU64,
    /// Steps taken: boots, wakes and deliveries.
    events: AtomicU64,
    /// Protocol (non-submit) frames sent, one per recipient.
    proto_frames: AtomicU64,
    /// Authenticator bytes sent, one copy per recipient.
    auth_bytes: AtomicU64,
}

/// The cluster's summed counters and the process CPU at one instant.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ms: f64,
    committed: u64,
    events: u64,
    frames: u64,
    auth_bytes: u64,
}

impl Mark {
    fn take(counters: &[Arc<Counters>]) -> Mark {
        let sum = |f: fn(&Counters) -> &AtomicU64| -> u64 {
            counters.iter().map(|c| f(c).load(Ordering::Relaxed)).sum()
        };
        Mark {
            at: Instant::now(),
            cpu_ms: stats::cpu_ms(),
            committed: sum(|c| &c.own_committed),
            events: sum(|c| &c.events),
            frames: sum(|c| &c.proto_frames),
            auth_bytes: sum(|c| &c.auth_bytes),
        }
    }
}

/// The `ConsensusRuntime` wrapper: closes the generator after the measured
/// run, stamps commits of the node's own transactions, counts each
/// transaction once (recording repeats) and checks it came from the
/// generator, and (traced) times every step by kind.
#[derive(Debug)]
struct Probe {
    inner: ProtocolRuntime,
    node: usize,
    /// Transactions per node due within the measured run.
    due: u64,
    interval_us: i64,
    booted_at: Option<Instant>,
    /// Commit instant (µs after boot) of each own transaction, by index.
    own_commit_us: Vec<Option<i64>>,
    counters: Arc<Counters>,
    /// Every transaction this node committed, by origin and index.
    seen: Vec<Vec<bool>>,
    /// Ids of committed transactions in commit order, repeats included
    /// (compared across nodes: transaction-level agreement).
    committed_ids: Vec<u64>,
    /// Committed transactions whose id an earlier block already carried.
    repeats: u64,
    /// First error a check found (reported after the run).
    error: Option<String>,
    /// Instant of every block commit.
    commits: Vec<(u64, Instant)>,
    traced: Option<Box<ProbeTrace>>,
}

#[derive(Debug, Default)]
struct ProbeTrace {
    steps: [Calls; KINDS.len()],
    /// Mirror of the driver's timer heap (same dedup), to pair each wake
    /// with the time it was requested for.
    timers: BinaryHeap<Reverse<i64>>,
    pending: HashSet<i64>,
    timer_late_us: Vec<f64>,
    gen_late_us: Vec<f64>,
    mempool_depth: Vec<f64>,
    views: u64,
    heavy_syncs: BTreeSet<View>,
    verify_ops: u64,
    auth_bytes: u64,
}

impl Probe {
    fn new(
        inner: ProtocolRuntime,
        counters: Arc<Counters>,
        due: u64,
        interval_us: i64,
        trace: bool,
    ) -> Self {
        let node = inner.id().as_usize();
        Probe {
            inner,
            node,
            due,
            interval_us,
            booted_at: None,
            own_commit_us: vec![None; due as usize],
            counters,
            seen: vec![vec![false; due as usize]; NODES],
            committed_ids: Vec::new(),
            repeats: 0,
            error: None,
            commits: Vec::new(),
            traced: trace.then(Box::default),
        }
    }

    fn since_boot_us(&self, at: Instant) -> i64 {
        let boot = self.booted_at.expect("events follow boot");
        at.duration_since(boot).as_micros() as i64
    }

    /// Books one step's outputs. The driver drains `out` after every step,
    /// so it holds this step's outputs only.
    fn after_step(&mut self, out: &RuntimeOutput) {
        self.counters.events.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        for &height in &out.commits {
            self.commits.push((height, now));
        }
        let now_us = self.since_boot_us(now);
        for id in &out.committed_txs {
            self.committed_ids.push(id.as_u64());
            let (origin, index) = tx_origin(id.as_u64());
            if origin >= NODES || index >= self.due {
                self.error
                    .get_or_insert(format!("node {} committed foreign tx {id}", self.node));
                continue;
            }
            // A transaction counts as committed once, at its first block
            // (later copies are deduplicated by id, see docs/LOAD.md).
            if std::mem::replace(&mut self.seen[origin][index as usize], true) {
                self.repeats += 1;
                continue;
            }
            if origin == self.node {
                self.own_commit_us[index as usize] = Some(now_us);
                self.counters.own_committed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(t) = self.traced.as_deref_mut() {
            for at in &out.wakes {
                if t.pending.insert(at.as_micros()) {
                    t.timers.push(Reverse(at.as_micros()));
                }
            }
            t.views += out.entered_views.len() as u64;
            t.heavy_syncs.extend(out.heavy_syncs.iter().copied());
            t.mempool_depth.push(self.inner.mempool().len() as f64);
        }
    }
}

impl ConsensusRuntime for Probe {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn boot(&mut self, now: Time, out: &mut RuntimeOutput) {
        self.booted_at = Some(Instant::now());
        self.inner.boot(now, out);
        self.after_step(out);
    }

    fn wake(&mut self, now: Time, out: &mut RuntimeOutput) {
        let start = Instant::now();
        self.inner.wake(now, out);
        if let Some(t) = self.traced.as_deref_mut() {
            t.steps[WAKE].add(start);
            if let Some(Reverse(at)) = t.timers.pop() {
                t.pending.remove(&at);
                t.timer_late_us.push((now.as_micros() - at) as f64);
            }
        }
        self.after_step(out);
    }

    fn deliver(&mut self, from: ProcessId, msg: &WireMessage, now: Time, out: &mut RuntimeOutput) {
        let start = Instant::now();
        self.inner.deliver(from, msg, now, out);
        if let Some(t) = self.traced.as_deref_mut() {
            t.steps[kind_index(msg.kind())].add(start);
            t.verify_ops += msg.verify_ops();
            t.auth_bytes += msg.auth_bytes() as u64;
        }
        self.after_step(out);
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn committed_height(&self) -> u64 {
        self.inner.committed_height()
    }

    fn committed_chain(&self) -> Vec<u64> {
        self.inner.committed_chain()
    }

    fn resume_floor(&self) -> Time {
        self.inner.resume_floor()
    }

    fn submit_tx(&mut self, tx: Transaction) -> bool {
        let (_, index) = tx_origin(tx.id.as_u64());
        if index >= self.due {
            return false; // due after the measured run: the generator is closed
        }
        if let Some(t) = self.traced.as_deref_mut() {
            let boot = self.booted_at.expect("submissions follow boot");
            let now_us = boot.elapsed().as_micros() as i64;
            t.gen_late_us
                .push((now_us - index as i64 * self.interval_us) as f64);
        }
        self.inner.submit_tx(tx)
    }
}

/// The `Transport` wrapper: closes the generator's broadcast after the
/// measured run, counts protocol frames and authenticator bytes, and (traced)
/// times sends, broadcasts and waits and captures messages for the codec
/// replay.
#[derive(Debug)]
struct Tap {
    inner: TcpTransport,
    due: u64,
    counters: Arc<Counters>,
    traced: Option<Box<TapTrace>>,
}

#[derive(Debug, Default)]
struct TapTrace {
    send: Calls,
    broadcast: Calls,
    recv_wait_nanos: u64,
    frames: u64,
    modeled_bytes: u64,
    capture: Option<Vec<WireMessage>>,
}

impl Tap {
    fn count(&mut self, msg: &WireMessage, copies: u64, start: Instant, broadcast: bool) {
        if !matches!(msg, WireMessage::Submit(_)) {
            self.counters
                .proto_frames
                .fetch_add(copies, Ordering::Relaxed);
        }
        let auth = msg.auth_bytes() as u64 * copies;
        self.counters.auth_bytes.fetch_add(auth, Ordering::Relaxed);
        if let Some(t) = self.traced.as_deref_mut() {
            if broadcast {
                t.broadcast.add(start);
            } else {
                t.send.add(start);
            }
            t.frames += copies;
            t.modeled_bytes += msg.wire_size() as u64 * copies;
            if let Some(capture) = t.capture.as_mut().filter(|c| c.len() < CAPTURE_CAP) {
                capture.push(msg.clone());
            }
        }
    }
}

impl Transport for Tap {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn send(&mut self, to: ProcessId, msg: &WireMessage) -> Result<(), TransportError> {
        let start = Instant::now();
        self.inner.send(to, msg)?;
        self.count(msg, 1, start, false);
        Ok(())
    }

    fn broadcast(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        if let WireMessage::Submit(tx) = msg {
            if tx_origin(tx.id.as_u64()).1 >= self.due {
                return Ok(()); // due after the measured run: the generator is closed
            }
        }
        let start = Instant::now();
        self.inner.broadcast(msg)?;
        self.count(msg, (NODES - 1) as u64, start, true);
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: WallDuration,
    ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
        let start = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        if let Some(t) = self.traced.as_deref_mut() {
            t.recv_wait_nanos += start.elapsed().as_nanos() as u64;
        }
        got
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// Picks `n` distinct free loopback ports (held open together, so the OS
/// hands out distinct ones, then released for the mesh to bind).
fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot reserve a loopback port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read a reserved port: {e}"))
}

/// Connects a fresh `NODES`-node mesh on free ports.
fn connect_mesh() -> Result<Vec<TcpTransport>, String> {
    let ports = free_ports(NODES)?;
    let addr = |i: usize| format!("127.0.0.1:{}", ports[i]);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|i| {
                let cfg = TcpMeshConfig {
                    id: ProcessId::new(i),
                    n: NODES,
                    listen: addr(i),
                    peers: (0..NODES)
                        .filter(|&j| j != i)
                        .map(|j| (ProcessId::new(j), addr(j)))
                        .collect(),
                    connect_timeout: WallDuration::from_secs(10),
                };
                s.spawn(move || TcpTransport::connect(cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("connect thread panicked")
                    .map_err(|e| e.to_string())
            })
            .collect()
    })
}

/// Builds the runtimes and connects the mesh `SETUP_REPS` times, keeping
/// the last mesh and pushing every set-up time (seconds) onto `times`.
fn set_up(
    seed: u64,
    times: &mut Vec<f64>,
) -> Result<(Vec<ProtocolRuntime>, Vec<TcpTransport>), String> {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let runtimes: Vec<ProtocolRuntime> = (0..NODES)
            .map(|i| {
                let delta = Duration::from_millis(DELTA_MS);
                build_runtime(ProtocolKind::Lumiere, NODES, i, delta, seed)
            })
            .collect();
        let mesh = connect_mesh()?;
        times.push(start.elapsed().as_secs_f64());
        built = Some((runtimes, mesh));
    }
    Ok(built.expect("at least one set-up"))
}

/// Replays captured messages through the wire codec: encode, decode, check
/// the round trip. Returns `(encode ns/msg, decode ns/msg, frame bytes/msg,
/// frame bytes / modelled wire_size)`.
fn codec_replay(msgs: &[WireMessage]) -> Result<[f64; 4], String> {
    if msgs.is_empty() {
        return Ok([0.0; 4]);
    }
    let start = Instant::now();
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
    let encode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let decoded = frames
        .iter()
        .map(|f| decode_frame(f).map(|(m, _)| m))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("codec replay: {e}"))?;
    let decode_ns = start.elapsed().as_nanos() as f64;
    if decoded != msgs {
        return Err("codec replay: a decoded frame differs from its message".into());
    }
    let count = msgs.len() as f64;
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    let wire_bytes: usize = msgs.iter().map(WireMessage::wire_size).sum();
    Ok([
        encode_ns / count,
        decode_ns / count,
        frame_bytes as f64 / count,
        ratio(frame_bytes as f64, wire_bytes as f64),
    ])
}

/// Counts over a cluster's measured windows, summed across clusters.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    cpu_ms: f64,
    committed: f64,
    events: f64,
    frames: f64,
    auth_bytes: f64,
    decisions: f64,
}

impl Totals {
    fn add(&mut self, o: Totals) {
        self.cpu_ms += o.cpu_ms;
        self.committed += o.committed;
        self.events += o.events;
        self.frames += o.frames;
        self.auth_bytes += o.auth_bytes;
        self.decisions += o.decisions;
    }
}

/// What one cluster's run produced.
struct Cluster {
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    totals: Totals,
    /// Latency percentiles and longest stall, one value per measured window.
    windows: BTreeMap<&'static str, Vec<f64>>,
    per_layer: Vec<(String, f64)>,
    note: String,
}

/// One measured phase of a live workload at `total_tps` offered load.
///
/// The phase runs `seconds / CLUSTER_S` fresh clusters one after another:
/// a cluster's retained state (chain, mempool sets) grows for as long as it
/// runs, and memory and per-block costs grew unevenly past about 10 s.
/// Each cluster's run is cut into windows of about `WINDOW_S`, the first of
/// which is warm-up. The latency percentiles and the longest stall are
/// computed per window and reported as the median over all measured
/// windows, so one rare long stall moves one window rather than the
/// result; the ratios (CPU and events per transaction or decision) are
/// totals over the measured windows. Per-layer metrics are medians over
/// clusters. Peak memory is read after the first cluster: later clusters
/// reuse the memory earlier ones freed, unevenly.
pub(crate) fn run(total_tps: u64, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let clusters = ((seconds / CLUSTER_S).round() as usize).max(1);
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut windows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut peak_rss_mb = 0.0;
    let mut t = Totals::default();
    for c in 0..clusters {
        let cluster = run_cluster(total_tps, seed, seconds / clusters as f64, trace)?;
        if c == 0 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        setup_s.extend(cluster.setup_s);
        t.add(cluster.totals);
        outcome.attempted += cluster.attempted;
        outcome.failed += cluster.failed;
        for (name, values) in cluster.windows {
            windows.entry(name).or_default().extend(values);
        }
        for (name, value) in cluster.per_layer {
            layers.entry(name).or_default().push(value);
        }
        outcome.notes.push(cluster.note);
    }
    let e2e = &mut outcome.end_to_end;
    e2e.insert("setup_s", stats::median(&setup_s));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("cpu_ms_per_ktx", ratio(t.cpu_ms, t.committed / 1e3));
    e2e.insert("sim_events_per_s", ratio(t.events, t.cpu_ms / 1e3));
    e2e.insert("msgs_per_decision", ratio(t.frames, t.decisions));
    e2e.insert("auth_bytes_per_decision", ratio(t.auth_bytes, t.decisions));
    for (name, values) in windows {
        e2e.insert(name, stats::median(&values));
    }
    for (name, values) in layers {
        outcome.per_layer.insert(name, stats::median(&values));
    }
    Ok(outcome)
}

/// Runs one fresh cluster for `seconds` plus its drain.
fn run_cluster(total_tps: u64, seed: u64, seconds: f64, trace: bool) -> Result<Cluster, String> {
    let mut setup_s = Vec::new();
    let (runtimes, mesh) = set_up(seed, &mut setup_s)?;
    let per_node_tps = total_tps / NODES as u64;
    // The driver spaces arrivals by whole microseconds.
    let interval_us = (1_000_000 / per_node_tps) as i64;
    let due = ((seconds * 1e6) as u64).div_ceil(interval_us as u64);
    let windows = ((seconds / WINDOW_S).round() as usize).max(1);
    let window_us = seconds * 1e6 / windows as f64;
    // The first window is warm-up when there is more than one.
    let measured = usize::from(windows > 1)..windows;

    let counters: Vec<Arc<Counters>> = (0..NODES).map(|_| Arc::default()).collect();
    let probes = runtimes
        .into_iter()
        .zip(&counters)
        .map(|(rt, c)| Probe::new(rt, c.clone(), due, interval_us, trace));
    let taps = mesh
        .into_iter()
        .zip(&counters)
        .enumerate()
        .map(|(i, (inner, c))| Tap {
            inner,
            due,
            counters: c.clone(),
            traced: trace.then(|| {
                Box::new(TapTrace {
                    capture: (i == 0).then(Vec::new),
                    ..TapTrace::default()
                })
            }),
        });
    let opts = DriverOptions {
        // A backstop only: the drain loop below stops the drivers.
        deadline: Some(WallDuration::from_secs_f64(seconds) + DRAIN_CAP * 5),
        load_tps: Some(per_node_tps),
        ..DriverOptions::default()
    };
    let stop = AtomicBool::new(false);

    let mut marks = vec![Mark::take(&counters)];
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = probes
            .zip(taps)
            .map(|(probe, tap)| {
                let (opts, stop) = (&opts, &stop);
                s.spawn(move || driver::run(probe, tap, opts, stop, &AtomicU64::new(0)))
            })
            .collect();
        let start = marks[0].at;
        for w in 1..=windows {
            let end = start + WallDuration::from_secs_f64(window_us * w as f64 / 1e6);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            marks.push(Mark::take(&counters));
        }
        // Drain until every due transaction has committed at its
        // submitting node or the drain cap passes.
        let drain_end = Instant::now() + DRAIN_CAP;
        let target = due * NODES as u64;
        let committed = || -> u64 {
            let own = counters
                .iter()
                .map(|c| c.own_committed.load(Ordering::Relaxed));
            own.sum()
        };
        while Instant::now() < drain_end && committed() < target {
            std::thread::sleep(WallDuration::from_millis(5));
        }
        // The last mark is read while every thread of the run is alive.
        marks.push(Mark::take(&counters));
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;

    let mut summaries: Vec<DriverSummary> = Vec::new();
    let mut nodes: Vec<(Probe, Tap)> = Vec::new();
    for (summary, probe, mut tap) in results {
        tap.shutdown();
        summaries.push(summary);
        nodes.push((probe, tap));
    }

    // Correctness gate: block and transaction agreement, only generated
    // ids that were due inside the measured phase.
    driver::check_agreement(&summaries)?;
    if let Some(e) = nodes.iter().find_map(|(p, _)| p.error.clone()) {
        return Err(e);
    }
    for (i, (a, _)) in nodes.iter().enumerate() {
        for (b, _) in &nodes[i + 1..] {
            let len = a.committed_ids.len().min(b.committed_ids.len());
            if a.committed_ids[..len] != b.committed_ids[..len] {
                return Err(format!(
                    "nodes {} and {} committed transactions in different orders",
                    a.node, b.node
                ));
            }
        }
    }

    // Latency from each transaction's due instant, binned by due window.
    let mut latencies_us: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut failed = 0u64;
    for (probe, _) in &nodes {
        for (k, commit) in probe.own_commit_us.iter().enumerate() {
            let due_us = k as i64 * interval_us;
            match commit {
                Some(at) => {
                    let w = ((due_us as f64 / window_us) as usize).min(windows - 1);
                    latencies_us[w].push((at - due_us) as f64);
                    failed += u64::from(at - due_us > LATENCY_LIMIT_US);
                }
                None => failed += 1,
            }
        }
    }
    for sample in &mut latencies_us {
        sample.sort_by(f64::total_cmp);
    }

    // A decision is the first commit of a height anywhere in the cluster.
    let mut decided: BTreeMap<u64, Instant> = BTreeMap::new();
    for (probe, _) in &nodes {
        for &(height, at) in &probe.commits {
            let first = decided.entry(height).or_insert(at);
            *first = (*first).min(at);
        }
    }
    let mut decision_times: Vec<Instant> = decided.into_values().collect();
    decision_times.sort_unstable();
    // Gaps between consecutive decisions, keyed by the later one.
    let gaps: Vec<(Instant, f64)> = decision_times
        .windows(2)
        .map(|w| (w[1], w[1].duration_since(w[0]).as_secs_f64() * 1e3))
        .collect();

    let per_window = |f: &dyn Fn(usize, &Mark, &Mark) -> f64| -> Vec<f64> {
        measured
            .clone()
            .map(|w| f(w, &marks[w], &marks[w + 1]))
            .collect()
    };
    let in_window = |at: Instant, a: &Mark, b: &Mark| a.at < at && at <= b.at;
    let mut metrics: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, p) in [("tx_latency_p50_ms", 50), ("tx_latency_p99_ms", 99)] {
        metrics.insert(
            name,
            per_window(&|w, _, _| stats::percentile(&latencies_us[w], p) / 1e3),
        );
    }
    metrics.insert(
        "stall_max_ms",
        per_window(&|_, a, b| {
            let inside = gaps.iter().filter(|(t, _)| in_window(*t, a, b));
            inside.map(|&(_, g)| g).fold(0.0, f64::max)
        }),
    );

    let (a, b) = (&marks[measured.start], &marks[measured.end]);
    let totals = Totals {
        cpu_ms: b.cpu_ms - a.cpu_ms,
        committed: (b.committed - a.committed) as f64,
        events: (b.events - a.events) as f64,
        frames: (b.frames - a.frames) as f64,
        auth_bytes: (b.auth_bytes - a.auth_bytes) as f64,
        decisions: decision_times
            .iter()
            .filter(|&&t| in_window(t, a, b))
            .count() as f64,
    };

    let (first, last) = (marks[0], marks[marks.len() - 1]);
    let wall_s = last.at.duration_since(first.at).as_secs_f64();
    let committed_txs = last.committed as f64;
    let note = format!(
        "cluster: {} latency samples in {} windows, {} decisions, {:.3} s wall, {:.0} ms CPU",
        committed_txs,
        windows,
        decision_times.len(),
        wall_s,
        last.cpu_ms - first.cpu_ms
    );
    let per_layer = if trace {
        let gamma = Params::new(NODES, Duration::from_millis(DELTA_MS)).gamma();
        let gaps_ms: Vec<f64> = gaps.iter().map(|&(_, g)| g).collect();
        let gamma_ms = gamma.as_micros() as f64 / 1e3;
        per_layer(&nodes, &gaps_ms, gamma_ms, wall_s, committed_txs)?
    } else {
        Vec::new()
    };
    Ok(Cluster {
        setup_s,
        attempted: due * NODES as u64,
        failed,
        totals,
        windows: metrics,
        per_layer,
        note,
    })
}

/// The per-layer metrics of a traced cluster.
fn per_layer(
    nodes: &[(Probe, Tap)],
    gaps_ms: &[f64],
    gamma_ms: f64,
    wall_s: f64,
    committed_txs: f64,
) -> Result<Vec<(String, f64)>, String> {
    let probes: Vec<&ProbeTrace> = nodes
        .iter()
        .map(|(p, _)| p.traced.as_deref().expect("traced phase"))
        .collect();
    let taps: Vec<&TapTrace> = nodes
        .iter()
        .map(|(_, t)| t.traced.as_deref().expect("traced phase"))
        .collect();
    let node_seconds = wall_s * NODES as f64;
    // Decisions are one more than the gaps between them.
    let decisions = (gaps_ms.len() + 1) as f64;
    let ktx = committed_txs / 1_000.0;
    let ms = |us: f64| us / 1_000.0;
    let mut m: Vec<(String, f64)> = Vec::new();

    let recv_wait: u64 = taps.iter().map(|t| t.recv_wait_nanos).sum();
    m.push((
        "runtime.driver.idle_share".into(),
        recv_wait as f64 / 1e9 / node_seconds,
    ));
    let timer_late = probes
        .iter()
        .flat_map(|p| p.timer_late_us.iter().copied())
        .collect();
    m.push((
        "runtime.driver.timer_late_p99_ms".into(),
        ms(percentile_of(timer_late, 99)),
    ));
    let gen_late = probes
        .iter()
        .flat_map(|p| p.gen_late_us.iter().copied())
        .collect();
    m.push((
        "runtime.driver.gen_late_p99_ms".into(),
        ms(percentile_of(gen_late, 99)),
    ));

    let mut busy_nanos = 0u64;
    for (i, kind) in KINDS.iter().enumerate() {
        let mut calls = Calls::default();
        for p in &probes {
            calls.merge(p.steps[i]);
        }
        busy_nanos += calls.nanos;
        m.push((format!("runtime.step.{kind}.calls"), calls.calls as f64));
        m.push((
            format!("runtime.step.{kind}.us_per_call"),
            calls.us_per_call(),
        ));
    }
    m.push((
        "runtime.step.busy_share".into(),
        busy_nanos as f64 / 1e9 / node_seconds,
    ));

    let depth = probes
        .iter()
        .flat_map(|p| p.mempool_depth.iter().copied())
        .collect();
    m.push(("core.mempool.depth_p99".into(), percentile_of(depth, 99)));
    let repeats: u64 = nodes.iter().map(|(p, _)| p.repeats).sum();
    let slots: usize = nodes.iter().map(|(p, _)| p.committed_ids.len()).sum();
    m.push((
        "core.mempool.repeat_share".into(),
        ratio(repeats as f64, slots as f64),
    ));
    let shed: u64 = nodes.iter().map(|(p, _)| p.inner.mempool().shed()).sum();
    m.push(("core.mempool.shed".into(), shed as f64));
    m.push((
        "core.mempool.txs_per_block".into(),
        ratio(committed_txs, decisions),
    ));

    let views = probes.iter().map(|p| p.views).sum::<u64>() as f64 / NODES as f64;
    m.push(("consensus.engine.blocks_per_s".into(), decisions / wall_s));
    let gaps = gaps_ms.to_vec();
    m.push((
        "consensus.engine.commit_gap_p99_ms".into(),
        percentile_of(gaps, 99),
    ));
    m.push((
        "consensus.engine.views_per_block".into(),
        ratio(views, decisions),
    ));
    m.push(("core.lumiere.views_per_s".into(), views / wall_s));
    let heavy: BTreeSet<View> = probes
        .iter()
        .flat_map(|p| p.heavy_syncs.iter().copied())
        .collect();
    m.push(("core.lumiere.heavy_syncs".into(), heavy.len() as f64));
    let stalls = gaps_ms.iter().filter(|&&g| g >= gamma_ms).count();
    m.push(("core.lumiere.stalls".into(), stalls as f64));

    let mut send = Calls::default();
    let mut broadcast = Calls::default();
    for t in &taps {
        send.merge(t.send);
        broadcast.merge(t.broadcast);
    }
    m.push(("runtime.tcp.send.us_per_call".into(), send.us_per_call()));
    m.push((
        "runtime.tcp.broadcast.us_per_call".into(),
        broadcast.us_per_call(),
    ));
    let frames: u64 = taps.iter().map(|t| t.frames).sum();
    m.push((
        "runtime.tcp.frames_per_ktx".into(),
        ratio(frames as f64, ktx),
    ));
    let modeled: u64 = taps.iter().map(|t| t.modeled_bytes).sum();
    m.push((
        "runtime.tcp.modeled_bytes_per_ktx".into(),
        ratio(modeled as f64, ktx),
    ));

    let captured = taps[0].capture.as_deref().unwrap_or(&[]);
    let [encode, decode, frame_bytes, over_wire] = codec_replay(captured)?;
    m.push(("runtime.codec.encode.ns_per_msg".into(), encode));
    m.push(("runtime.codec.decode.ns_per_msg".into(), decode));
    m.push(("runtime.codec.frame_bytes_per_msg".into(), frame_bytes));
    m.push(("runtime.codec.bytes_over_wire_size".into(), over_wire));

    let verify_ops: u64 = probes.iter().map(|p| p.verify_ops).sum();
    let auth_bytes: u64 = probes.iter().map(|p| p.auth_bytes).sum();
    m.push((
        "crypto.verify_ops_per_block".into(),
        ratio(verify_ops as f64, decisions),
    ));
    m.push((
        "crypto.auth_bytes_per_block".into(),
        ratio(auth_bytes as f64, decisions),
    ));

    Ok(m)
}
