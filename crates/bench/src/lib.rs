//! Experiment harness regenerating every table and figure of the paper.
//!
//! The paper's evaluation consists of Table 1 (asymptotic comparison of
//! Cogsworth/NK20, LP22, Fever and Lumiere on four measures), Figure 1 (a
//! concrete LP22 failure scenario) and the four properties of Theorem 1.1.
//! Each experiment here runs the corresponding simulated scenario for every
//! protocol and prints the measured rows, so the measured *shape* can be
//! compared with the paper's asymptotic claims.
//!
//! The `lumiere-bench` binary runs the experiments of [`ALL_EXPERIMENTS`]
//! by slug (`lumiere-bench scale load`; no slug runs them all):
//!
//! | slug | paper artifact |
//! |---|---|
//! | `table1_worst` | Table 1, worst-case communication and latency (E1, E3) |
//! | `table1_eventual` | Table 1, eventual worst-case communication and latency (E2, E4) |
//! | `responsiveness` | Theorem 1.1(3), latency vs. actual delay δ |
//! | `figure1` | Figure 1 |
//! | `heavy_syncs` | Section 3.5 / Theorem 1.1(4), heavy-sync suppression |
//! | `honest_gap` | Lemmas 5.9–5.12, honest-gap dynamics |
//! | `adversaries` | the pluggable adversary strategies at `f_a = f` |
//! | `scale` | the O(n·f_a + n) vs Θ(n²) separation at n up to 4096 ([`experiments::scale_table`]) |
//! | `load` | throughput–latency saturation under open-loop client load |
//! | `certificates` | constant-size aggregated certificates vs naive signature vectors |
//!
//! Every experiment defaults to a "quick" sweep that finishes in well under
//! a minute on a laptop; `--full` runs the larger paper-scale sweeps.
//!
//! Two further binaries serve the perf and robustness stories:
//! `bench_gate` gates the `BENCH_*.json` files emitted by the adaptive
//! criterion shim against the committed `BENCH_baseline.json` ([`perf`],
//! `docs/PERFORMANCE.md`), and `fuzz_adversary` searches the adversary
//! space (below).
//!
//! # Persistent reports and parallel sweeps
//!
//! Since PR 2 the harness is organised as a pipeline:
//!
//! * [`experiments`] — each experiment builds a grid of independent seeded
//!   simulations and renders the markdown tables;
//! * [`grid`] — the grid is scattered over OS threads ([`grid::run_grid`]),
//!   with results restored to deterministic grid order;
//! * [`report`] — every grid cell can be persisted as a JSON file
//!   ([`report::SweepCell`], format in `docs/REPORT_SCHEMA.md`), loaded back,
//!   and diffed across runs for regression checks;
//! * [`cli`] — the `lumiere-bench` command line: experiment slugs plus
//!   `--out` / `--threads` / `--full` / `--check` / `--diff`.
//!
//! The adversary-fuzzing stack is a fourth pillar: [`fuzz`] (case
//! sampler, safety/liveness oracles, greedy minimizer), [`mutate`]
//! (structural mutation operators over adversary schedules) and [`corpus`]
//! (the coverage-guided corpus loop over behavioural fingerprints — the
//! one search loop, including the planted-bug calibration mode) — all
//! behind the `fuzz_adversary` binary, documented in `docs/ADVERSARIES.md`.
//!
//! Because each simulation carries its own seed and output ordering is
//! independent of scheduling, a sweep writes byte-identical files for every
//! `--threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod fuzz;
pub mod grid;
pub mod mutate;
pub mod perf;
pub mod report;
pub mod table;

pub use corpus::{run_coverage_fuzz, Corpus, CorpusEntry, CoverageOutcome};
pub use experiments::{ExperimentDef, ExperimentRun, ExperimentScale, ALL_EXPERIMENTS};
pub use fuzz::{FuzzOptions, Verdict};
pub use grid::run_grid;
pub use report::SweepCell;
pub use table::TextTable;
