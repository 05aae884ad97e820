//! Runs the experiment sweeps that regenerate the paper's tables and
//! figures: `lumiere-bench [EXPERIMENT...] [--out DIR] [--threads N]
//! [--full]`, or `--check DIR` / `--diff A B` over persisted reports. See
//! `lumiere_bench::cli` for the flags and `lumiere_bench::ALL_EXPERIMENTS`
//! for the slugs.

use std::process::ExitCode;

fn main() -> ExitCode {
    lumiere_bench::cli::run_main()
}
