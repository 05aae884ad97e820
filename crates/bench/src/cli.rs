//! Command-line front end of the `lumiere-bench` binary:
//!
//! ```text
//! lumiere-bench [EXPERIMENT...] [--out DIR] [--threads N] [--full]
//! lumiere-bench --check DIR
//! lumiere-bench --diff DIR_A DIR_B
//! ```
//!
//! | argument | effect |
//! |---|---|
//! | `EXPERIMENT` | an [`ALL_EXPERIMENTS`] slug to run; none runs them all, in registry order |
//! | `--out DIR` | persist every sweep cell as JSON under `DIR` |
//! | `--threads N` | worker threads for the grid (default: available parallelism) |
//! | `--full` | paper-scale sweeps |
//! | `--check DIR` | load a report dir, round-trip every file, exit non-zero on failure |
//! | `--diff A B` | diff two report dirs, exit non-zero when they differ |
//! | `--help` | usage |
//!
//! The markdown report goes to stdout, headed by a title line only when
//! more than one experiment runs; `--out` adds the persistent JSON cells
//! (see `docs/REPORT_SCHEMA.md`). Output dirs are probed for writability
//! *before* any simulation runs, so a typo in `--out` fails in
//! milliseconds, not after the sweep.

use crate::experiments::{experiment, ExperimentRun, ExperimentScale, ALL_EXPERIMENTS};
use crate::grid::available_threads;
use crate::report::{diff_cells, ensure_writable, load_dir, write_cells, SweepCell};
use serde::json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Options for a sweep run, resolved from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Slugs of the experiments to run, in order.
    pub experiments: Vec<&'static str>,
    /// Sweep scale (`--full` selects the paper scale).
    pub scale: ExperimentScale,
    /// Worker threads for the experiment grids.
    pub threads: usize,
    /// Where to persist report cells, if anywhere.
    pub out: Option<PathBuf>,
}

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Run(SweepOptions),
    Check(PathBuf),
    Diff(PathBuf, PathBuf),
    Help,
}

fn usage() -> String {
    let slugs: Vec<&str> = ALL_EXPERIMENTS.iter().map(|def| def.slug).collect();
    format!(
        "usage: lumiere-bench [EXPERIMENT...] [--out DIR] [--threads N] [--full]\n\
        \x20      lumiere-bench --check DIR\n\
        \x20      lumiere-bench --diff DIR_A DIR_B\n\
         \n\
         Runs the named experiment sweeps (all of them when none is named) and\n\
         prints a markdown report to stdout.\n\
         \n\
         experiments: {}\n\
         \n\
         options:\n\
        \x20 --out DIR      write one JSON file per sweep cell under DIR\n\
        \x20                (format: docs/REPORT_SCHEMA.md)\n\
        \x20 --threads N    worker threads (default: available parallelism)\n\
        \x20 --full         paper-scale sweeps\n\
        \x20 --check DIR    validate every report file in DIR (parse + round-trip)\n\
        \x20 --diff A B     compare two report directories\n\
        \x20 --help         this message\n",
        slugs.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut experiments: Vec<&'static str> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut scale = ExperimentScale::Quick;
    let mut check: Option<PathBuf> = None;
    let mut diff: Option<(PathBuf, PathBuf)> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--threads" => {
                let raw = value("--threads")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|_| format!("--threads expects a positive integer, got `{raw}`"))?;
                if parsed == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(parsed);
            }
            "--full" => scale = ExperimentScale::Full,
            "--check" => check = Some(PathBuf::from(value("--check")?)),
            "--diff" => {
                let a = PathBuf::from(value("--diff")?);
                let b = iter
                    .next()
                    .map(PathBuf::from)
                    .ok_or_else(|| "--diff needs two directories".to_string())?;
                diff = Some((a, b));
            }
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with('-') => return Err(format!("unknown argument `{other}`")),
            slug => {
                let def = experiment(slug).ok_or_else(|| format!("unknown experiment `{slug}`"))?;
                if experiments.contains(&def.slug) {
                    return Err(format!("experiment `{slug}` named twice"));
                }
                experiments.push(def.slug);
            }
        }
    }
    if let Some(dir) = check {
        return Ok(Command::Check(dir));
    }
    if let Some((a, b)) = diff {
        return Ok(Command::Diff(a, b));
    }
    if experiments.is_empty() {
        experiments = ALL_EXPERIMENTS.iter().map(|def| def.slug).collect();
    }
    Ok(Command::Run(SweepOptions {
        experiments,
        scale,
        threads: threads.unwrap_or_else(available_threads),
        out,
    }))
}

/// Entry point of the `lumiere-bench` binary: parses the command line, runs
/// (or checks, or diffs) and reports errors on stderr with a non-zero exit
/// code (2 for a bad command line).
pub fn run_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Help => {
            print!("{}", usage());
            Ok(())
        }
        Command::Check(dir) => check_dir(&dir),
        Command::Diff(a, b) => return diff_dirs(&a, &b),
        Command::Run(options) => run_sweeps(&options),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run_sweeps(options: &SweepOptions) -> Result<(), String> {
    // Fail fast on an unwritable output dir — before minutes of sweeps.
    if let Some(dir) = &options.out {
        ensure_writable(dir)?;
    }
    if options.experiments.len() > 1 {
        println!("# Lumiere reproduction — experiment reports\n");
    }
    let mut cells: Vec<SweepCell> = Vec::new();
    for slug in &options.experiments {
        let def = experiment(slug).expect("validated by parse_args");
        eprintln!("running {} ...", def.title);
        let ExperimentRun {
            markdown,
            cells: mut run_cells,
        } = (def.run)(options.scale, options.threads);
        println!("{markdown}");
        cells.append(&mut run_cells);
    }
    if let Some(dir) = &options.out {
        let paths = write_cells(dir, &cells)?;
        eprintln!("wrote {} report file(s) to {}", paths.len(), dir.display());
    }
    Ok(())
}

fn check_dir(dir: &std::path::Path) -> Result<(), String> {
    let cells = load_dir(dir)?;
    if cells.is_empty() {
        return Err(format!("{}: no report files found", dir.display()));
    }
    for cell in &cells {
        // Round-trip: serialize → parse → compare. This catches any report
        // the loader could read but not reproduce.
        let text = json::to_string_pretty(cell);
        let back: SweepCell = json::from_str(&text)
            .map_err(|e| format!("{}: failed to round-trip: {e}", cell.key()))?;
        if &back != cell {
            return Err(format!("{}: round-trip changed the cell", cell.key()));
        }
    }
    eprintln!(
        "validated {} report file(s) in {}",
        cells.len(),
        dir.display()
    );
    Ok(())
}

fn diff_dirs(a: &std::path::Path, b: &std::path::Path) -> ExitCode {
    let load = |dir: &std::path::Path| {
        load_dir(dir).map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        })
    };
    let (left, right) = match (load(a), load(b)) {
        (Ok(left), Ok(right)) => (left, right),
        _ => return ExitCode::FAILURE,
    };
    let diff = diff_cells(&left, &right);
    print!("{}", diff.render());
    if diff.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn all_slugs() -> Vec<&'static str> {
        ALL_EXPERIMENTS.iter().map(|def| def.slug).collect()
    }

    #[test]
    fn default_run_uses_available_parallelism() {
        // No flags: every experiment, quick scale, no output dir — nothing
        // is read from the environment.
        match parse_args(&[]).unwrap() {
            Command::Run(options) => {
                assert!(options.threads >= 1);
                assert_eq!(options.out, None);
                assert_eq!(options.scale, ExperimentScale::Quick);
                assert_eq!(options.experiments, all_slugs());
            }
            other => panic!("expected a run command, got {other:?}"),
        }
    }

    #[test]
    fn flags_are_parsed() {
        let command =
            parse_args(&strings(&["--out", "/tmp/r", "--threads", "4", "--full"])).unwrap();
        assert_eq!(
            command,
            Command::Run(SweepOptions {
                experiments: all_slugs(),
                scale: ExperimentScale::Full,
                threads: 4,
                out: Some(PathBuf::from("/tmp/r")),
            })
        );
        // Positional slugs pick the sweeps, in the order given, among flags.
        let command = parse_args(&strings(&["scale", "--threads", "2", "table1_worst"])).unwrap();
        assert_eq!(
            command,
            Command::Run(SweepOptions {
                experiments: vec!["scale", "table1_worst"],
                scale: ExperimentScale::Quick,
                threads: 2,
                out: None,
            })
        );
    }

    #[test]
    fn check_and_diff_modes_win_over_run_flags() {
        assert_eq!(
            parse_args(&strings(&["--check", "/tmp/r"])).unwrap(),
            Command::Check(PathBuf::from("/tmp/r"))
        );
        assert_eq!(
            parse_args(&strings(&["--diff", "/tmp/a", "/tmp/b"])).unwrap(),
            Command::Diff(PathBuf::from("/tmp/a"), PathBuf::from("/tmp/b"))
        );
        assert_eq!(parse_args(&strings(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_args(&strings(&["--threads"])).is_err());
        assert!(parse_args(&strings(&["--threads", "zero"])).is_err());
        assert!(parse_args(&strings(&["--threads", "0"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
        assert!(parse_args(&strings(&["--diff", "/tmp/a"])).is_err());
        assert!(parse_args(&strings(&["no_such_experiment"])).is_err());
        assert!(parse_args(&strings(&["scale", "load", "scale"])).is_err());
        // The names of the former one-experiment binaries are not slugs.
        for old in [
            "table1_all",
            "table1_worst_comm",
            "scale_suite",
            "figure1_timeline",
        ] {
            assert!(parse_args(&strings(&[old])).is_err(), "{old}");
        }
    }
}
