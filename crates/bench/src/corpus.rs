//! The adversary fuzzer's search loop: corpus, novelty search, generations.
//!
//! Drawing every input independently explores the attack space blindly —
//! the search never learns. This module runs a classic coverage-guided
//! loop over the space of `fuzz::sample_config` instead:
//!
//! 1. every execution produces a deterministic behavioural
//!    [`CoverageFingerprint`](lumiere_sim::CoverageFingerprint)
//!    (`SimReport::coverage`, schema v4);
//! 2. inputs whose fingerprint was never seen before enter the **corpus**;
//! 3. later executions usually *mutate* a corpus entry
//!    (`crate::mutate`) instead of sampling from scratch, so the search
//!    walks outward from behaviourally novel regions.
//!
//! # Determinism
//!
//! Corpus evolution is inherently sequential, so the loop is batched into
//! **generations**: each generation's candidates are derived (parent pick +
//! mutation) from the corpus state frozen at the generation boundary, the
//! batch is simulated in parallel via [`run_grid`], and the results are
//! folded back in execution order. Scheduling never influences which parent
//! an execution mutated or which fingerprint counts as novel, so the whole
//! outcome — corpus, findings, rendered report — is byte-identical for every
//! `--threads` value and across repeated runs. The per-execution RNG is
//! seeded from the execution id alone, and fresh samples are
//! `fuzz::sample_config(protocol, exec_id, quick)`.
//!
//! Findings are minimized with `fuzz::minimize_config`.

use crate::fuzz::{minimize_config, sample_config, verdict, Finding, FuzzOptions};
use crate::grid::run_grid;
use crate::mutate::mutate;
use crate::table::TextTable;
use lumiere_sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{json, Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Fraction (percent) of executions that sample a fresh configuration even
/// when the corpus is non-empty, so the loop keeps injecting global
/// diversity alongside local mutation.
const FRESH_SAMPLE_PERCENT: u32 = 25;

/// How many of the most recent corpus entries the recency-biased parent
/// pick prefers.
const RECENT_WINDOW: usize = 8;

/// One input that produced a novel coverage fingerprint, plus its
/// provenance. Serializable: the regression corpus under
/// `crates/bench/tests/corpus/` and the CI artifacts are files of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The execution id that produced this entry.
    pub id: u64,
    /// Corpus id of the parent this input was mutated from (`None` for
    /// fresh samples).
    pub parent: Option<u64>,
    /// How the input was derived: `"sample"` or a mutation-operator name.
    pub op: String,
    /// The novel fingerprint key ([`CoverageFingerprint::key`]).
    ///
    /// [`CoverageFingerprint::key`]: lumiere_sim::CoverageFingerprint::key
    pub fingerprint: String,
    /// The oracle verdict name this input produced (`fuzz::Verdict::name`).
    pub verdict: String,
    /// The full configuration; replaying it reproduces fingerprint and
    /// verdict exactly.
    pub config: SimConfig,
}

/// The set of behaviourally novel inputs discovered so far.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: BTreeSet<String>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries in discovery order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of corpus entries (== number of distinct fingerprints).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `fingerprint` has been observed (kept or not).
    pub fn seen(&self, fingerprint: &str) -> bool {
        self.seen.contains(fingerprint)
    }

    /// Offers an entry: admitted (and `true` returned) iff its fingerprint
    /// is novel.
    pub fn observe(&mut self, entry: CorpusEntry) -> bool {
        if !self.seen.insert(entry.fingerprint.clone()) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Picks a mutation parent: biased toward recent entries (novelty begets
    /// novelty) with a uniform fallback over the whole corpus.
    ///
    /// # Panics
    ///
    /// Panics on an empty corpus — callers sample fresh configurations
    /// until the first entry lands.
    pub fn pick<'a>(&'a self, rng: &mut StdRng) -> &'a CorpusEntry {
        assert!(!self.entries.is_empty(), "cannot pick from an empty corpus");
        let len = self.entries.len();
        let index = if rng.gen_range(0..2u32) == 0 {
            len - 1 - rng.gen_range(0..RECENT_WINDOW.min(len))
        } else {
            rng.gen_range(0..len)
        };
        &self.entries[index]
    }
}

/// Per-generation progress counters (rendered in the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index.
    pub index: usize,
    /// Executions in this generation.
    pub executions: usize,
    /// How many produced a novel fingerprint.
    pub novel: usize,
    /// How many were findings (non-`Ok` verdicts).
    pub findings: usize,
}

/// The outcome of one coverage-guided fuzzing run.
#[derive(Debug, Clone)]
pub struct CoverageOutcome {
    /// The options the run used.
    pub options: FuzzOptions,
    /// The final corpus.
    pub corpus: Corpus,
    /// Minimized findings, in execution order.
    pub findings: Vec<Finding>,
    /// Per-generation counters.
    pub generations: Vec<GenerationStats>,
    /// Total executions performed.
    pub executions: u64,
}

impl CoverageOutcome {
    /// Number of distinct coverage fingerprints reached.
    pub fn distinct_fingerprints(&self) -> usize {
        self.corpus.len()
    }

    /// Renders the deterministic report (identical for every thread count).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Coverage-guided adversary fuzz — {} execs {}..{} ({}, generation {}{})\n",
            self.options.protocol.name(),
            self.options.seed_start,
            self.options.seed_end,
            if self.options.quick { "quick" } else { "deep" },
            self.options.generation,
            match self.options.planted {
                Some(bug) => format!(", planted bug: {}", bug.name()),
                None => String::new(),
            },
        );
        let mut table = TextTable::new(vec!["gen", "execs", "novel", "corpus", "findings"]);
        let mut corpus_size = 0usize;
        for g in &self.generations {
            corpus_size += g.novel;
            table.push_row(vec![
                g.index.to_string(),
                g.executions.to_string(),
                g.novel.to_string(),
                corpus_size.to_string(),
                g.findings.to_string(),
            ]);
        }
        out.push_str(&table.render());
        let _ = writeln!(out);
        for finding in &self.findings {
            let _ = writeln!(out, "{}", finding.render_line());
        }
        let _ = writeln!(
            out,
            "coverage: {} execs, {} distinct fingerprints, {} findings",
            self.executions,
            self.distinct_fingerprints(),
            self.findings.len(),
        );
        out
    }
}

/// Derives the deterministic per-execution RNG (independent of thread count
/// and of every other execution).
fn exec_rng(exec: u64) -> StdRng {
    StdRng::seed_from_u64(exec.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xc0ff_ee00_c0ff_ee00)
}

/// Runs the coverage-guided loop. `options.seed_start..seed_end` is the
/// execution-budget range (execution ids double as sampling seeds), and
/// `options.generation` is the batch size between corpus synchronization
/// points. See the module docs for the determinism argument.
pub fn run_coverage_fuzz(options: &FuzzOptions) -> CoverageOutcome {
    let mut corpus = Corpus::new();
    if let Some(dir) = &options.corpus_in {
        match load_corpus(dir) {
            Ok(entries) => {
                let preloaded = entries.len();
                // Mutated children inherit their parent's protocol, so an
                // entry for another protocol would fuzz that protocol.
                let matching: Vec<CorpusEntry> = entries
                    .into_iter()
                    .filter(|entry| entry.config.protocol == options.protocol)
                    .collect();
                let skipped = preloaded - matching.len();
                let mut admitted = 0usize;
                for entry in matching {
                    admitted += corpus.observe(entry) as usize;
                }
                eprintln!(
                    "preloaded corpus from {}: {admitted} of {preloaded} entries novel \
                     ({skipped} skipped for another protocol)",
                    dir.display()
                );
            }
            Err(e) => eprintln!("warning: ignoring corpus preload: {e}"),
        }
    }
    let mut findings = Vec::new();
    let mut generations = Vec::new();
    let generation = options.generation.max(1);
    let mut exec = options.seed_start;
    while exec < options.seed_end {
        let batch_end = (exec + generation as u64).min(options.seed_end);
        // Phase 1 (sequential, corpus frozen): derive every candidate of the
        // generation.
        let mut jobs: Vec<(u64, Option<u64>, String, SimConfig)> = Vec::new();
        for id in exec..batch_end {
            let mut rng = exec_rng(id);
            let fresh = corpus.is_empty() || rng.gen_range(0..100u32) < FRESH_SAMPLE_PERCENT;
            let (parent, op, mut config) = if fresh {
                (
                    None,
                    "sample".to_string(),
                    sample_config(options.protocol, id, options.quick),
                )
            } else {
                let parent = corpus.pick(&mut rng);
                let (config, op) = mutate(&parent.config, &mut rng);
                (Some(parent.id), op, config)
            };
            config.planted_bug = options.planted;
            jobs.push((id, parent, op, config));
        }
        // Phase 2 (parallel): simulate the whole batch.
        let results = run_grid(jobs, options.threads, |(id, parent, op, config)| {
            let report = config.clone().run();
            let fingerprint = report.coverage.key();
            (id, parent, op, config, verdict(&report), fingerprint)
        });
        // Phase 3 (sequential, execution order): fold into corpus/findings.
        let mut stats = GenerationStats {
            index: generations.len(),
            executions: results.len(),
            novel: 0,
            findings: 0,
        };
        for (id, parent, op, config, verdict, fingerprint) in results {
            if verdict.is_finding() {
                stats.findings += 1;
                findings.push(Finding {
                    seed: id,
                    verdict,
                    config: minimize_config(&config, verdict),
                });
            }
            let admitted = corpus.observe(CorpusEntry {
                id,
                parent,
                op,
                fingerprint,
                verdict: verdict.name().to_string(),
                config,
            });
            stats.novel += admitted as usize;
        }
        generations.push(stats);
        exec = batch_end;
    }
    CoverageOutcome {
        options: options.clone(),
        corpus,
        findings,
        generations,
        executions: options.seed_end - options.seed_start,
    }
}

/// Writes one pretty-printed JSON file per corpus entry under `dir` and
/// returns the paths, in discovery order.
pub fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<Vec<PathBuf>, String> {
    // The leading discovery index keeps filenames unique even when a
    // preloaded entry (from a previous run's id space) shares an exec id
    // with a fresh one, and makes lexicographic order = discovery order,
    // which is what `load_corpus` replays.
    crate::report::write_json_files(dir, corpus.entries(), |i, entry| {
        format!("corpus__{i:06}__exec{:06}.json", entry.id)
    })
}

/// Loads a persisted corpus directory: every `*.json` file under `dir`, in
/// lexicographic filename order (= discovery order for [`write_corpus`]
/// output). A missing directory is an empty corpus — the cache-miss case of
/// a CI corpus restored across runs — but an unreadable or malformed file
/// is a hard error, never silently skipped.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus directory {}: {e}", dir.display()))?
        .filter_map(|res| res.ok().map(|entry| entry.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths.iter().map(|path| load_corpus_entry(path)).collect()
}

/// Loads one corpus-entry file (the regression-replay test's reader).
pub fn load_corpus_entry(path: &Path) -> Result<CorpusEntry, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Verdict;
    use lumiere_sim::ProtocolKind;

    fn entry(id: u64, fingerprint: &str) -> CorpusEntry {
        CorpusEntry {
            id,
            parent: None,
            op: "sample".to_string(),
            fingerprint: fingerprint.to_string(),
            verdict: Verdict::Ok.name().to_string(),
            config: SimConfig::new(ProtocolKind::Lumiere, 4),
        }
    }

    #[test]
    fn corpus_admits_only_novel_fingerprints() {
        let mut corpus = Corpus::new();
        assert!(corpus.observe(entry(0, "a")));
        assert!(corpus.observe(entry(1, "b")));
        assert!(!corpus.observe(entry(2, "a")), "duplicate must be rejected");
        assert_eq!(corpus.len(), 2);
        assert!(corpus.seen("a") && corpus.seen("b") && !corpus.seen("c"));
    }

    #[test]
    fn parent_picks_are_deterministic_and_in_range() {
        let mut corpus = Corpus::new();
        for i in 0..20 {
            corpus.observe(entry(i, &format!("fp{i}")));
        }
        let picks_a: Vec<u64> = (0..50u64)
            .map(|s| corpus.pick(&mut exec_rng(s)).id)
            .collect();
        let picks_b: Vec<u64> = (0..50u64)
            .map(|s| corpus.pick(&mut exec_rng(s)).id)
            .collect();
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|id| *id < 20));
        // The recency bias actually reaches both halves of the corpus.
        assert!(picks_a.iter().any(|id| *id >= 12));
        assert!(picks_a.iter().any(|id| *id < 12));
    }

    #[test]
    fn corpus_files_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("lumiere-corpus-roundtrip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::new();
        corpus.observe(entry(3, "abc"));
        let paths = write_corpus(&dir, &corpus).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("corpus__000000__exec000003.json"));
        let loaded = load_corpus_entry(&paths[0]).unwrap();
        assert_eq!(&loaded, &corpus.entries()[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_persisted_corpus_reloads_in_discovery_order() {
        let dir =
            std::env::temp_dir().join(format!("lumiere-corpus-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::new();
        // Ids deliberately out of order: discovery order, not id order, is
        // what must survive the round trip.
        corpus.observe(entry(7, "abc"));
        corpus.observe(entry(2, "def"));
        corpus.observe(entry(5, "ghi"));
        write_corpus(&dir, &corpus).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded, corpus.entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preloaded_entries_for_another_protocol_are_skipped() {
        // A mutated child clones its parent's config, protocol included, so
        // a Lumiere entry preloaded into an lp22 run would fuzz Lumiere.
        let dir =
            std::env::temp_dir().join(format!("lumiere-corpus-protocol-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut preload = Corpus::new();
        preload.observe(CorpusEntry {
            config: crate::fuzz::sample_config(ProtocolKind::Lumiere, 0, true),
            ..entry(0, "lumiere-entry")
        });
        write_corpus(&dir, &preload).unwrap();
        let outcome = run_coverage_fuzz(&FuzzOptions {
            protocol: ProtocolKind::Lp22,
            seed_start: 0,
            seed_end: 8,
            threads: 2,
            corpus_in: Some(dir.clone()),
            ..FuzzOptions::default()
        });
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!outcome.corpus.is_empty());
        for entry in outcome.corpus.entries() {
            assert_eq!(
                entry.config.protocol,
                ProtocolKind::Lp22,
                "corpus entry {} ({}) left the requested protocol",
                entry.id,
                entry.op
            );
        }
    }

    #[test]
    fn loading_a_missing_corpus_directory_is_an_empty_preload() {
        let dir = std::env::temp_dir().join(format!(
            "lumiere-corpus-missing-{}-does-not-exist",
            std::process::id()
        ));
        assert_eq!(load_corpus(&dir).unwrap(), Vec::new());
    }
}
