//! The coverage-guided loop's acceptance test: at an equal execution
//! budget, the corpus + structural-mutation loop must reach strictly more
//! distinct coverage fingerprints than the flat seed sampler — one fresh
//! `sample_config` per execution id — otherwise the whole subsystem is
//! decoration. Also pins the basic shape of the outcome (generation
//! accounting, corpus growth, zero findings on stock Lumiere).

use lumiere_bench::corpus::run_coverage_fuzz;
use lumiere_bench::fuzz::{sample_config, verdict, FuzzOptions, Verdict};
use lumiere_sim::ProtocolKind;
use std::collections::BTreeSet;

/// The budget at which the separation is asserted. Empirically the
/// coverage loop pulls ahead from ~60 executions on and widens from there
/// (see `docs/ADVERSARIES.md`); 100 keeps the tier-1 runtime small while
/// leaving a solid margin.
const BUDGET: u64 = 100;

#[test]
fn coverage_loop_beats_the_flat_sampler_at_an_equal_budget() {
    let options = FuzzOptions {
        seed_start: 0,
        seed_end: BUDGET,
        threads: 2,
        ..FuzzOptions::default()
    };
    // The flat sampler: every id drawn independently, no corpus.
    let flat_runs = lumiere_bench::run_grid((0..BUDGET).collect(), 2, |id| {
        let report = sample_config(ProtocolKind::Lumiere, id, true).run();
        (id, verdict(&report), report.coverage.key())
    });
    let flat = flat_runs
        .iter()
        .map(|(_, _, key)| key)
        .collect::<BTreeSet<_>>()
        .len();
    let coverage = run_coverage_fuzz(&options);
    assert!(
        coverage.distinct_fingerprints() > flat,
        "coverage-guided search must out-explore blind sampling at an equal \
         budget: coverage reached {} distinct fingerprints, flat reached {flat}",
        coverage.distinct_fingerprints(),
    );
    // Stock Lumiere survives both searches.
    for (id, verdict, _) in &flat_runs {
        assert_eq!(*verdict, Verdict::Ok, "flat sampler found seed {id}");
    }
    assert!(
        coverage.findings.is_empty(),
        "coverage loop found:\n{}",
        coverage.render()
    );
    // Generation accounting adds up and the corpus actually grew.
    assert_eq!(coverage.executions, BUDGET);
    let counted: usize = coverage.generations.iter().map(|g| g.executions).sum();
    assert_eq!(counted as u64, BUDGET);
    let novel: usize = coverage.generations.iter().map(|g| g.novel).sum();
    assert_eq!(novel, coverage.corpus.len());
    assert!(coverage.corpus.len() > BUDGET as usize / 2);
    // Mutated entries exist and record their parent and operator chain.
    assert!(
        coverage
            .corpus
            .entries()
            .iter()
            .any(|e| e.parent.is_some() && e.op != "sample"),
        "no mutated entry ever entered the corpus"
    );
}

#[test]
fn corpus_entries_replay_to_their_recorded_fingerprint() {
    // The corpus is only useful if an entry's config reproduces its
    // fingerprint and verdict exactly; spot-check a few live entries.
    let options = FuzzOptions {
        seed_start: 0,
        seed_end: 24,
        threads: 2,
        ..FuzzOptions::default()
    };
    let outcome = run_coverage_fuzz(&options);
    for entry in outcome.corpus.entries().iter().take(5) {
        let report = entry.config.clone().run();
        assert_eq!(
            report.coverage.key(),
            entry.fingerprint,
            "entry {} does not replay to its fingerprint",
            entry.id
        );
        assert_eq!(
            lumiere_bench::fuzz::verdict(&report).name(),
            entry.verdict,
            "entry {} does not replay to its verdict",
            entry.id
        );
    }
}
