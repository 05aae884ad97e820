//! Property tests over the pluggable adversary subsystem: randomly sampled
//! strategy assignments and delay schedules — for clusters up to n = 31 —
//! must never break the safety invariant, and every delay the schedule can
//! produce must respect the partial-synchrony envelope
//! `delivery ≤ max(GST, send) + Δ`. Failing cases are shrunk to minimal
//! counterexamples by the vendored proptest's greedy shrinker.

use lumiere::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministically expands compact proptest arguments into an adversary
/// schedule: each corrupted processor draws one of the five strategies,
/// plus up to two delay rules.
fn schedule_from(
    n: usize,
    f_a: usize,
    strategy_seed: u64,
    rule_seed: u64,
    rules: usize,
) -> AdversarySchedule {
    let mut schedule = AdversarySchedule::new();
    for (slot, id) in (n - f_a..n).enumerate() {
        let pick = (strategy_seed >> (slot * 3)) % 5;
        let strategy = match pick {
            0 => StrategyKind::Crash,
            1 => StrategyKind::SilentLeader,
            2 => StrategyKind::SyncSilent,
            3 => StrategyKind::Equivocate,
            _ => {
                let from = Time::from_millis(((strategy_seed >> (slot * 5)) % 400) as i64);
                StrategyKind::CrashRecovery {
                    down: TimeRange::new(from, from + Duration::from_millis(250)),
                }
            }
        };
        schedule = schedule.corrupt(id, strategy);
    }
    for slot in 0..rules {
        let bits = rule_seed >> (slot * 7);
        let edge = EdgeClass::ALL[(bits % EdgeClass::ALL.len() as u64) as usize];
        let msg = MsgClass::ALL[((bits >> 3) % MsgClass::ALL.len() as u64) as usize];
        let delay = match (bits >> 5) % 3 {
            0 => DelayModel::AdversarialMax,
            1 => DelayModel::Fixed {
                delta: Duration::from_millis(1 + (bits % 9) as i64),
            },
            _ => DelayModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(2 + (bits % 8) as i64),
            },
        };
        let window = if bits.is_multiple_of(2) {
            TimeRange::always()
        } else {
            let from = Time::from_millis(((bits >> 8) % 500) as i64);
            TimeRange::new(from, from + Duration::from_millis(800))
        };
        schedule = schedule.rule(DelayRule {
            edge,
            msg,
            window,
            delay,
        });
    }
    schedule
}

/// The acceptance scenario behind the adversary sweep: under equivocation
/// and targeted partition at `f_a = f`, Lumiere's honest-commit latency
/// stays within its Θ(nΔ) envelope while the naive baseline pays
/// quadratically more communication per decision.
#[test]
fn equivocation_and_partition_degrade_naive_but_not_lumiere() {
    let n = 10;
    let f = (n - 1) / 3;
    let ids: Vec<usize> = (n - f..n).collect();
    let delta = Duration::from_millis(10);
    for schedule in [
        AdversarySchedule::uniform(&ids, StrategyKind::Equivocate),
        AdversarySchedule::targeted_partition(&ids, Duration::from_millis(1)),
    ] {
        let run = |protocol: ProtocolKind| {
            SimConfig::new(protocol, n)
                .with_delta(delta)
                .with_actual_delay(Duration::from_millis(1))
                .with_adversary(schedule.clone())
                .with_horizon(Duration::from_secs(6))
                .with_seed(17)
                .run()
        };
        let lumiere = run(ProtocolKind::Lumiere);
        let naive = run(ProtocolKind::Naive);
        for report in [&lumiere, &naive] {
            assert!(report.safety_ok, "{}: safety violated", report.protocol);
            assert!(!report.truncated);
            assert!(report.decisions() > 0, "{}: stalled", report.protocol);
        }
        // Θ-bound envelope: eventual worst-case honest-commit latency stays
        // O(nΔ) with a small constant for Lumiere.
        let warmup = lumiere.default_warmup();
        let worst = lumiere
            .eventual_worst_latency(warmup)
            .expect("lumiere keeps committing");
        assert!(
            worst <= delta * (4 * n as i64),
            "lumiere latency {worst} escaped its Θ(nΔ) envelope"
        );
        // Degradation: the naive all-to-all baseline pays strictly more
        // honest messages per decision than Lumiere under the same attack.
        let per_decision = |r: &SimReport| r.total_messages() as f64 / r.decisions() as f64;
        assert!(
            per_decision(&naive) > per_decision(&lumiere),
            "naive ({:.1} msgs/decision) should degrade past lumiere ({:.1})",
            per_decision(&naive),
            per_decision(&lumiere)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Safety (`check_safety`) holds under randomly sampled adversary
    /// schedules for clusters up to n = 31, and no run is silently
    /// truncated.
    #[test]
    fn safety_holds_under_random_adversary_schedules(
        n in 4usize..32,
        fault_fraction in 0u64..3,
        strategy_seed in 0u64..1_000_000_000,
        rule_seed in 0u64..1_000_000_000,
        rules in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let f = (n - 1) / 3;
        let f_a = (f * fault_fraction as usize).div_euclid(2).min(f); // 0, f/2 or f
        let schedule = schedule_from(n, f_a, strategy_seed, rule_seed, rules);
        let report = SimConfig::new(ProtocolKind::Lumiere, n)
            .with_delta(Duration::from_millis(10))
            .with_actual_delay(Duration::from_millis(1))
            .with_adversary(schedule)
            .with_horizon(Duration::from_secs(3))
            .with_max_honest_qcs(12)
            .with_seed(seed)
            .run();
        prop_assert!(report.safety_ok, "n={}, f_a={}: safety violated", n, f_a);
        prop_assert!(!report.truncated, "n={}: run silently truncated", n);
        prop_assert!(report.decisions() > 0, "n={}, f_a={}: no decisions", n, f_a);
    }

    /// The Δ-envelope: whatever delay rule a random schedule selects for an
    /// edge, the delivery time stays within `max(GST, send) + Δ` (and never
    /// precedes the send or GST).
    #[test]
    fn delay_rules_respect_the_partial_synchrony_envelope(
        n in 4usize..32,
        fault_fraction in 1u64..3,
        strategy_seed in 0u64..1_000_000_000,
        rule_seed in 0u64..1_000_000_000,
        rules in 1usize..3,
        send_ms in 0i64..2_000,
        gst_ms in 0i64..500,
        rng_seed in 0u64..1_000,
    ) {
        let f = (n - 1) / 3;
        let f_a = ((f * fault_fraction as usize).div_euclid(2)).max(1).min(f);
        let schedule = schedule_from(n, f_a, strategy_seed, rule_seed, rules);
        let delta_cap = Duration::from_millis(10);
        let gst = Time::from_millis(gst_ms);
        let send = Time::from_millis(send_ms);
        let probe = lumiere_runtime::WireMessage::Consensus(
            lumiere_consensus::ConsensusMessage::NewQc(QuorumCert::genesis()),
        );
        let mut rng = StdRng::seed_from_u64(rng_seed);
        for (from_honest, to_honest) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let model = schedule
                .delay_for(from_honest, to_honest, &probe, send)
                .unwrap_or(DelayModel::Fixed { delta: Duration::from_millis(1) });
            let at = model.delivery_time(send, gst, delta_cap, &mut rng);
            prop_assert!(
                at <= send.max(gst) + delta_cap,
                "delivery {at} beyond the Δ envelope (send {send}, gst {gst})"
            );
            prop_assert!(at >= send.max(gst), "delivery {at} before max(GST, send)");
        }
    }
}
