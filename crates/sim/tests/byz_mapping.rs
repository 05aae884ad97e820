//! Pins the boot-time gates of the three paper-level Byzantine behaviours
//! (crash, silent leader, sync-silent) and of the equivocating and
//! leader-targeting strategies to what the simulator executes, so a
//! [`StrategyKind`] variant can never drift from the fault it models.

use lumiere_sim::{ProtocolObs, Strategy, StrategyCtx, StrategyKind};
use lumiere_types::{Duration, ProcessId, Time, View};

fn ctx() -> StrategyCtx {
    StrategyCtx {
        id: ProcessId::new(0),
        n: 4,
        now: Time::ZERO,
        obs: ProtocolObs {
            view: View::SENTINEL,
            engine_view: View::SENTINEL,
            leader: None,
            locked_view: View::SENTINEL,
            last_voted_view: View::SENTINEL,
            high_qc_view: View::SENTINEL,
            pending_qc_votes: 0,
            clock: Duration::ZERO,
            booted: false,
        },
    }
}

#[test]
fn crash_does_nothing() {
    let g = Strategy::new(StrategyKind::Crash).gates(&ctx());
    assert!(!g.consensus);
    assert!(!g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn silent_leader_participates_but_never_proposes() {
    let g = Strategy::new(StrategyKind::SilentLeader).gates(&ctx());
    assert!(g.consensus);
    assert!(g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn sync_silent_votes_but_does_not_synchronize() {
    let g = Strategy::new(StrategyKind::SyncSilent).gates(&ctx());
    assert!(g.consensus);
    assert!(!g.pacemaker);
    assert!(!g.proposes);
}

#[test]
fn equivocate_runs_fully_open() {
    let g = Strategy::new(StrategyKind::Equivocate).gates(&ctx());
    assert!(g.consensus);
    assert!(g.pacemaker);
    assert!(g.proposes);
}

#[test]
fn adaptive_leader_targeting_participates_but_never_proposes() {
    let g = Strategy::new(StrategyKind::AdaptiveLeaderTargeting).gates(&ctx());
    assert!(g.consensus);
    assert!(g.pacemaker);
    assert!(!g.proposes);
}
