//! Cured-server rejoin under the mobile-Byzantine adversary, on both
//! substrates: when the roaming seat vacates a server, the server comes
//! back **amnesiac** (state re-corrupted, not a clean restart) and must
//! reconverge; its post-cure window is excluded from regularity scrutiny
//! until the first completed stabilizing write (paper assumption A1).

use sbft::net::nemesis::{CureMode, NemesisEvent, NemesisSchedule};
use sbft::net::{Backend, CorruptionSeverity};
use sbft::register::adversary::ByzStrategy;
use sbft::register::cluster::RegisterCluster;
use sbft::register::{RetryPolicy, WindowTracker};

const MAX_ROUNDS: u64 = 400;

/// One seat movement at `t = 2000` (5 → 2), amnesiac cure, then a
/// write/read workload to the end. Returns (cluster history verdicts):
/// windows recorded by the cure-aware tracker, the time of the cure, and
/// the time of the first completed post-cure all-clear write.
fn run_rejoin(backend: Backend, seed: u64) {
    let byz_seat = 5usize;
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, ByzStrategy::Equivocate)
        .seed(seed)
        .backend(backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = c.cfg().n + 2;
    let schedule =
        NemesisSchedule::scripted(vec![(2_000, NemesisEvent::MoveByz { from: byz_seat, to: 2 })]);
    let mut runner = c
        .nemesis_runner(schedule, vec![byz_seat], ByzStrategy::Equivocate)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Heavy });

    let (w, r) = (c.client(0), c.client(1));
    let mut tracker = WindowTracker::new();
    let mut value = 1u64;

    let first = c.write_outcome(w, value);
    assert!(first.is_ok(), "pre-movement write must complete: {first:?}");
    tracker.write_completed(c.now(), true);
    assert!(tracker.is_open());

    let mut cure_seen = false;
    let mut converged_after_cure = false;
    let mut rounds = 0u64;
    while rounds < MAX_ROUNDS && (!runner.done() || !converged_after_cure) {
        rounds += 1;
        let before = c.now();
        runner.fire_due(&mut c.sim);
        if !cure_seen && !runner.cures.is_empty() {
            let (at, pid) = runner.cures[0];
            assert_eq!(pid, byz_seat, "the vacated server is the cured one");
            tracker.cured(pid, at.max(c.now()));
            cure_seen = true;
            // A1 exclusion: the seat moved and the nemesis already
            // reports all-clear (movement is instantaneous), but the
            // cured server is unconverged — no stable window may be open
            // until a converging write completes.
            assert!(runner.all_clear());
            assert!(!tracker.is_open(), "cure must close the stable window");
            assert!(tracker.unconverged().contains(&byz_seat));
        }

        value += 1;
        let wout = c.write_outcome(w, value);
        if wout.is_ok() {
            tracker.write_completed(c.now(), runner.all_clear());
            if cure_seen && !converged_after_cure && tracker.unconverged().is_empty() {
                converged_after_cure = true;
                assert!(tracker.is_open(), "converging write reopens the window");
            }
        }
        let _ = c.read_outcome(r);

        // Fast-forward valve: the sim needs it when the schedule's clock
        // outruns quiesced virtual time; the threaded backend needs the
        // round bound instead — its wall clock always advances but may
        // never reach the scripted time within the round budget.
        if !runner.done() && (c.now() == before || rounds >= 50) {
            runner.fire_next(&mut c.sim);
        }
    }
    assert!(cure_seen, "the scripted movement never fired");
    assert!(converged_after_cure, "no post-cure write completed in {MAX_ROUNDS} rounds");

    // The cured server functionally reconverged: the register still
    // serves fresh values through the new seat configuration.
    value += 1;
    assert!(c.write_outcome(w, value).is_ok(), "post-cure write");
    let got = c.read_outcome(r);
    let read = got.ok().expect("post-cure read completes");
    assert_eq!(read.value, value, "post-cure read returns the converged value");

    // Seat bookkeeping: the adversary now sits on server 2 only.
    assert_eq!(runner.byz_seats().iter().copied().collect::<Vec<_>>(), vec![2]);

    // Every cure-aware stable window is regular; the cure-to-convergence
    // gap is outside all of them by construction.
    c.settle(200_000);
    let windows = tracker.finish(u64::MAX);
    assert!(windows.len() >= 2, "expected windows on both sides of the cure: {windows:?}");
    for (start, end) in windows {
        assert!(
            c.recorder.check_window(&c.sys, start, end).is_ok(),
            "stable window [{start}, {end}] must be regular"
        );
    }
    c.stop();
}

#[test]
fn amnesiac_rejoin_reconverges_on_sim() {
    run_rejoin(Backend::Sim, 9);
}

#[test]
fn amnesiac_rejoin_reconverges_on_threads() {
    run_rejoin(Backend::Threaded, 9);
}

/// Sim-only introspection: after the movement the vacated pid runs an
/// *honest* server automaton again (the adversary really left), and the
/// destination no longer does.
#[test]
fn vacated_seat_restarts_honest() {
    let byz_seat = 5usize;
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, ByzStrategy::StaleReplay)
        .seed(3)
        .retry(RetryPolicy::chaos())
        .build();
    let total_procs = c.cfg().n + 2;
    let schedule =
        NemesisSchedule::scripted(vec![(1_000, NemesisEvent::MoveByz { from: byz_seat, to: 0 })]);
    let mut runner = c
        .nemesis_runner(schedule, vec![byz_seat], ByzStrategy::StaleReplay)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Light });

    let w = c.client(0);
    assert!(c.server_state(byz_seat).is_none(), "seat starts Byzantine");
    assert!(c.server_state(0).is_some(), "destination starts honest");

    let mut value = 0u64;
    while !runner.done() {
        value += 1;
        let _ = c.write_outcome(w, value);
        runner.fire_due(&mut c.sim);
    }
    assert!(c.server_state(byz_seat).is_some(), "vacated seat must rejoin honest");
    assert!(c.server_state(0).is_none(), "destination must now be the adversary");
    assert_eq!(runner.cures.len(), 1);

    // And the wiped server still lets the cluster make progress.
    value += 1;
    assert!(c.write_outcome(w, value).is_ok());
    c.stop();
}
