//! The soundness gate: every verdict a campaign reports is replayed with
//! the two-valued bit-parallel simulator `motsim::simb`, which shares no
//! code with the three-valued or the BDD engines.
//!
//! A fault detected at frame `d` must be detected under every pair of
//! initial states (x of the fault-free machine, y of the faulty one), by
//! every strategy: for each pair, some output must differ at some frame
//! `<= d`. The gate draws 64 pairs from the workload seed, one per bit lane.
//! Lanes 0..32 give both machines the same initial state: on a circuit that
//! does not synchronize, two different states alone make the outputs
//! differ, and only equal states expose a verdict the fault did not earn.
//! Three-valued and SOT verdicts claim more: at frame `d` the reported
//! output differs under every pair, and the gate checks that too.
//! An outcome with more than `MAX_REPLAYS` detections has a sample of
//! them replayed, drawn from the workload seed.

use std::collections::BTreeSet;

use motsim::simb::{eval_frame_u64, next_state_u64};
use motsim::{Fault, SimOutcome, TestSequence};
use motsim_netlist::Netlist;
use motsim_rng::SmallRng;

use crate::flow::{shuffle, Campaign, Inputs, Workload};

/// Lanes whose two machines start from the same state.
const SAME_STATE_LANES: u64 = 0x0000_0000_ffff_ffff;

/// Detections replayed per outcome; beyond this a seeded sample is.
const MAX_REPLAYS: usize = 500;

/// The initial states of both machines, one pair per bit lane.
#[derive(Debug, Clone)]
struct Pairs {
    good: Vec<u64>,
    faulty: Vec<u64>,
}

impl Pairs {
    /// Draws 64 pairs for `netlist` from `seed`.
    fn new(netlist: &Netlist, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_9a7e);
        let good: Vec<u64> = (0..netlist.num_dffs()).map(|_| rng.next_u64()).collect();
        let faulty = good
            .iter()
            .map(|&x| (x & SAME_STATE_LANES) | (rng.next_u64() & !SAME_STATE_LANES))
            .collect();
        Pairs { good, faulty }
    }
}

/// Replays one machine from `state`, calling `frame(t, outputs)` after each
/// frame until it returns `false` or the sequence ends.
fn replay_machine(
    netlist: &Netlist,
    seq: &TestSequence,
    state: &[u64],
    fault: Option<Fault>,
    mut frame: impl FnMut(usize, &[u64]) -> bool,
) {
    let mut state = state.to_vec();
    let mut values = Vec::new();
    let mut outputs = vec![0u64; netlist.num_outputs()];
    for (t, v) in seq.iter().enumerate() {
        let inputs: Vec<u64> = v.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        eval_frame_u64(netlist, &state, &inputs, fault, &mut values);
        for (o, &net) in outputs.iter_mut().zip(netlist.outputs()) {
            *o = values[net.index()];
        }
        if !frame(t, &outputs) {
            return;
        }
        next_state_u64(netlist, &values, fault, &mut state);
    }
}

/// The fault-free machine's outputs, per frame, under the pairs' good states.
fn good_outputs(netlist: &Netlist, seq: &TestSequence, pairs: &Pairs) -> Vec<Vec<u64>> {
    let mut frames = Vec::with_capacity(seq.len());
    replay_machine(netlist, seq, &pairs.good, None, |_, out| {
        frames.push(out.to_vec());
        true
    });
    frames
}

/// Replays the detections of `outcome` (all, or a sample of
/// `MAX_REPLAYS` drawn from `seed`). `strict` adds the single-output check
/// of three-valued and SOT verdicts.
///
/// # Errors
///
/// Names the first fault whose verdict the replay refutes.
fn replay(
    netlist: &Netlist,
    seq: &TestSequence,
    outcome: &SimOutcome,
    pairs: &Pairs,
    good: &[Vec<u64>],
    strict: bool,
    seed: u64,
) -> Result<(), String> {
    let mut detected: Vec<_> = outcome
        .results
        .iter()
        .filter(|r| r.detection.is_some())
        .collect();
    if detected.len() > MAX_REPLAYS {
        shuffle(
            &mut detected,
            &mut SmallRng::seed_from_u64(seed ^ 0x005a_3b1e),
        );
        detected.truncate(MAX_REPLAYS);
    }
    for r in detected {
        let Some(det) = r.detection else { continue };
        if det.frame >= seq.len() || det.output >= netlist.num_outputs() {
            return Err(format!(
                "{} detected at frame {} output {}, outside the run",
                r.fault.display(netlist),
                det.frame,
                det.output
            ));
        }
        let mut distinguished = 0u64;
        let mut at_output = u64::MAX;
        replay_machine(netlist, seq, &pairs.faulty, Some(r.fault), |t, out| {
            for (o, (&g, &f)) in good[t].iter().zip(out).enumerate() {
                distinguished |= g ^ f;
                if strict && t == det.frame && o == det.output {
                    at_output = g ^ f;
                }
            }
            t < det.frame && (strict || distinguished != u64::MAX)
        });
        if distinguished != u64::MAX {
            return Err(format!(
                "{} detected at frame {}, but {} of 64 initial-state pairs \
                 give equal outputs up to that frame",
                r.fault.display(netlist),
                det.frame,
                (!distinguished).count_ones()
            ));
        }
        if at_output != u64::MAX {
            return Err(format!(
                "{} detected at frame {} on output {}, but that output agrees \
                 there under {} of 64 initial-state pairs",
                r.fault.display(netlist),
                det.frame,
                det.output,
                (!at_output).count_ones()
            ));
        }
    }
    Ok(())
}

/// Checks sim3 ⊆ SOT ⊆ rMOT ⊆ MOT over the whole fault list, and that no
/// strategy run lost accuracy to the node limit.
///
/// # Errors
///
/// Describes the first violation.
fn containment(c: &Campaign) -> Result<(), String> {
    let base: BTreeSet<Fault> = c.sim3.detected_faults().collect();
    let mut previous = ("sim3", base.clone());
    for (name, outcome) in c.outcomes().skip(1) {
        if outcome.is_approximate() {
            return Err(format!(
                "{name} fell back for {} frame(s) or skipped {} term(s) on an exact workload",
                outcome.fallback_frames, outcome.degraded_terms
            ));
        }
        let set: BTreeSet<Fault> = base
            .iter()
            .copied()
            .chain(outcome.detected_faults())
            .collect();
        if let Some(f) = previous.1.difference(&set).next() {
            return Err(format!("{} detects {f} but {name} does not", previous.0));
        }
        previous = (name, set);
    }
    Ok(())
}

/// The whole gate for one campaign: replay every detection, and on exact
/// workloads check containment.
///
/// # Errors
///
/// Describes the first violation.
pub fn check(w: &Workload, inputs: &Inputs, c: &Campaign, seed: u64) -> Result<(), String> {
    let pairs = Pairs::new(&inputs.netlist, seed);
    let good = good_outputs(&inputs.netlist, &inputs.seq, &pairs);
    for (name, outcome) in c.outcomes() {
        let strict = matches!(name, "sim3" | "sot");
        replay(
            &inputs.netlist,
            &inputs.seq,
            outcome,
            &pairs,
            &good,
            strict,
            seed,
        )
        .map_err(|e| format!("{name}: {e}"))?;
    }
    if w.exact {
        containment(c)?;
    }
    Ok(())
}
