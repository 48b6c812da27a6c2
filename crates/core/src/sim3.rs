//! Three-valued true-value and fault simulation (the `X01` baseline).
//!
//! The circuit starts in the all-`X` state (unknown initial state). The
//! [`TrueSim`] runs the fault-free machine; [`FaultSim3`] additionally
//! simulates every fault, 64 faulty machines at a time in dual-rail words
//! (two bitplanes per net, `X` being a lane with neither bit set), under
//! the three-valued SOT detection rule: a fault is detected at a primary
//! output when the fault-free value is a known `0`/`1`, the faulty value is
//! known, and they differ. As the paper (after \[11\]) notes, this only
//! establishes a *lower bound* on the true fault coverage — that gap is
//! what the symbolic engines close.

use std::sync::Arc;

use motsim_logic::V3;
use motsim_netlist::{NetId, Netlist};
use motsim_trace::{TraceEvent, TraceSink};

use crate::faults::Fault;
use crate::frame::{self, DualRail, FramePlan, Injection};
use crate::pattern::TestSequence;
use crate::report::{Detection, FaultOutcome, SimOutcome};

/// Three-valued true-value (fault-free) simulator with a per-frame API.
#[derive(Debug, Clone)]
pub struct TrueSim<'a> {
    netlist: &'a Netlist,
    state: Vec<V3>,
    values: Vec<V3>,
    frame: usize,
}

impl<'a> TrueSim<'a> {
    /// Creates a simulator in the all-`X` initial state.
    pub fn new(netlist: &'a Netlist) -> Self {
        TrueSim {
            netlist,
            state: vec![V3::X; netlist.num_dffs()],
            values: vec![V3::X; netlist.num_nets()],
            frame: 0,
        }
    }

    /// Applies one input vector; afterwards [`values`](Self::values) holds
    /// the three-valued value of every net and the state has advanced.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the circuit's input count.
    pub fn step(&mut self, inputs: &[bool]) {
        let n = self.netlist;
        let Ok(()) = frame::eval_frame(n, &V3::X, &self.state, inputs, None, &mut self.values);
        frame::next_state(n, &V3::X, &self.values, None, &mut self.state);
        self.frame += 1;
    }

    /// Per-net values of the most recent frame (all `X` before any step).
    pub fn values(&self) -> &[V3] {
        &self.values
    }

    /// The value of `net` in the most recent frame.
    pub fn value(&self, net: NetId) -> V3 {
        self.values[net.index()]
    }

    /// Primary-output values of the most recent frame.
    pub fn outputs(&self) -> Vec<V3> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// The present state (after the last step).
    pub fn state(&self) -> &[V3] {
        &self.state
    }

    /// Frames simulated so far.
    pub fn frames(&self) -> usize {
        self.frame
    }
}

/// Up to 64 faults simulated together, one per lane.
#[derive(Debug, Clone)]
struct Group {
    /// The record (index into [`FaultSim3::faults`]) in each lane,
    /// ascending.
    records: Vec<u32>,
    /// Lanes whose fault is not yet detected.
    live: u64,
    /// The faulty present state of every lane, per flip-flop.
    state: Vec<DualRail>,
    inj: Injection,
}

impl Group {
    /// Packs `records` into lanes `0..`, with the injection table of their
    /// faults; `fill(lane, state)` writes each lane's present state.
    fn pack(
        plan: &FramePlan,
        netlist: &Netlist,
        faults: &[Fault],
        records: Vec<u32>,
        mut fill: impl FnMut(u32, &mut [DualRail]),
    ) -> Group {
        let mut state = vec![DualRail::X; plan.num_dffs()];
        for lane in 0..records.len() as u32 {
            fill(lane, &mut state);
        }
        let group_faults: Vec<Fault> = records.iter().map(|&r| faults[r as usize]).collect();
        Group {
            live: u64::MAX >> (64 - records.len()),
            inj: plan.injection(netlist, &group_faults),
            records,
            state,
        }
    }
}

/// The lanes set in `mask`, ascending.
fn lanes(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros();
            mask &= mask - 1;
            l
        })
    })
}

/// Dual-rail bit-parallel three-valued fault simulator.
///
/// The faults are packed into groups of up to 64, one per lane of a
/// dual-rail word pair per net ([`frame`] module docs): lane `l` is `1`
/// when bit `l` of the `one` word is set, `0` when bit `l` of the `zero`
/// word is, and `X` when neither is. Per frame, the fault-free machine and
/// every group are evaluated through one compiled frame plan, each group
/// with its faults forced as lane masks; gate evaluation on the two words
/// is Kleene logic in every lane, so each lane computes exactly its
/// fault's three-valued frame. A lane is detected at the lowest-numbered
/// output where the fault-free value is known and the faulty value is the
/// opposite known value, and is then dropped. When the live faults fit in
/// two thirds of the groups, they are repacked lane by lane into as few
/// groups as they need, in the original fault order.
///
/// # Example
///
/// ```
/// use motsim::faults::FaultList;
/// use motsim::pattern::TestSequence;
/// use motsim::sim3::FaultSim3;
///
/// let circuit = motsim_circuits::s27();
/// let faults = FaultList::collapsed(&circuit);
/// let seq = TestSequence::random(&circuit, 100, 7);
/// let outcome = FaultSim3::run(&circuit, &seq, faults.iter().cloned());
/// assert!(outcome.num_detected() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultSim3<'a> {
    netlist: &'a Netlist,
    /// Shared by clones (test generation clones a simulator per candidate
    /// vector).
    plan: Arc<FramePlan>,
    faults: Vec<Fault>,
    detections: Vec<Option<Detection>>,
    groups: Vec<Group>,
    true_state: Vec<V3>,
    /// Per-slot values of the frame being evaluated.
    vals: Vec<DualRail>,
    frame: usize,
    trace_offset: usize,
}

impl<'a> FaultSim3<'a> {
    /// Creates a simulator for the given fault set, in the all-`X` state.
    pub fn new(netlist: &'a Netlist, faults: impl IntoIterator<Item = Fault>) -> Self {
        let unknown = vec![V3::X; netlist.num_dffs()];
        let faulty = faults.into_iter().map(|f| (f, unknown.clone()));
        FaultSim3::with_states(netlist, &unknown, faulty)
    }

    /// Sets the offset added to the internal frame counter when labelling
    /// trace events (the simulation itself is unaffected). The hybrid
    /// simulator, which builds a fresh `FaultSim3` per fallback phase, sets
    /// this to the phase's global start frame so [`TraceEvent::TvFrame`]
    /// events number frames of the whole run, not of the phase.
    pub fn set_trace_frame_offset(&mut self, offset: usize) {
        self.trace_offset = offset;
    }

    /// Creates a simulator whose fault-free and faulty machines start from
    /// given (partially known) three-valued states — the hybrid simulator's
    /// entry into a fallback phase. With a fully known state this is fault
    /// simulation from a known reset, where every value stays binary.
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::faults::FaultList;
    /// use motsim::pattern::TestSequence;
    /// use motsim::sim3::FaultSim3;
    /// use motsim_logic::V3;
    ///
    /// let circuit = motsim_circuits::s27();
    /// let faults = FaultList::collapsed(&circuit);
    /// let seq = TestSequence::random(&circuit, 50, 1);
    /// let reset = vec![V3::Zero; circuit.num_dffs()];
    /// let seeded = faults.iter().map(|&f| (f, reset.clone()));
    /// let mut sim = FaultSim3::with_states(&circuit, &reset, seeded);
    /// for v in &seq {
    ///     sim.step(v);
    /// }
    /// let unknown = FaultSim3::run(&circuit, &seq, faults.iter().cloned());
    /// assert!(sim.outcome().num_detected() >= unknown.num_detected());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any state width does not match the flip-flop count.
    pub fn with_states(
        netlist: &'a Netlist,
        true_state: &[V3],
        faulty: impl IntoIterator<Item = (Fault, Vec<V3>)>,
    ) -> Self {
        let m = netlist.num_dffs();
        assert_eq!(true_state.len(), m, "state width mismatch");
        let plan = Arc::new(FramePlan::new(netlist));
        let (faults, states): (Vec<Fault>, Vec<Vec<V3>>) = faulty
            .into_iter()
            .inspect(|(_, s)| assert_eq!(s.len(), m, "faulty state width mismatch"))
            .unzip();
        let records: Vec<u32> = (0..faults.len() as u32).collect();
        let groups = records
            .chunks(64)
            .map(|chunk| {
                Group::pack(&plan, netlist, &faults, chunk.to_vec(), |lane, state| {
                    let from = &states[chunk[lane as usize] as usize];
                    for (q, &v) in state.iter_mut().zip(from) {
                        q.move_lane(lane, DualRail::splat(v), 0);
                    }
                })
            })
            .collect();
        FaultSim3 {
            netlist,
            plan,
            detections: vec![None; faults.len()],
            faults,
            groups,
            true_state: true_state.to_vec(),
            vals: Vec::new(),
            frame: 0,
            trace_offset: 0,
        }
    }

    /// The present faulty state of every live fault (for handing back to a
    /// symbolic phase), in the order the faults were given.
    pub fn faulty_states(&self) -> Vec<(Fault, Vec<V3>)> {
        self.groups
            .iter()
            .flat_map(|g| {
                lanes(g.live).map(move |l| {
                    let state = g.state.iter().map(|q| q.lane(l)).collect();
                    (self.faults[g.records[l as usize] as usize], state)
                })
            })
            .collect()
    }

    /// Convenience: run a whole sequence and collect the outcome.
    pub fn run(
        netlist: &'a Netlist,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
    ) -> SimOutcome {
        let mut sim = FaultSim3::new(netlist, faults);
        for v in seq {
            sim.step(v);
        }
        sim.outcome()
    }

    /// Number of faults not yet detected.
    pub fn live_faults(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.live.count_ones() as usize)
            .sum()
    }

    /// The fault-free machine's present state.
    pub fn true_state(&self) -> &[V3] {
        &self.true_state
    }

    /// Per-fault results collected so far.
    pub fn outcome(&self) -> SimOutcome {
        let mut outcome = SimOutcome {
            results: self
                .faults
                .iter()
                .zip(&self.detections)
                .map(|(&fault, &detection)| FaultOutcome { fault, detection })
                .collect(),
            frames: self.frame,
            fallback_frames: 0,
            degraded_terms: 0,
            bdd: Default::default(),
        };
        outcome.sort_by_fault();
        outcome
    }

    /// Applies one input vector to the fault-free machine and every live
    /// faulty machine; returns the faults newly detected in this frame, in
    /// the order the faults were given, each with its full [`Detection`]
    /// (frame plus the detecting output), so callers embedding this
    /// engine — the hybrid's fallback phases in particular — can report the
    /// real output index.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the circuit's input count.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<(Fault, Detection)> {
        let plan = &*self.plan;
        let fault_free = Injection::default();
        let mut state: Vec<DualRail> = self
            .true_state
            .iter()
            .map(|&v| DualRail::splat(v))
            .collect();
        plan.eval(&fault_free, inputs, &state, &mut self.vals);
        let good: Vec<DualRail> = plan.outputs(&self.vals).collect();
        plan.next_state(&fault_free, &self.vals, &mut state);
        self.true_state = state.iter().map(|q| q.lane(0)).collect();

        let mut newly = Vec::new();
        for g in &mut self.groups {
            plan.eval(&g.inj, inputs, &g.state, &mut self.vals);
            // Observation: three-valued SOT rule, lowest output first.
            let mut hit = 0u64;
            for (j, (tv, fv)) in good.iter().zip(plan.outputs(&self.vals)).enumerate() {
                let diff = tv.differs(fv) & g.live & !hit;
                for l in lanes(diff) {
                    self.detections[g.records[l as usize] as usize] = Some(Detection {
                        frame: self.frame,
                        output: j,
                    });
                }
                hit |= diff;
            }
            plan.next_state(&g.inj, &self.vals, &mut g.state);
            newly.extend(lanes(hit).map(|l| {
                let r = g.records[l as usize] as usize;
                (self.faults[r], self.detections[r].expect("just detected"))
            }));
            g.live &= !hit;
        }
        let live = self.live_faults();
        if 3 * live.div_ceil(64) <= 2 * self.groups.len() {
            self.repack();
        }
        self.frame += 1;
        newly
    }

    /// Moves the live lanes, in order, into as few groups as they need.
    fn repack(&mut self) {
        let old = std::mem::take(&mut self.groups);
        let live: Vec<(&Group, u32)> = old
            .iter()
            .flat_map(|g| lanes(g.live).map(move |l| (g, l)))
            .collect();
        self.groups = live
            .chunks(64)
            .map(|chunk| {
                let records = chunk.iter().map(|&(g, l)| g.records[l as usize]).collect();
                Group::pack(
                    &self.plan,
                    self.netlist,
                    &self.faults,
                    records,
                    |lane, state| {
                        let (from, l) = chunk[lane as usize];
                        for (q, src) in state.iter_mut().zip(&from.state) {
                            q.move_lane(lane, *src, l);
                        }
                    },
                )
            })
            .collect();
    }

    /// Like [`step`](Self::step), additionally reporting the frame to
    /// `sink` as one [`TraceEvent::TvFrame`] (see
    /// [`set_trace_frame_offset`](Self::set_trace_frame_offset) for how the
    /// frame number is formed).
    pub fn step_traced(
        &mut self,
        inputs: &[bool],
        sink: &mut dyn TraceSink,
    ) -> Vec<(Fault, Detection)> {
        let newly = self.step(inputs);
        if sink.enabled() {
            sink.event(&TraceEvent::TvFrame {
                frame: self.trace_offset + self.frame - 1,
                detected: newly.len(),
            });
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use motsim_netlist::builder::NetlistBuilder;
    use motsim_netlist::{GateKind, Lead};

    /// Z = NAND(A, Q); Q = DFF(Z) — tiny oscillating circuit.
    fn nand_loop() -> Netlist {
        let mut b = NetlistBuilder::new("loop");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let z = b.add_gate("Z", GateKind::Nand, vec![a, q]).unwrap();
        b.connect_dff(q, z).unwrap();
        b.add_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn truesim_starts_unknown_and_synchronizes() {
        let n = nand_loop();
        let mut sim = TrueSim::new(&n);
        assert_eq!(sim.state(), &[V3::X]);
        // A=0 forces Z=1 regardless of Q: synchronizes.
        sim.step(&[false]);
        assert_eq!(sim.outputs(), vec![V3::One]);
        assert_eq!(sim.state(), &[V3::One]);
        // A=1, Q=1 -> Z = 0.
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![V3::Zero]);
        assert_eq!(sim.frames(), 2);
    }

    #[test]
    fn truesim_x_propagates() {
        let n = nand_loop();
        let mut sim = TrueSim::new(&n);
        // A=1 with Q unknown -> Z unknown.
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![V3::X]);
    }

    #[test]
    fn fault_on_output_detected_after_sync() {
        let n = nand_loop();
        let z = n.find("Z").unwrap();
        // Z stuck-at-0: A=0 should give 1, observed 0 -> detected frame 0.
        let f = Fault::stuck_at_0(Lead::stem(z));
        let mut sim = FaultSim3::new(&n, [f]);
        let det = sim.step(&[false]);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, f);
        assert_eq!(
            det[0].1,
            Detection {
                frame: 0,
                output: 0
            }
        );
        let out = sim.outcome();
        assert_eq!(out.num_detected(), 1);
        assert_eq!(out.results[0].detection.unwrap().frame, 0);
    }

    #[test]
    fn fault_masked_by_x_not_detected() {
        let n = nand_loop();
        let z = n.find("Z").unwrap();
        // Z stuck-at-1 under A=1: fault-free Z is X (depends on initial Q),
        // so three-valued SOT cannot detect.
        let f = Fault::stuck_at_1(Lead::stem(z));
        let mut sim = FaultSim3::new(&n, [f]);
        assert!(sim.step(&[true]).is_empty());
        assert_eq!(sim.live_faults(), 1);
    }

    #[test]
    fn state_divergence_detected_later() {
        // Q stuck-at-1: apply A=0 (sync Q:=1, no difference observable at Z
        // since fault-free Z=1=forced... then A=1: fault-free Q=1 -> Z=0;
        // faulty Q=1 -> Z=0 as well. Use Q stuck-at-0 instead:
        // frame0 A=0: true Z=1, faulty: Q read forced 0 -> Z=NAND(0,·)=1,
        // same; next state true=1, faulty=1 but Q reads force 0.
        // frame1 A=1: true Z=NAND(1,1)=0; faulty Z=NAND(1,0)=1 -> detected.
        let n = nand_loop();
        let q = n.find("Q").unwrap();
        let f = Fault::stuck_at_0(Lead::stem(q));
        let mut sim = FaultSim3::new(&n, [f]);
        assert!(sim.step(&[false]).is_empty());
        let det = sim.step(&[true]);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, f);
        assert_eq!(det[0].1.frame, 1, "real frame, not a placeholder");
    }

    #[test]
    fn run_s27_collapsed_matches_step_loop() {
        let n = motsim_circuits::s27();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 64, 3);
        let a = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let mut sim = FaultSim3::new(&n, faults.iter().cloned());
        for v in &seq {
            sim.step(v);
        }
        let b = sim.outcome();
        assert_eq!(a.num_detected(), b.num_detected());
        assert_eq!(a.frames, 64);
        assert!(
            a.num_detected() > 0,
            "random vectors should detect something"
        );
        assert!(a.num_detected() < faults.len(), "X-state keeps some hidden");
    }

    /// Oracle: serial full re-simulation of the faulty machine must agree
    /// with the dual-rail simulator.
    fn full_resim_detects(netlist: &Netlist, fault: Fault, seq: &TestSequence) -> bool {
        let mut tstate = vec![V3::X; netlist.num_dffs()];
        let mut fstate = tstate.clone();
        let (mut tvals, mut fvals) = (Vec::new(), Vec::new());
        for v in seq {
            let Ok(()) = frame::eval_frame(netlist, &V3::X, &tstate, v, None, &mut tvals);
            let Ok(()) = frame::eval_frame(netlist, &V3::X, &fstate, v, Some(fault), &mut fvals);
            for &o in netlist.outputs() {
                let (tv, fv) = (tvals[o.index()], fvals[o.index()]);
                if tv.is_known() && fv.is_known() && tv != fv {
                    return true;
                }
            }
            frame::next_state(netlist, &V3::X, &tvals, None, &mut tstate);
            frame::next_state(netlist, &V3::X, &fvals, Some(fault), &mut fstate);
        }
        false
    }

    #[test]
    fn event_driven_agrees_with_full_resimulation_s27() {
        let n = motsim_circuits::s27();
        let faults = FaultList::complete(&n);
        let seq = TestSequence::random(&n, 40, 11);
        let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
        for r in &outcome.results {
            let expect = full_resim_detects(&n, r.fault, &seq);
            assert_eq!(
                r.detection.is_some(),
                expect,
                "fault {} disagrees",
                r.fault.display(&n)
            );
        }
    }

    #[test]
    fn event_driven_agrees_on_counter() {
        let n = motsim_circuits::generators::counter(4);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 48, 23);
        let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
        for r in &outcome.results {
            let expect = full_resim_detects(&n, r.fault, &seq);
            assert_eq!(
                r.detection.is_some(),
                expect,
                "fault {} disagrees",
                r.fault.display(&n)
            );
        }
    }

    /// Oracle for a known reset: from a fully known state every value is
    /// binary, so the three-valued simulator must find exactly the
    /// detections — frame and output — of two-valued simulation with the
    /// independent [`crate::simb`].
    fn assert_known_reset_matches_simb(netlist: &Netlist, seed: u64) {
        use crate::simb::{broadcast, eval_frame_u64, next_state_u64};
        let faults: Vec<Fault> = FaultList::collapsed(netlist).into_iter().collect();
        let seq = TestSequence::random(netlist, 40, seed);
        let reset = vec![V3::Zero; netlist.num_dffs()];
        let seeded = faults.iter().map(|&f| (f, reset.clone()));
        let mut sim = FaultSim3::with_states(netlist, &reset, seeded);
        for v in &seq {
            sim.step(v);
        }
        let outcome = sim.outcome();
        let m = netlist.num_dffs();
        for r in &outcome.results {
            let (mut good_state, mut bad_state) = (vec![0u64; m], vec![0u64; m]);
            let (mut good, mut bad) = (Vec::new(), Vec::new());
            let mut expect = None;
            for (t, v) in seq.iter().enumerate() {
                let inputs = broadcast(v);
                eval_frame_u64(netlist, &good_state, &inputs, None, &mut good);
                eval_frame_u64(netlist, &bad_state, &inputs, Some(r.fault), &mut bad);
                let hit = netlist
                    .outputs()
                    .iter()
                    .position(|&o| (good[o.index()] ^ bad[o.index()]) & 1 == 1);
                if let Some(output) = hit {
                    expect = Some(Detection { frame: t, output });
                    break;
                }
                next_state_u64(netlist, &good, None, &mut good_state);
                next_state_u64(netlist, &bad, Some(r.fault), &mut bad_state);
            }
            assert_eq!(r.detection, expect, "fault {}", r.fault.display(netlist));
        }
    }

    #[test]
    fn known_reset_matches_simb_on_s27() {
        assert_known_reset_matches_simb(&motsim_circuits::s27(), 3);
    }

    #[test]
    fn known_reset_matches_simb_on_counter() {
        assert_known_reset_matches_simb(&motsim_circuits::generators::counter(6), 4);
    }

    #[test]
    fn known_reset_matches_simb_on_fsm() {
        use motsim_circuits::generators::{fsm, FsmParams};
        assert_known_reset_matches_simb(&fsm("t", 5, FsmParams::default()), 5);
    }

    #[test]
    fn known_reset_matches_simb_on_many_fault_groups() {
        // More than two groups of 64 lanes.
        let n = motsim_circuits::generators::counter(10);
        assert!(FaultList::collapsed(&n).len() > 2 * 64);
        assert_known_reset_matches_simb(&n, 6);
    }

    #[test]
    fn known_reset_beats_unknown_state_coverage() {
        // With a known reset the coverage can only be ≥ the all-X run.
        let n = motsim_circuits::generators::counter(8);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 60, 7);
        let reset = vec![V3::Zero; n.num_dffs()];
        let seeded = faults.iter().map(|&f| (f, reset.clone()));
        let mut with_reset = FaultSim3::with_states(&n, &reset, seeded);
        for v in &seq {
            with_reset.step(v);
        }
        let with_reset = with_reset.outcome();
        let unknown = FaultSim3::run(&n, &seq, faults.iter().cloned());
        assert!(with_reset.num_detected() >= unknown.num_detected());
        assert!(with_reset.num_detected() > 0);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn state_width_checked() {
        let n = motsim_circuits::s27();
        FaultSim3::with_states(&n, &[V3::Zero], std::iter::empty());
    }
}
