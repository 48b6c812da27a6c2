//! Frame evaluation shared by the three-valued and symbolic engines.
//!
//! Both engines compute the faulty machine the same way: the stuck value is
//! injected at its lead by one rule (the private `forced`), and one time
//! frame is evaluated, either densely in level order ([`eval_frame`] +
//! [`next_state`]) or event-driven through the fault's fanout cone
//! ([`Propagator`]). Only the value domain
//! ([`Domain`]: `V3` or OBDDs over the state variables) and the observation
//! rule differ; those stay in [`crate::sim3`] and [`crate::symbolic`].
//!
//! The three-valued fault simulator runs 64 faulty machines at once on a
//! compiled form of the same frame: a `FramePlan` (gates ordered by level,
//! gate kind and fanin count, with flat fanin) evaluated over dual-rail
//! words, with each group's faults applied as lane masks built by the same
//! injection rule.
//!
//! # Example
//!
//! The propagator computes the same faulty frame as the dense evaluator,
//! touching only the nets whose value differs from the fault-free one:
//!
//! ```
//! use motsim::frame::{eval_frame, Propagator};
//! use motsim::{Fault, FaultList};
//! use motsim_logic::V3;
//!
//! let circuit = motsim_circuits::s27();
//! let fault: Fault = *FaultList::collapsed(&circuit).iter().next().unwrap();
//! let state = vec![V3::X; circuit.num_dffs()];
//! let inputs = vec![true; circuit.num_inputs()];
//! let (mut good, mut dense) = (Vec::new(), Vec::new());
//! let Ok(()) = eval_frame(&circuit, &V3::X, &state, &inputs, None, &mut good);
//! let Ok(()) = eval_frame(&circuit, &V3::X, &state, &inputs, Some(fault), &mut dense);
//!
//! let mut prop = Propagator::new(&circuit);
//! let Ok(pass) = prop.propagate(&circuit, &V3::X, &good, &state, &state, fault);
//! assert!(circuit.net_ids().all(|n| *pass.value(n) == dense[n.index()]));
//! ```

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;

use motsim_bdd::{Bdd, BddError, BddManager};
use motsim_logic::{eval_gate, V3};
use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;
use crate::symbolic::eval_gate_bdd;

/// A value domain a frame can be evaluated in.
///
/// `V3` is its own (stateless) domain, so three-valued callers pass
/// `&V3::X`; the OBDD domain is the [`BddManager`] owning the functions.
pub trait Domain {
    /// The value carried by one net.
    type Value: Clone + PartialEq;
    /// Why a gate evaluation can fail.
    type Error;

    /// The constant `b`.
    fn constant(&self, b: bool) -> Self::Value;

    /// The output of a `kind` gate over `fanin`.
    ///
    /// # Errors
    ///
    /// Domain-specific; the OBDD domain fails with
    /// [`BddError::NodeLimit`].
    fn gate(&self, kind: GateKind, fanin: &[Self::Value]) -> Result<Self::Value, Self::Error>;
}

impl Domain for V3 {
    type Value = V3;
    type Error = Infallible;

    fn constant(&self, b: bool) -> V3 {
        V3::from_bool(b)
    }

    #[inline]
    fn gate(&self, kind: GateKind, fanin: &[V3]) -> Result<V3, Infallible> {
        Ok(eval_gate(kind, fanin))
    }
}

impl Domain for BddManager {
    type Value = Bdd;
    type Error = BddError;

    fn constant(&self, b: bool) -> Bdd {
        BddManager::constant(self, b)
    }

    fn gate(&self, kind: GateKind, fanin: &[Bdd]) -> Result<Bdd, BddError> {
        eval_gate_bdd(self, kind, fanin)
    }
}

/// The stuck-at injection rule: the value `fault` forces on `lead`, if any.
///
/// A stem fault forces the net for every reader; a branch fault forces only
/// the one sink pin it names (a gate input or a flip-flop's D pin).
#[inline]
fn forced(fault: Option<Fault>, lead: Lead) -> Option<bool> {
    fault.filter(|f| f.lead == lead).map(|f| f.stuck)
}

/// Evaluates gate `g` of the machine with `fault` injected, reading each
/// fanin net through `value`. The gate is evaluated even when its output
/// stem is forced, so every caller issues the same gate operations.
fn eval_gate_at<D: Domain>(
    netlist: &Netlist,
    dom: &D,
    g: NetId,
    fault: Option<Fault>,
    fanin: &mut Vec<D::Value>,
    value: impl Fn(NetId) -> D::Value,
) -> Result<D::Value, D::Error> {
    let net = netlist.net(g);
    let NodeKind::Gate(kind) = net.kind() else {
        unreachable!("only gates are evaluated")
    };
    fanin.clear();
    for (pin, &f) in net.fanin().iter().enumerate() {
        fanin.push(match forced(fault, Lead::branch(f, g, pin as u32)) {
            Some(b) => dom.constant(b),
            None => value(f),
        });
    }
    let out = dom.gate(kind, fanin)?;
    Ok(match forced(fault, Lead::stem(g)) {
        Some(b) => dom.constant(b),
        None => out,
    })
}

/// Latches the next state from the D pins, with `fault` injected at them.
fn latch<D: Domain>(
    netlist: &Netlist,
    dom: &D,
    fault: Option<Fault>,
    value: impl Fn(NetId) -> D::Value,
    state: &mut Vec<D::Value>,
) {
    state.clear();
    state.extend(netlist.dffs().iter().map(|&q| {
        let d = netlist.dff_d(q);
        match forced(fault, Lead::branch(d, q, 0)) {
            Some(b) => dom.constant(b),
            None => value(d),
        }
    }));
}

/// Evaluates one combinational frame into `values` (indexed by net) by full
/// level-order simulation, with `fault` (if any) injected.
///
/// # Errors
///
/// Fails when the domain does (the OBDD domain on its node limit).
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame<D: Domain>(
    netlist: &Netlist,
    dom: &D,
    state: &[D::Value],
    inputs: &[bool],
    fault: Option<Fault>,
    values: &mut Vec<D::Value>,
) -> Result<(), D::Error> {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input width mismatch");
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    values.clear();
    values.resize(netlist.num_nets(), dom.constant(false));
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        let b = forced(fault, Lead::stem(pi)).unwrap_or(inputs[i]);
        values[pi.index()] = dom.constant(b);
    }
    for (i, &q) in netlist.dffs().iter().enumerate() {
        values[q.index()] = match forced(fault, Lead::stem(q)) {
            Some(b) => dom.constant(b),
            None => state[i].clone(),
        };
    }
    let mut fanin = Vec::with_capacity(8);
    for &g in netlist.eval_order() {
        let out = eval_gate_at(netlist, dom, g, fault, &mut fanin, |f| {
            values[f.index()].clone()
        })?;
        values[g.index()] = out;
    }
    Ok(())
}

/// The next state after [`eval_frame`]: the D-pin values of `values`, with
/// the same `fault` injected at the D pins.
pub fn next_state<D: Domain>(
    netlist: &Netlist,
    dom: &D,
    values: &[D::Value],
    fault: Option<Fault>,
    state: &mut Vec<D::Value>,
) {
    latch(netlist, dom, fault, |n| values[n.index()].clone(), state);
}

/// Event-driven single-fault propagation over one frame, with scratch that
/// is reused across faults and frames.
///
/// [`propagate`](Self::propagate) seeds from the flip-flops whose faulty
/// state differs from the fault-free one, then from the fault site, and
/// re-evaluates gates level by level, marking every net whose faulty value
/// differs from the fault-free frame. The returned [`Pass`] reads the
/// faulty frame; dropping it releases the marked values (for OBDDs, their
/// handles — so they stop being garbage-collection roots).
#[derive(Debug, Clone)]
pub struct Propagator<V> {
    /// Faulty value of each net marked this pass; `None` means "equal to
    /// the fault-free value".
    fval: Vec<Option<V>>,
    /// Nets marked this pass, in marking order.
    marked: Vec<NetId>,
    /// `queued[n] == stamp` iff gate `n` is in a bucket this pass.
    queued: Vec<u32>,
    stamp: u32,
    /// Gates to evaluate, by level.
    buckets: Vec<Vec<NetId>>,
    fanin: Vec<V>,
}

impl<V: Clone + PartialEq> Propagator<V> {
    /// Creates empty scratch sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let nets = netlist.num_nets();
        Propagator {
            fval: vec![None; nets],
            marked: Vec::new(),
            queued: vec![0; nets],
            stamp: 0,
            buckets: vec![Vec::new(); netlist.depth() as usize + 1],
            fanin: Vec::with_capacity(8),
        }
    }

    /// Propagates `fault` through one frame: `good` is the fault-free frame
    /// (per net), `good_state`/`faulty_state` are the two machines' present
    /// states the frame started from.
    ///
    /// # Errors
    ///
    /// Fails when the domain does; the scratch is released first, so no
    /// faulty value outlives the failed pass.
    pub fn propagate<'p, D: Domain<Value = V>>(
        &'p mut self,
        netlist: &'p Netlist,
        dom: &D,
        good: &'p [V],
        good_state: &[V],
        faulty_state: &[V],
        fault: Fault,
    ) -> Result<Pass<'p, V>, D::Error> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Extremely rare wrap: invalidate all stamps.
            self.queued.fill(u32::MAX);
            self.stamp = 1;
        }
        for b in &mut self.buckets {
            b.clear();
        }

        // Seed 1: flip-flops whose faulty state differs from the fault-free
        // present state of this frame.
        for (i, &q) in netlist.dffs().iter().enumerate() {
            if faulty_state[i] != good_state[i] {
                self.mark(q, faulty_state[i].clone());
                self.enqueue_sinks(netlist, q);
            }
        }
        // Seed 2: the fault site. A branch fault re-evaluates its sink with
        // the forced pin (a D-pin branch only acts on the next state).
        match fault.lead.sink {
            None => {
                let n = fault.lead.net;
                let v = dom.constant(fault.stuck);
                let diverges = good[n.index()] != v;
                self.mark(n, v);
                if diverges {
                    self.enqueue_sinks(netlist, n);
                }
            }
            Some((sink, _)) => self.enqueue(netlist, sink),
        }

        for lvl in 0..self.buckets.len() {
            let mut idx = 0;
            while idx < self.buckets[lvl].len() {
                let g = self.buckets[lvl][idx];
                idx += 1;
                let fval = &self.fval;
                let read = |f: NetId| fval[f.index()].as_ref().unwrap_or(&good[f.index()]).clone();
                let out = match eval_gate_at(netlist, dom, g, Some(fault), &mut self.fanin, read) {
                    Ok(out) => out,
                    Err(e) => {
                        self.release();
                        return Err(e);
                    }
                };
                if out != good[g.index()] {
                    self.mark(g, out);
                    self.enqueue_sinks(netlist, g);
                }
            }
        }
        self.fanin.clear();
        Ok(Pass {
            prop: self,
            netlist,
            good,
            fault,
        })
    }

    fn mark(&mut self, n: NetId, v: V) {
        if self.fval[n.index()].replace(v).is_none() {
            self.marked.push(n);
        }
    }

    fn enqueue(&mut self, netlist: &Netlist, n: NetId) {
        if netlist.net(n).kind().is_gate() && self.queued[n.index()] != self.stamp {
            self.queued[n.index()] = self.stamp;
            self.buckets[netlist.level(n) as usize].push(n);
        }
    }

    fn enqueue_sinks(&mut self, netlist: &Netlist, n: NetId) {
        for &(sink, _) in netlist.fanout(n) {
            self.enqueue(netlist, sink);
        }
    }

    fn release(&mut self) {
        for n in self.marked.drain(..) {
            self.fval[n.index()] = None;
        }
        self.fanin.clear();
    }
}

/// One fault's faulty frame, as computed by [`Propagator::propagate`].
/// Dropping it releases the propagator's marked values.
#[derive(Debug)]
pub struct Pass<'p, V: Clone + PartialEq> {
    prop: &'p mut Propagator<V>,
    netlist: &'p Netlist,
    good: &'p [V],
    fault: Fault,
}

impl<V: Clone + PartialEq> Pass<'_, V> {
    /// The faulty value of net `n` (the fault-free value unless marked).
    #[inline]
    pub fn value(&self, n: NetId) -> &V {
        self.prop.fval[n.index()]
            .as_ref()
            .unwrap_or(&self.good[n.index()])
    }

    /// Whether `n` was marked: a seed, or a gate whose faulty value differs
    /// from the fault-free one.
    pub fn is_dirty(&self, n: NetId) -> bool {
        self.prop.fval[n.index()].is_some()
    }

    /// The number of marked nets (the size of the pass's dirty set).
    pub fn events(&self) -> usize {
        self.prop.marked.len()
    }

    /// The faulty machine's next state, with the fault injected at the D
    /// pins.
    pub fn next_state<D: Domain<Value = V>>(&self, dom: &D, state: &mut Vec<V>) {
        latch(
            self.netlist,
            dom,
            Some(self.fault),
            |n| self.value(n).clone(),
            state,
        );
    }
}

impl<V: Clone + PartialEq> Drop for Pass<'_, V> {
    fn drop(&mut self) {
        self.prop.release();
    }
}

/// 64 three-valued lanes in two bitplanes: lane `l` is `1` when bit `l` of
/// `one` is set, `0` when bit `l` of `zero` is set, and `X` when neither
/// is. Gate evaluation on the planes is Kleene logic lane by lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DualRail {
    one: u64,
    zero: u64,
}

impl DualRail {
    /// `X` in every lane.
    pub(crate) const X: DualRail = DualRail { one: 0, zero: 0 };

    /// `v` in every lane.
    pub(crate) fn splat(v: V3) -> DualRail {
        match v {
            V3::One => DualRail { one: !0, zero: 0 },
            V3::Zero => DualRail { one: 0, zero: !0 },
            V3::X => DualRail::X,
        }
    }

    /// The value of lane `l`.
    pub(crate) fn lane(self, l: u32) -> V3 {
        match ((self.one >> l) & 1, (self.zero >> l) & 1) {
            (1, _) => V3::One,
            (_, 1) => V3::Zero,
            _ => V3::X,
        }
    }

    /// Overwrites lane `to` with lane `from` of `src`.
    pub(crate) fn move_lane(&mut self, to: u32, src: DualRail, from: u32) {
        let bit = 1u64 << to;
        self.one = (self.one & !bit) | (((src.one >> from) & 1) << to);
        self.zero = (self.zero & !bit) | (((src.zero >> from) & 1) << to);
    }

    /// The lanes where `self` is known and `other` holds the opposite
    /// known value.
    #[inline]
    pub(crate) fn differs(self, other: DualRail) -> u64 {
        (self.one & other.zero) | (self.zero & other.one)
    }

    #[inline]
    fn force(self, f: Force) -> DualRail {
        DualRail {
            one: (self.one | f.one) & !f.zero,
            zero: (self.zero | f.zero) & !f.one,
        }
    }

    #[inline]
    fn and(self, o: DualRail) -> DualRail {
        DualRail {
            one: self.one & o.one,
            zero: self.zero | o.zero,
        }
    }

    #[inline]
    fn or(self, o: DualRail) -> DualRail {
        DualRail {
            one: self.one | o.one,
            zero: self.zero & o.zero,
        }
    }

    #[inline]
    fn xor(self, o: DualRail) -> DualRail {
        DualRail {
            one: (self.one & o.zero) | (self.zero & o.one),
            zero: (self.one & o.one) | (self.zero & o.zero),
        }
    }

    #[inline]
    fn not(self) -> DualRail {
        DualRail {
            one: self.zero,
            zero: self.one,
        }
    }
}

/// Lanes forced to `1` and to `0` at one injection point.
#[derive(Debug, Clone, Copy, Default)]
struct Force {
    one: u64,
    zero: u64,
}

impl Force {
    fn add(&mut self, lane: u32, stuck: bool) {
        let bit = 1u64 << lane;
        if stuck {
            self.one |= bit;
        } else {
            self.zero |= bit;
        }
    }
}

/// A `kind` gate over `fanin`: the fanin folded with the kind's combinator
/// (`and`, `or` or `xor`; a unary gate passes its input), then inverted for
/// the inverting kinds.
fn gate(kind: GateKind, mut fanin: impl Iterator<Item = DualRail>) -> DualRail {
    let first = fanin.next().expect("gates have fanin");
    match kind {
        GateKind::And | GateKind::Buf => fanin.fold(first, DualRail::and),
        GateKind::Nand | GateKind::Not => fanin.fold(first, DualRail::and).not(),
        GateKind::Or => fanin.fold(first, DualRail::or),
        GateKind::Nor => fanin.fold(first, DualRail::or).not(),
        GateKind::Xor => fanin.fold(first, DualRail::xor),
        GateKind::Xnor => fanin.fold(first, DualRail::xor).not(),
    }
}

/// Evaluates consecutive gates of one kind and fanin count: gate `k`
/// reads the slots `fanin[k * arity..][..arity]` of `src`, folds them with
/// the kind's combinator `op`, inverts if `INV`, and writes `dst[k]`. The
/// match on the arity sits outside the loops, so the common 1- and 2-input
/// runs compile to straight-line loops.
#[inline(always)]
fn run_with<const INV: bool>(
    op: impl Fn(DualRail, DualRail) -> DualRail,
    arity: usize,
    fanin: &[u32],
    src: &[DualRail],
    dst: &mut [DualRail],
) {
    let inv = |v: DualRail| if INV { v.not() } else { v };
    match arity {
        1 => {
            for (d, &a) in dst.iter_mut().zip(fanin) {
                *d = inv(src[a as usize]);
            }
        }
        2 => {
            for (d, p) in dst.iter_mut().zip(fanin.chunks_exact(2)) {
                *d = inv(op(src[p[0] as usize], src[p[1] as usize]));
            }
        }
        _ => {
            for (d, p) in dst.iter_mut().zip(fanin.chunks_exact(arity)) {
                let first = src[p[0] as usize];
                *d = inv(p[1..]
                    .iter()
                    .fold(first, |acc, &f| op(acc, src[f as usize])));
            }
        }
    }
}

/// Dual-rail evaluation of a run of `kind` gates (see [`run_with`]).
fn eval_run(kind: GateKind, arity: usize, fanin: &[u32], src: &[DualRail], dst: &mut [DualRail]) {
    match kind {
        GateKind::And | GateKind::Buf => run_with::<false>(DualRail::and, arity, fanin, src, dst),
        GateKind::Nand | GateKind::Not => run_with::<true>(DualRail::and, arity, fanin, src, dst),
        GateKind::Or => run_with::<false>(DualRail::or, arity, fanin, src, dst),
        GateKind::Nor => run_with::<true>(DualRail::or, arity, fanin, src, dst),
        GateKind::Xor => run_with::<false>(DualRail::xor, arity, fanin, src, dst),
        GateKind::Xnor => run_with::<true>(DualRail::xor, arity, fanin, src, dst),
    }
}

/// Gates of one level, kind and fanin count, at consecutive slots.
#[derive(Debug, Clone)]
struct Run {
    kind: GateKind,
    arity: usize,
    slots: Range<usize>,
    /// Start of the run's fanin in [`FramePlan::fanin`].
    fanin: usize,
}

/// A frame compiled for dual-rail evaluation, built once per netlist.
///
/// Every net gets a slot: primary inputs first, then flip-flop outputs,
/// then the gates ordered by level, gate kind and fanin count. Gates of one
/// level never read each other, so each run of equal kind and fanin count
/// is evaluated by one monomorphic loop over the flat fanin.
#[derive(Debug, Clone)]
pub(crate) struct FramePlan {
    inputs: usize,
    dffs: usize,
    /// The slot of each net, by net index.
    slot: Vec<u32>,
    runs: Vec<Run>,
    /// Fanin slots of every gate in slot order.
    fanin: Vec<u32>,
    /// The slot of each primary output.
    outputs: Vec<u32>,
    /// The slot of each flip-flop's D net.
    d_pins: Vec<u32>,
}

impl FramePlan {
    /// Compiles `netlist`.
    pub(crate) fn new(netlist: &Netlist) -> FramePlan {
        let kind_of = |g: NetId| match netlist.net(g).kind() {
            NodeKind::Gate(kind) => kind,
            _ => unreachable!("the evaluation order holds only gates"),
        };
        let key = |g: NetId| {
            let kind = kind_of(g);
            let rank = GateKind::ALL.iter().position(|&k| k == kind);
            (netlist.level(g), rank, netlist.net(g).fanin().len())
        };
        let mut gates = netlist.eval_order().to_vec();
        gates.sort_by_key(|&g| key(g));

        let mut slot = vec![0u32; netlist.num_nets()];
        let sources = netlist.inputs().iter().chain(netlist.dffs());
        for (s, &n) in sources.chain(&gates).enumerate() {
            slot[n.index()] = s as u32;
        }
        let first = netlist.num_inputs() + netlist.num_dffs();
        let mut runs: Vec<Run> = Vec::new();
        let mut fanin = Vec::new();
        for (k, &g) in gates.iter().enumerate() {
            let s = first + k;
            let arity = netlist.net(g).fanin().len();
            match runs.last_mut() {
                Some(run) if key(gates[k - 1]) == key(g) => run.slots.end = s + 1,
                _ => runs.push(Run {
                    kind: kind_of(g),
                    arity,
                    slots: s..s + 1,
                    fanin: fanin.len(),
                }),
            }
            fanin.extend(netlist.net(g).fanin().iter().map(|f| slot[f.index()]));
        }
        let slot_of = |n: &NetId| slot[n.index()];
        FramePlan {
            inputs: netlist.num_inputs(),
            dffs: netlist.num_dffs(),
            outputs: netlist.outputs().iter().map(slot_of).collect(),
            d_pins: netlist
                .dffs()
                .iter()
                .map(|&q| slot_of(&netlist.dff_d(q)))
                .collect(),
            slot,
            runs,
            fanin,
        }
    }

    /// The injection table of a group: `faults[l]` occupies lane `l`.
    ///
    /// Each fault is placed at the point the evaluators read its lead —
    /// source stem, gate-output stem, gate pin or D pin — and kept only if
    /// [`forced`] forces that lead, so a lead the circuit does not have
    /// forces nothing.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 faults.
    pub(crate) fn injection(&self, netlist: &Netlist, faults: &[Fault]) -> Injection {
        assert!(faults.len() <= 64, "a group holds at most 64 faults");
        let mut sources: BTreeMap<u32, Force> = BTreeMap::new();
        let mut gates: BTreeMap<(u32, u32), Force> = BTreeMap::new();
        let mut d_pins: BTreeMap<u32, Force> = BTreeMap::new();
        for (lane, &fault) in faults.iter().enumerate() {
            let lead = fault.lead;
            let (at, force) = match lead.sink {
                None if netlist.net(lead.net).kind().is_gate() => {
                    let s = self.slot[lead.net.index()];
                    (lead, gates.entry((s, OUT)).or_default())
                }
                None => (
                    lead,
                    sources.entry(self.slot[lead.net.index()]).or_default(),
                ),
                Some((q, _)) if netlist.net(q).kind().is_dff() => {
                    let i = self.slot[q.index()] - self.inputs as u32;
                    let at = Lead::branch(netlist.dff_d(q), q, 0);
                    (at, d_pins.entry(i).or_default())
                }
                Some((g, pin)) => {
                    let Some(&f) = netlist.net(g).fanin().get(pin as usize) else {
                        continue;
                    };
                    let s = self.slot[g.index()];
                    (Lead::branch(f, g, pin), gates.entry((s, pin)).or_default())
                }
            };
            if let Some(stuck) = forced(Some(fault), at) {
                force.add(lane as u32, stuck);
            }
        }
        Injection {
            sources: sources.into_iter().collect(),
            gates: gates.into_iter().collect(),
            d_pins: d_pins.into_iter().collect(),
        }
    }

    /// Evaluates one frame of the group `inj` into `vals` (indexed by
    /// slot), from the group's present `state`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`state` lengths do not match the circuit.
    pub(crate) fn eval(
        &self,
        inj: &Injection,
        inputs: &[bool],
        state: &[DualRail],
        vals: &mut Vec<DualRail>,
    ) {
        assert_eq!(inputs.len(), self.inputs, "input width mismatch");
        assert_eq!(state.len(), self.dffs, "state width mismatch");
        vals.resize(self.slot.len(), DualRail::X);
        for (v, &b) in vals.iter_mut().zip(inputs) {
            *v = DualRail::splat(V3::from_bool(b));
        }
        vals[self.inputs..self.inputs + self.dffs].copy_from_slice(state);
        for &(s, f) in &inj.sources {
            vals[s as usize] = vals[s as usize].force(f);
        }
        let mut patches = &inj.gates[..];
        for run in &self.runs {
            let mut from = run.slots.start;
            while let Some(&((s, _), _)) = patches.first() {
                let s = s as usize;
                if s >= run.slots.end {
                    break;
                }
                let n = patches.iter().take_while(|p| p.0 .0 as usize == s).count();
                self.eval_gates(run, from..s, vals);
                self.eval_patched(run, s, &patches[..n], vals);
                patches = &patches[n..];
                from = s + 1;
            }
            self.eval_gates(run, from..run.slots.end, vals);
        }
    }

    /// Evaluates the gates at `slots`, all inside `run`, with no fault.
    #[inline]
    fn eval_gates(&self, run: &Run, slots: Range<usize>, vals: &mut [DualRail]) {
        let at = run.fanin + (slots.start - run.slots.start) * run.arity;
        let fanin = &self.fanin[at..at + slots.len() * run.arity];
        // A gate reads only lower levels, which sit below its run.
        let (src, rest) = vals.split_at_mut(run.slots.start);
        let dst = &mut rest[slots.start - run.slots.start..slots.end - run.slots.start];
        eval_run(run.kind, run.arity, fanin, src, dst);
    }

    /// Evaluates the gate at slot `s` of `run` with the forcings `patches`
    /// (all at `s`, sorted by pin, so an output forcing comes last).
    fn eval_patched(
        &self,
        run: &Run,
        s: usize,
        patches: &[((u32, u32), Force)],
        vals: &mut [DualRail],
    ) {
        let at = run.fanin + (s - run.slots.start) * run.arity;
        let pins = self.fanin[at..at + run.arity].iter().enumerate();
        let out = gate(
            run.kind,
            pins.map(|(pin, &f)| {
                let v = vals[f as usize];
                match patches.iter().find(|p| p.0 .1 == pin as u32) {
                    Some(&(_, force)) => v.force(force),
                    None => v,
                }
            }),
        );
        vals[s] = match patches.last() {
            Some(&((_, OUT), force)) => out.force(force),
            _ => out,
        };
    }

    /// The primary-output values in `vals`, in output order.
    pub(crate) fn outputs<'v>(
        &'v self,
        vals: &'v [DualRail],
    ) -> impl Iterator<Item = DualRail> + 'v {
        self.outputs.iter().map(|&o| vals[o as usize])
    }

    /// The number of flip-flops.
    pub(crate) fn num_dffs(&self) -> usize {
        self.dffs
    }

    /// The group's next state after [`eval`](Self::eval): the D-pin values
    /// of `vals`, with the group's D-pin faults injected.
    pub(crate) fn next_state(&self, inj: &Injection, vals: &[DualRail], state: &mut [DualRail]) {
        for (q, &d) in state.iter_mut().zip(&self.d_pins) {
            *q = vals[d as usize];
        }
        for &(i, f) in &inj.d_pins {
            state[i as usize] = state[i as usize].force(f);
        }
    }
}

/// The pin number that stands for a gate's output stem in an
/// [`Injection`]; it sorts after every real pin.
const OUT: u32 = u32::MAX;

/// One group's faults as lane masks at the four injection points of a
/// [`FramePlan`]: source stems, gate-output stems, gate pins and D pins.
/// The empty table is the fault-free machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Injection {
    /// By source slot.
    sources: Vec<(u32, Force)>,
    /// By (gate slot, pin or [`OUT`]), sorted.
    gates: Vec<((u32, u32), Force)>,
    /// By flip-flop index.
    d_pins: Vec<(u32, Force)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::pattern::TestSequence;

    /// Every `{0,1,X}` vector of length `arity`.
    fn all_vectors(arity: usize) -> Vec<Vec<V3>> {
        (0..arity).fold(vec![Vec::new()], |acc, _| {
            acc.iter()
                .flat_map(|v| {
                    [V3::Zero, V3::One, V3::X].map(|x| {
                        let mut w = v.clone();
                        w.push(x);
                        w
                    })
                })
                .collect()
        })
    }

    #[test]
    fn dual_rail_gates_match_eval_gate() {
        for kind in GateKind::ALL {
            let max = if kind.is_unary() { 1 } else { 3 };
            for arity in 1..=max {
                // One input vector per lane: lane `l` of pin `p` holds
                // `vectors[l][p]`.
                let vectors = all_vectors(arity);
                let mut pins = vec![DualRail::X; arity];
                for (l, v) in vectors.iter().enumerate() {
                    for (pin, &x) in pins.iter_mut().zip(v) {
                        pin.move_lane(l as u32, DualRail::splat(x), 0);
                    }
                }
                let folded = gate(kind, pins.iter().copied());
                let fanin: Vec<u32> = (0..arity as u32).collect();
                let mut run = [DualRail::X];
                eval_run(kind, arity, &fanin, &pins, &mut run);
                for (l, v) in vectors.iter().enumerate() {
                    let want = eval_gate(kind, v);
                    assert_eq!(folded.lane(l as u32), want, "{kind:?} {v:?}");
                    assert_eq!(run[0].lane(l as u32), want, "{kind:?} run {v:?}");
                }
            }
        }
    }

    /// Every lane of a group frame equals the dense single-fault frame on
    /// every net, from a partly known state.
    #[test]
    fn plan_lanes_match_eval_frame() {
        let n = motsim_circuits::s27();
        let plan = FramePlan::new(&n);
        let faults: Vec<Fault> = FaultList::complete(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 8, 5);
        let state = [V3::One, V3::X, V3::Zero];
        for group in faults.chunks(64) {
            let inj = plan.injection(&n, group);
            let rails: Vec<DualRail> = state.iter().map(|&v| DualRail::splat(v)).collect();
            let mut vals = Vec::new();
            let mut dense = Vec::new();
            for inputs in &seq {
                plan.eval(&inj, inputs, &rails, &mut vals);
                for (l, &fault) in group.iter().enumerate() {
                    let Ok(()) = eval_frame(&n, &V3::X, &state, inputs, Some(fault), &mut dense);
                    for id in n.net_ids() {
                        let got = vals[plan.slot[id.index()] as usize].lane(l as u32);
                        assert_eq!(got, dense[id.index()], "{}", fault.display(&n));
                    }
                }
            }
        }
    }
}
