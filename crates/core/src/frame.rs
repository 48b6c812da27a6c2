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

use std::convert::Infallible;

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
