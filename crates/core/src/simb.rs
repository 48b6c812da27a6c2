//! Bit-parallel two-valued (Boolean) simulation.
//!
//! Each bit lane of a `u64` word carries an independent scenario — 64
//! simulations per pass. The [`exhaustive`](crate::exhaustive) oracle uses
//! the lanes to enumerate initial states; the lanes can equally carry 64
//! random patterns (classical PPSFP-style simulation).

use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;

/// Evaluates one combinational frame over 64 parallel Boolean scenarios.
///
/// `state[i]` / `inputs[i]` hold the per-lane values of flip-flop `i` /
/// primary input `i`; on return `values` has one word per net. `fault`
/// injects a single stuck-at fault into **all** lanes.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame_u64(
    netlist: &Netlist,
    state: &[u64],
    inputs: &[u64],
    fault: Option<Fault>,
    values: &mut Vec<u64>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input width mismatch");
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    values.clear();
    values.resize(netlist.num_nets(), 0);
    let forced: u64 = match fault {
        Some(f) if f.stuck => u64::MAX,
        _ => 0,
    };
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[i];
    }
    for (i, &q) in netlist.dffs().iter().enumerate() {
        values[q.index()] = state[i];
    }
    // Stem fault on a source (input or flip-flop output).
    if let Some(f) = fault {
        if f.lead.sink.is_none() && !netlist.net(f.lead.net).kind().is_gate() {
            values[f.lead.net.index()] = forced;
        }
    }
    for &g in netlist.eval_order() {
        let net = netlist.net(g);
        let NodeKind::Gate(kind) = net.kind() else {
            unreachable!("eval order contains only gates")
        };
        let read = |pin: usize, fnet: NetId| -> u64 {
            let v = values[fnet.index()];
            match fault {
                Some(f) if f.lead == Lead::branch(fnet, g, pin as u32) => forced,
                _ => v,
            }
        };
        let mut it = net.fanin().iter().enumerate().map(|(p, &f)| read(p, f));
        let first = it.next().expect("gates have fanin");
        let out = match kind {
            GateKind::And => it.fold(first, |a, b| a & b),
            GateKind::Nand => !it.fold(first, |a, b| a & b),
            GateKind::Or => it.fold(first, |a, b| a | b),
            GateKind::Nor => !it.fold(first, |a, b| a | b),
            GateKind::Xor => it.fold(first, |a, b| a ^ b),
            GateKind::Xnor => !it.fold(first, |a, b| a ^ b),
            GateKind::Not => !first,
            GateKind::Buf => first,
        };
        values[g.index()] = match fault {
            Some(f) if f.lead == Lead::stem(g) => forced,
            _ => out,
        };
    }
}

/// Advances a 64-lane state vector by one frame (companion to
/// [`eval_frame_u64`]; call after it with the same `fault`).
pub fn next_state_u64(netlist: &Netlist, values: &[u64], fault: Option<Fault>, state: &mut [u64]) {
    let forced: u64 = match fault {
        Some(f) if f.stuck => u64::MAX,
        _ => 0,
    };
    for (i, &q) in netlist.dffs().iter().enumerate() {
        let d = netlist.dff_d(q);
        let mut v = values[d.index()];
        if let Some(f) = fault {
            if f.lead == Lead::branch(d, q, 0) {
                v = forced;
            }
        }
        state[i] = v;
    }
}

/// Broadcasts one Boolean vector into all 64 lanes.
pub fn broadcast(bits: &[bool]) -> Vec<u64> {
    bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect()
}

/// Extracts the lane-`k` values of `words` as a `Vec<bool>`.
///
/// # Panics
///
/// Panics if `k >= 64`.
pub fn lane(words: &[u64], k: usize) -> Vec<bool> {
    assert!(k < 64, "lane index out of range");
    words.iter().map(|w| (w >> k) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::pattern::TestSequence;
    use motsim_logic::V3;

    /// Boolean lanes must agree with the three-valued simulator when the
    /// state is fully known.
    #[test]
    fn agrees_with_v3_on_known_state() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 30, 17);
        // Lane k encodes initial state k (3 FFs -> 8 states).
        let mut state: Vec<u64> = (0..3)
            .map(|i| {
                let mut w = 0u64;
                for k in 0..8u64 {
                    if (k >> i) & 1 == 1 {
                        w |= 1 << k;
                    }
                }
                w
            })
            .collect();
        let mut values = Vec::new();
        // Reference: three-valued run from initial state 5.
        let mut v3state: Vec<V3> = (0..3)
            .map(|i| V3::from_bool((5u64 >> i) & 1 == 1))
            .collect();
        let mut v3vals = Vec::new();
        for v in seq.iter() {
            eval_frame_u64(&n, &state, &broadcast(v), None, &mut values);
            let Ok(()) = frame::eval_frame(&n, &V3::X, &v3state, v, None, &mut v3vals);
            for id in n.net_ids() {
                let expect = v3vals[id.index()].to_bool().expect("fully known");
                let got = (values[id.index()] >> 5) & 1 == 1;
                assert_eq!(got, expect, "net {}", n.net(id).name());
            }
            next_state_u64(&n, &values, None, &mut state);
            frame::next_state(&n, &V3::X, &v3vals, None, &mut v3state);
        }
    }

    #[test]
    fn stem_fault_forced_in_all_lanes() {
        let n = motsim_circuits::s27();
        let g17 = n.find("G17").unwrap();
        let f = Fault::stuck_at_1(motsim_netlist::Lead::stem(g17));
        let state = vec![0u64; 3];
        let mut values = Vec::new();
        eval_frame_u64(&n, &state, &broadcast(&[false; 4]), Some(f), &mut values);
        assert_eq!(values[g17.index()], u64::MAX);
    }

    #[test]
    fn branch_fault_only_affects_sink() {
        // A fans out to X=NOT(A) and Y=BUF(A); branch fault A->X#0 s-a-1
        // flips X but leaves Y reading the true A.
        use motsim_netlist::{builder::NetlistBuilder, GateKind};
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let x = b.add_gate("X", GateKind::Not, vec![a]).unwrap();
        let y = b.add_gate("Y", GateKind::Buf, vec![a]).unwrap();
        b.add_output(x);
        b.add_output(y);
        let n = b.finish().unwrap();
        let a = n.find("A").unwrap();
        let x = n.find("X").unwrap();
        let y = n.find("Y").unwrap();
        let f = Fault::stuck_at_1(motsim_netlist::Lead::branch(a, x, 0));
        let mut values = Vec::new();
        eval_frame_u64(&n, &[], &broadcast(&[false]), Some(f), &mut values);
        assert_eq!(values[x.index()], 0); // NOT(forced 1)
        assert_eq!(values[y.index()], 0); // true A = 0
    }

    #[test]
    fn d_branch_fault_forces_stored_value() {
        use motsim_netlist::{builder::NetlistBuilder, GateKind, Lead};
        // D net fans out to the FF and a PO buffer: the D-pin branch fault
        // must affect only the stored value.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let d = b.add_gate("D", GateKind::Buf, vec![a]).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![d]).unwrap();
        b.connect_dff(q, d).unwrap();
        b.add_output(z);
        b.add_output(q);
        let n = b.finish().unwrap();
        let d = n.find("D").unwrap();
        let q = n.find("Q").unwrap();
        let f = Fault::stuck_at_1(Lead::branch(d, q, 0));
        let mut state = vec![0u64];
        let mut values = Vec::new();
        eval_frame_u64(&n, &state, &broadcast(&[false]), Some(f), &mut values);
        assert_eq!(
            values[n.find("Z").unwrap().index()],
            0,
            "PO path unaffected"
        );
        next_state_u64(&n, &values, Some(f), &mut state);
        assert_eq!(state[0], u64::MAX, "stored value forced to 1");
    }

    #[test]
    fn broadcast_and_lane_round_trip() {
        let bits = vec![true, false, true];
        let words = broadcast(&bits);
        for k in [0, 17, 63] {
            assert_eq!(lane(&words, k), bits);
        }
    }

    #[test]
    #[should_panic(expected = "lane index")]
    fn lane_bounds_checked() {
        lane(&[0], 64);
    }
}
