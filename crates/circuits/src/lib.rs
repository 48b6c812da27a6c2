//! Benchmark circuit suite for the motsim experiments.
//!
//! The paper evaluates on the ISCAS-89 benchmark set. The set's *files* are
//! third-party data we do not ship; instead this crate provides
//!
//! - the public-domain [`s27`] netlist embedded verbatim (the classic tiny
//!   ISCAS-89 circuit),
//! - [`generators`] producing the same structural *families* the ISCAS-89
//!   suite consists of — synchronous counters with a synchronizing clear
//!   (the s208.1/s420.1/s838.1 family on which the paper's MOT headline
//!   results live), random control FSMs, shift registers, LFSRs, Gray
//!   counters, serial accumulators and random sequential logic,
//! - the [`suite`] module instantiating named `g*` benchmarks at sizes
//!   matched to the paper's table rows (`g208` ↔ s208.1, `g298` ↔ s298, …),
//! - the paper's one-flip-flop example circuits [`fig1`] and [`fig3`]
//!   (Fig. 2 is [`generators::counter`]`(3)`).
//!
//! See `DESIGN.md` §2 for the substitution rationale.
//!
//! # Example
//!
//! ```
//! let s27 = motsim_circuits::s27();
//! assert_eq!(s27.num_dffs(), 3);
//! let g208 = motsim_circuits::suite::by_name("g208").unwrap();
//! assert_eq!(g208.num_dffs(), 8);
//! ```

pub mod generators;
pub mod suite;

use motsim_netlist::{builder::NetlistBuilder, parse::parse_bench, GateKind, Netlist};

/// The ISCAS-89 `s27` benchmark (4 inputs, 1 output, 3 flip-flops,
/// 10 gates), embedded verbatim.
pub const S27_BENCH: &str = "\
# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// Parses the embedded [`S27_BENCH`] netlist.
///
/// # Panics
///
/// Never panics in practice: the embedded text is valid (checked by tests).
pub fn s27() -> Netlist {
    parse_bench("s27", S27_BENCH).expect("embedded s27 is valid")
}

/// The ISCAS-85 `c17` benchmark (5 inputs, 2 outputs, 6 NAND gates, purely
/// combinational), embedded verbatim. Included to exercise the `m = 0`
/// corner of every engine: with no memory elements there is no unknown
/// initial state and all three strategies coincide.
pub const C17_BENCH: &str = "\
# c17 (ISCAS-85)
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
";

/// Parses the embedded [`C17_BENCH`] netlist.
///
/// # Panics
///
/// Never panics in practice: the embedded text is valid (checked by tests).
pub fn c17() -> Netlist {
    parse_bench("c17", C17_BENCH).expect("embedded c17 is valid")
}

/// The paper's Fig. 1 circuit: `O = (A ⊕ Q) ⊕ B` over a hold flip-flop
/// `Q' = Q` that no input initializes. With the fault `A` stuck-at-0 and
/// the sequence `([1,0], [0,0])` both machines stay uninitialized, so no
/// single observation time detects the fault, yet the two response sets
/// are disjoint (MOT detects it).
pub fn fig1() -> Netlist {
    let mut b = NetlistBuilder::new("fig1");
    let a = b.add_input("A").expect("fresh name");
    let c = b.add_input("B").expect("fresh name");
    let q = b.add_dff("Q").expect("fresh name");
    let keep = b
        .add_gate("KEEP", GateKind::Buf, vec![q])
        .expect("fresh name");
    b.connect_dff(q, keep).expect("Q is a flip-flop");
    let x = b
        .add_gate("XR", GateKind::Xor, vec![a, q])
        .expect("fresh name");
    let o = b
        .add_gate("O", GateKind::Xor, vec![x, c])
        .expect("fresh name");
    b.add_output(o);
    b.finish().expect("fig1 is well formed")
}

/// The paper's Fig. 3 worked example: `O = XNOR(A, Q)` over a hold
/// flip-flop `Q' = Q`. Under the sequence `(1, 0)` the fault-free outputs
/// are `(x, x̄)` and those of `A` stuck-at-0 are `(ȳ, ȳ)`, so the detection
/// function `D(x,y) = [x ≡ ȳ]·[x ≡ y]` is identically 0.
pub fn fig3() -> Netlist {
    let mut b = NetlistBuilder::new("fig3");
    let a = b.add_input("A").expect("fresh name");
    let q = b.add_dff("Q").expect("fresh name");
    let keep = b
        .add_gate("KEEP", GateKind::Buf, vec![q])
        .expect("fresh name");
    b.connect_dff(q, keep).expect("Q is a flip-flop");
    let o = b
        .add_gate("O", GateKind::Xnor, vec![a, q])
        .expect("fresh name");
    b.add_output(o);
    b.finish().expect("fig3 is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_shape() {
        let n = s27();
        assert_eq!(n.num_inputs(), 4);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_dffs(), 3);
        assert_eq!(n.num_gates(), 10);
    }

    #[test]
    fn c17_shape() {
        let n = c17();
        assert_eq!(n.num_inputs(), 5);
        assert_eq!(n.num_outputs(), 2);
        assert_eq!(n.num_dffs(), 0);
        assert_eq!(n.num_gates(), 6);
    }

    #[test]
    fn s27_round_trips() {
        let n = s27();
        let text = motsim_netlist::write::to_bench(&n);
        let again = parse_bench("s27", &text).unwrap();
        assert_eq!(again.num_gates(), n.num_gates());
        assert_eq!(again.num_dffs(), n.num_dffs());
    }
}
