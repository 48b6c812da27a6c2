//! The single-stuck-at fault model and structural equivalence collapsing.

use std::collections::HashMap;
use std::fmt;

use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

/// A single stuck-at fault: a [`Lead`] permanently tied to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The fault site.
    pub lead: Lead,
    /// The stuck value (`false` = stuck-at-0, `true` = stuck-at-1).
    pub stuck: bool,
}

impl Fault {
    /// Creates a stuck-at-0 fault.
    pub fn stuck_at_0(lead: Lead) -> Self {
        Fault { lead, stuck: false }
    }

    /// Creates a stuck-at-1 fault.
    pub fn stuck_at_1(lead: Lead) -> Self {
        Fault { lead, stuck: true }
    }

    /// Renders the fault using circuit signal names, e.g. `G10/0` or
    /// `G5->G8#1/1` for a branch fault.
    pub fn display<'a>(&'a self, netlist: &'a Netlist) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Fault, &'a Netlist);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let name = self.1.net(self.0.lead.net).name();
                match self.0.lead.sink {
                    None => write!(f, "{}/{}", name, self.0.stuck as u8),
                    Some((sink, pin)) => write!(
                        f,
                        "{}->{}#{}/{}",
                        name,
                        self.1.net(sink).name(),
                        pin,
                        self.0.stuck as u8
                    ),
                }
            }
        }
        D(self, netlist)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.lead, self.stuck as u8)
    }
}

/// A collapsed list of representative faults for a circuit.
///
/// The *complete* fault universe has two stuck-at faults per lead
/// ([`FaultList::complete`]). [`FaultList::collapsed`] merges structurally
/// equivalent faults (the classical rules: a controlling-value input fault
/// of an AND/OR-family gate is equivalent to the corresponding output
/// fault; inverter/buffer input faults are equivalent to output faults) and
/// keeps one representative per class. Faults are *not* collapsed across
/// flip-flop boundaries: under an unknown initial state, a stuck D pin and
/// a stuck Q output induce different faulty machines at time 0.
#[derive(Debug, Clone)]
pub struct FaultList {
    faults: Vec<Fault>,
    complete_count: usize,
}

impl FaultList {
    /// The complete (uncollapsed) fault universe: two faults per lead.
    ///
    /// Like every [`FaultList`] constructor, the list is sorted by fault id
    /// so downstream reports are deterministically ordered.
    pub fn complete(netlist: &Netlist) -> Self {
        let mut faults: Vec<Fault> = netlist
            .leads()
            .into_iter()
            .flat_map(|l| [Fault::stuck_at_0(l), Fault::stuck_at_1(l)])
            .collect();
        faults.sort();
        let complete_count = faults.len();
        FaultList {
            faults,
            complete_count,
        }
    }

    /// Structurally collapsed representative faults.
    pub fn collapsed(netlist: &Netlist) -> Self {
        let complete = Self::complete(netlist);
        let index: HashMap<Fault, usize> = complete
            .faults
            .iter()
            .enumerate()
            .map(|(i, f)| (*f, i))
            .collect();
        let mut uf = UnionFind::new(complete.faults.len());

        // Helper: the lead feeding pin `pin` of node `sink` from net `from`.
        let input_lead = |from: NetId, sink: NetId, pin: u32| -> Lead {
            if netlist.fanout(from).len() >= 2 {
                Lead::branch(from, sink, pin)
            } else {
                Lead::stem(from)
            }
        };

        for id in netlist.net_ids() {
            let net = netlist.net(id);
            let NodeKind::Gate(kind) = net.kind() else {
                continue;
            };
            let out = Lead::stem(id);
            match kind {
                GateKind::Not | GateKind::Buf => {
                    let inv = kind == GateKind::Not;
                    let il = input_lead(net.fanin()[0], id, 0);
                    for stuck in [false, true] {
                        let a = Fault { lead: il, stuck };
                        let b = Fault {
                            lead: out,
                            stuck: stuck ^ inv,
                        };
                        uf.union(index[&a], index[&b]);
                    }
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let c = kind.controlling_value().expect("AND/OR family");
                    let out_stuck = c ^ kind.is_inverting();
                    for (pin, &f) in net.fanin().iter().enumerate() {
                        let il = input_lead(f, id, pin as u32);
                        let a = Fault { lead: il, stuck: c };
                        let b = Fault {
                            lead: out,
                            stuck: out_stuck,
                        };
                        uf.union(index[&a], index[&b]);
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // No structural equivalences.
                }
            }
        }

        // One representative per class; prefer the fault whose lead is
        // closest to the primary inputs (smallest net id, stems first) so
        // representatives are stable and human-friendly.
        let mut best: HashMap<usize, Fault> = HashMap::new();
        for (i, f) in complete.faults.iter().enumerate() {
            let root = uf.find(i);
            match best.get(&root) {
                Some(cur) if cur <= f => {}
                _ => {
                    best.insert(root, *f);
                }
            }
        }
        let mut faults: Vec<Fault> = best.into_values().collect();
        faults.sort();
        FaultList {
            faults,
            complete_count: complete.complete_count,
        }
    }

    /// Number of representative faults (`|F|` in the tables).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Size of the complete fault universe before collapsing.
    pub fn complete_len(&self) -> usize {
        self.complete_count
    }

    /// Iterates over the representative faults.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// The representative faults as a slice.
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

impl IntoIterator for FaultList {
    type Item = Fault;
    type IntoIter = std::vec::IntoIter<Fault>;
    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_netlist::builder::NetlistBuilder;

    fn inv_chain() -> Netlist {
        // A -> N1 -> N2 -> PO
        let mut b = NetlistBuilder::new("chain");
        let a = b.add_input("A").unwrap();
        let n1 = b.add_gate("N1", GateKind::Not, vec![a]).unwrap();
        let n2 = b.add_gate("N2", GateKind::Not, vec![n1]).unwrap();
        b.add_output(n2);
        b.finish().unwrap()
    }

    #[test]
    fn complete_is_two_per_lead() {
        let n = inv_chain();
        let fl = FaultList::complete(&n);
        assert_eq!(fl.len(), 2 * n.leads().len());
        assert_eq!(fl.complete_len(), fl.len());
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        // All 6 faults of the chain collapse to the two faults at A.
        let n = inv_chain();
        let fl = FaultList::collapsed(&n);
        assert_eq!(fl.len(), 2);
        let a = n.find("A").unwrap();
        assert!(fl.iter().all(|f| f.lead.is_stem() && f.lead.net == a));
        assert_eq!(fl.complete_len(), 6);
    }

    #[test]
    fn and_gate_collapsing() {
        // Z = AND(A, B): A/0, B/0, Z/0 equivalent; A/1, B/1, Z/1 distinct.
        let mut b = NetlistBuilder::new("and");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let z = b.add_gate("Z", GateKind::And, vec![a, bb]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let fl = FaultList::collapsed(&n);
        // classes: {A/0,B/0,Z/0}, {A/1}, {B/1}, {Z/1} -> 4
        assert_eq!(fl.len(), 4);
    }

    #[test]
    fn nand_gate_collapsing_inverts_output_polarity() {
        let mut b = NetlistBuilder::new("nand");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let z = b.add_gate("Z", GateKind::Nand, vec![a, bb]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let fl = FaultList::collapsed(&n);
        // classes: {A/0,B/0,Z/1}, {A/1}, {B/1}, {Z/0} -> 4
        assert_eq!(fl.len(), 4);
        let z = n.find("Z").unwrap();
        // Z/1 must have been merged away (A/0 is the representative).
        assert!(!fl.iter().any(|&f| f == Fault::stuck_at_1(Lead::stem(z))));
        assert!(fl.iter().any(|&f| f == Fault::stuck_at_0(Lead::stem(z))));
    }

    #[test]
    fn xor_gate_has_no_collapsing() {
        let mut b = NetlistBuilder::new("xor");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let z = b.add_gate("Z", GateKind::Xor, vec![a, bb]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let fl = FaultList::collapsed(&n);
        assert_eq!(fl.len(), 6); // nothing merges
    }

    #[test]
    fn branch_faults_not_collapsed_with_stem() {
        // A fans out to two NOT gates: branch faults stay separate from the
        // stem faults, but each branch collapses with its inverter output.
        let mut b = NetlistBuilder::new("fan");
        let a = b.add_input("A").unwrap();
        let x = b.add_gate("X", GateKind::Not, vec![a]).unwrap();
        let y = b.add_gate("Y", GateKind::Not, vec![a]).unwrap();
        b.add_output(x);
        b.add_output(y);
        let n = b.finish().unwrap();
        let fl = FaultList::collapsed(&n);
        // Leads: stem A, branch A->X, branch A->Y, stem X, stem Y = 5 leads,
        // 10 faults. Collapses: A->X/v ~ X/!v, A->Y/v ~ Y/!v: -4 classes.
        assert_eq!(fl.len(), 6);
    }

    #[test]
    fn dff_boundary_not_collapsed() {
        let mut b = NetlistBuilder::new("ff");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let d = b.add_gate("D", GateKind::Buf, vec![a]).unwrap();
        b.connect_dff(q, d).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![q]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let fl = FaultList::collapsed(&n);
        // A~D collapse (buffer), Q~Z collapse (buffer), but D and Q do not.
        assert_eq!(fl.len(), 4);
    }

    #[test]
    fn s27_fault_counts() {
        let n = motsim_circuits::s27();
        let complete = FaultList::complete(&n);
        let collapsed = FaultList::collapsed(&n);
        assert!(collapsed.len() < complete.len());
        // s27 has 17 nets; fanout branches exist. Standard collapsed count
        // for s27 is 32 under checkpoint-style collapsing; structural
        // equivalence lands nearby. Pin the value to catch regressions.
        assert_eq!(complete.len(), 2 * n.leads().len());
        assert!(
            collapsed.len() >= 20 && collapsed.len() <= 40,
            "{}",
            collapsed.len()
        );
    }

    #[test]
    fn display_formats() {
        let n = inv_chain();
        let fl = FaultList::collapsed(&n);
        let f = fl.iter().next().unwrap();
        assert_eq!(format!("{}", f.display(&n)), "A/0");
        assert!(f.to_string().contains("/0"));
    }

    #[test]
    fn iteration_modes() {
        let n = inv_chain();
        let fl = FaultList::collapsed(&n);
        assert_eq!(fl.iter().count(), fl.len());
        assert_eq!((&fl).into_iter().count(), fl.len());
        assert_eq!(fl.as_slice().len(), 2);
        assert!(!fl.is_empty());
        let owned: Vec<Fault> = fl.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
    }
}
