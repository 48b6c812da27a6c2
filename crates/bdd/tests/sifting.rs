//! Always-on randomized tests of dynamic variable reordering.
//!
//! Mirrors the `tests/complement.rs` setup: the `motsim-check` property
//! suites (`crates/check/tests/bdd_props.rs`) cover the same ground with
//! shrinking, so this suite drives the sifter with a dependency-free
//! xorshift generator. The invariants under test
//! are the ones the engines rely on: sifting never changes what a handle
//! denotes, never breaks the complement-edge canonical form, and keeps
//! caller-declared groups (MOT's interleaved `(x, y)` rename pairs)
//! contiguous and internally ordered.

use motsim_bdd::{Bdd, BddManager, VarId};

/// xorshift64* — deterministic, dependency-free pseudo-randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NVARS: usize = 8;

/// Builds a random function alongside its truth table (`table[k]` is the
/// value under the assignment encoded by the bits of `k`).
fn random_fn(mgr: &BddManager, rng: &mut Rng, ops: usize) -> (Bdd, Vec<bool>) {
    let rows = 1usize << NVARS;
    let mut pool: Vec<(Bdd, Vec<bool>)> = (0..NVARS)
        .map(|i| {
            let table = (0..rows).map(|k| (k >> i) & 1 == 1).collect();
            (mgr.var(VarId::from_index(i)), table)
        })
        .collect();
    for _ in 0..ops {
        let a = rng.below(pool.len() as u64) as usize;
        let b = rng.below(pool.len() as u64) as usize;
        let (fa, ta) = pool[a].clone();
        let (fb, tb) = pool[b].clone();
        let entry = match rng.below(4) {
            0 => (
                fa.and(&fb).unwrap(),
                ta.iter().zip(&tb).map(|(x, y)| x & y).collect(),
            ),
            1 => (
                fa.or(&fb).unwrap(),
                ta.iter().zip(&tb).map(|(x, y)| x | y).collect(),
            ),
            2 => (
                fa.xor(&fb).unwrap(),
                ta.iter().zip(&tb).map(|(x, y)| x ^ y).collect(),
            ),
            _ => (fa.not(), ta.iter().map(|x| !x).collect()),
        };
        pool.push(entry);
    }
    pool.pop().unwrap()
}

fn assignment(k: usize) -> Vec<bool> {
    (0..NVARS).map(|i| (k >> i) & 1 == 1).collect()
}

fn assert_order_is_permutation(mgr: &BddManager) {
    let order = mgr.current_order();
    assert_eq!(order.len(), mgr.num_vars());
    for (lvl, v) in order.iter().enumerate() {
        assert_eq!(mgr.var_level(*v), lvl, "level maps out of sync at {lvl}");
    }
    let mut ids: Vec<usize> = order.iter().map(|v| v.index()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..mgr.num_vars()).collect::<Vec<_>>());
}

/// Random functions, random sift passes: every handle must evaluate
/// identically before and after, with a canonical arena throughout.
#[test]
fn sift_preserves_every_function() {
    let mut rng = Rng(0xDAC9_5517);
    for round in 0..12 {
        let mgr = BddManager::with_vars(NVARS);
        let funcs: Vec<(Bdd, Vec<bool>)> = (0..4).map(|_| random_fn(&mgr, &mut rng, 25)).collect();
        for pass in 0..3 {
            mgr.sift(&[], 1.0 + rng.below(10) as f64 / 10.0);
            assert_eq!(
                mgr.canonical_violations(),
                0,
                "round {round} pass {pass}: canonical form broken"
            );
            assert_order_is_permutation(&mgr);
            for (fi, (f, table)) in funcs.iter().enumerate() {
                for (k, expect) in table.iter().enumerate() {
                    assert_eq!(
                        f.eval(&assignment(k)),
                        *expect,
                        "round {round} pass {pass} func {fi} row {k}"
                    );
                }
            }
        }
    }
}

/// A pass reclaims what its swaps orphan as it goes: a collection right
/// after it finds nothing to free, and every handle still denotes the same
/// function.
#[test]
fn sift_leaves_no_garbage() {
    let mut rng = Rng(0x5EED_9A2B);
    for round in 0..12 {
        let mgr = BddManager::with_vars(NVARS);
        let funcs: Vec<(Bdd, Vec<bool>)> = (0..4).map(|_| random_fn(&mgr, &mut rng, 25)).collect();
        mgr.sift(&[], 1.0 + rng.below(10) as f64 / 10.0);
        assert_eq!(mgr.gc(), 0, "round {round}: sift left garbage");
        for (fi, (f, table)) in funcs.iter().enumerate() {
            for (k, expect) in table.iter().enumerate() {
                assert_eq!(
                    f.eval(&assignment(k)),
                    *expect,
                    "round {round} func {fi} row {k}"
                );
            }
        }
    }
}

/// Operations after a sift must still hash-cons onto the reordered graph:
/// re-deriving a function yields a pointer-identical handle.
#[test]
fn post_sift_operations_hash_cons() {
    let mut rng = Rng(31337);
    let mgr = BddManager::with_vars(NVARS);
    let (f, table) = random_fn(&mgr, &mut rng, 30);
    mgr.sift(&[], 1.2);
    // Rebuild `f` from scratch out of its truth table (minterm expansion on
    // the reordered manager) — canonicity makes it the same node.
    let mut rebuilt = mgr.zero();
    for (k, on) in table.iter().enumerate() {
        if !on {
            continue;
        }
        let mut term = mgr.one();
        for (i, bit) in assignment(k).iter().enumerate() {
            let v = VarId::from_index(i);
            let lit = if *bit { mgr.var(v) } else { mgr.nvar(v) };
            term = term.and(&lit).unwrap();
        }
        rebuilt = rebuilt.or(&term).unwrap();
    }
    assert_eq!(f, rebuilt, "canonical form lost after sifting");
    assert_eq!(mgr.canonical_violations(), 0);
}

/// Interleaved (x, y) pairs sifted as groups stay adjacent and ordered, and
/// the MOT rename `x_i → y_i` stays order-valid after every pass.
#[test]
fn grouped_sift_keeps_mot_rename_valid() {
    let mut rng = Rng(0xB0B);
    for round in 0..8 {
        // Pairs in creation order: x0 y0 x1 y1 ...
        let mgr = BddManager::with_vars(NVARS);
        let pairs: Vec<Vec<VarId>> = (0..NVARS / 2)
            .map(|i| vec![VarId::from_index(2 * i), VarId::from_index(2 * i + 1)])
            .collect();
        let rename: Vec<(VarId, VarId)> = pairs.iter().map(|p| (p[0], p[1])).collect();
        // A function over the x variables only (like o^f(x, t)).
        let xs: Vec<Bdd> = pairs.iter().map(|p| mgr.var(p[0])).collect();
        let mut f = mgr.zero();
        for _ in 0..10 {
            let a = &xs[rng.below(xs.len() as u64) as usize];
            let b = &xs[rng.below(xs.len() as u64) as usize];
            f = match rng.below(3) {
                0 => f.or(&a.and(b).unwrap()).unwrap(),
                1 => f.xor(a).unwrap(),
                _ => f.or(&a.xor(b).unwrap()).unwrap(),
            };
        }
        let renamed_before = f.rename(&rename).unwrap();
        mgr.sift(&pairs, 1.2);
        assert_eq!(mgr.canonical_violations(), 0, "round {round}");
        for p in &pairs {
            assert_eq!(
                mgr.var_level(p[1]),
                mgr.var_level(p[0]) + 1,
                "round {round}: pair {p:?} torn apart"
            );
        }
        // The rename is still monotone (it would panic otherwise) and still
        // denotes the same function.
        let renamed_after = f.rename(&rename).unwrap();
        assert_eq!(renamed_before, renamed_after, "round {round}");
    }
}

/// A sift pass under a node limit must neither fail nor leave the limit
/// disabled: transient swap nodes are exempt, but later user operations are
/// not.
#[test]
fn sift_ignores_but_restores_node_limit() {
    let mgr = BddManager::with_vars(6);
    let vars: Vec<Bdd> = (0..6).map(|i| mgr.var(VarId::from_index(i))).collect();
    let mut f = mgr.zero();
    for i in 0..3 {
        f = f.or(&vars[i].and(&vars[i + 3]).unwrap()).unwrap();
    }
    let limit = mgr.live_nodes();
    mgr.set_node_limit(Some(limit));
    let freed = mgr.sift(&[], 1.2);
    assert!(freed > 0, "pair order shrinks the disjoint cover");
    assert_eq!(mgr.node_limit(), Some(limit), "limit must survive the pass");
}
