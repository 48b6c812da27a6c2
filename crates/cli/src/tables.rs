//! `motsim tables`: regenerates the paper's Tables I–IV, the Fig. 1–3
//! walkthroughs and the node-limit sweep.
//!
//! ```text
//! motsim tables table1 [--len N] [--quick]   Table I   (ID_X-red speedup)
//! motsim tables table2 [--len N] [--quick]   Table II  (SOT/rMOT/MOT, random)
//! motsim tables table3 [--quick]             Table III (SOT/rMOT/MOT, deterministic)
//! motsim tables table4 [--len N]             Table IV  (symbolic test evaluation)
//! motsim tables figs                         Fig. 1–3 walkthroughs
//! motsim tables limits [--len N]             node-limit sweep (accuracy/time)
//! motsim tables all [--quick]                everything
//! ```
//!
//! Every table takes the same options: `--len`, `--seed`, `--quick`,
//! `--limit`, `--jobs`, `--units` and `--reorder`; any other option is an
//! error. Every row goes through the same option parser, engine-job
//! set-up and output writer as `motsim sim3` and `motsim strategies`. The
//! defaults are the paper's parameters (200 random vectors, 30,000-node
//! limit); `--quick` trims the circuit lists and the sequence lengths so
//! `all` finishes in under a minute.

use std::fmt;
use std::time::{Duration, Instant};

use motsim::faults::FaultList;
use motsim::pattern::TestSequence;
use motsim::symbolic::{Strategy, SymbolicFaultSim};
use motsim::testeval::{reference_response, SymbolicOutputSequence};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim::{Fault, FaultSimEngine};
use motsim_circuits::suite::BenchmarkSpec;
use motsim_engine::EngineKind;
use motsim_netlist::{Lead, Netlist};
use motsim_trace::NullSink;

use crate::{die, hybrid_run, job, run_job, three_valued_prepass, Opts};

/// Runs the table named `which` (`all` runs every one in turn).
pub fn run(which: &str, opts: &Opts) {
    match which {
        "table1" => table1(opts),
        "table2" => table2(opts),
        "table3" => table3(opts),
        "table4" => table4(opts),
        "figs" => figs(),
        "limits" => limits(opts),
        "all" => {
            table1(opts);
            table2(opts);
            table3(opts);
            table4(opts);
            limits(opts);
            figs();
        }
        other => die(&format!("unknown table `{other}`")),
    }
}

/// Right-aligns `s` into a cell of width `w`.
fn cell(s: impl fmt::Display, w: usize) -> String {
    format!("{:>w$}", s.to_string(), w = w)
}

/// Formats seconds with the paper's precision (two decimals).
fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a node count the way the paper does (`30,000`).
fn grouped(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// The suite entry behind a table row.
fn spec(name: &str) -> BenchmarkSpec {
    motsim_circuits::suite::all()
        .into_iter()
        .find(|s| s.name == name)
        .expect("table circuits are suite members")
}

fn table1_names(quick: bool) -> Vec<&'static str> {
    let all = motsim_circuits::suite::table1_names();
    if quick {
        all.into_iter()
            .filter(|n| {
                !matches!(
                    *n,
                    "g5378" | "g9234" | "g13207" | "g15850" | "g35932" | "g38417" | "g38584"
                )
            })
            .collect()
    } else {
        all
    }
}

fn table23_names(quick: bool) -> Vec<&'static str> {
    let all = motsim_circuits::suite::table23_names();
    if quick {
        all.into_iter()
            .filter(|n| !matches!(*n, "g1196" | "g1238" | "g1423" | "g5378"))
            .collect()
    } else {
        all
    }
}

fn table1(opts: &Opts) {
    outln!(
        "\nTable I: influence of ID_X-red on three-valued fault simulation \
         ({} random vectors, seed {})",
        opts.len,
        opts.seed
    );
    outln!(
        "{} {} {} {} {} {} {} {}",
        cell("Circ.", 9),
        cell("(paper)", 10),
        cell("|F|", 7),
        cell("X-red", 7),
        cell("|F_d|", 7),
        cell("X01[s]", 9),
        cell("X01_p[s]", 9),
        cell("IDX[s]", 8),
    );
    for name in table1_names(opts.quick) {
        let spec = spec(name);
        let netlist = (spec.build)();
        let faults = FaultList::collapsed(&netlist);
        let seq = TestSequence::random(&netlist, opts.len, opts.seed);

        let t0 = Instant::now();
        let analysis = XRedAnalysis::analyze(&netlist, &seq);
        let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), opts.jobs);
        let t_idx = t0.elapsed();

        let sim3 = |faults: &[Fault]| {
            let t0 = Instant::now();
            let job = job(&netlist, &seq, faults, EngineKind::Sim3, opts);
            let detected = run_job(&job, &mut NullSink).outcome.num_detected();
            (detected, t0.elapsed())
        };
        let (detected, t_x01) = sim3(faults.as_slice());
        let (_, t_x01p) = sim3(&rest);

        outln!(
            "{} {} {} {} {} {} {} {}",
            cell(name, 9),
            cell(spec.paper_name, 10),
            cell(faults.len(), 7),
            cell(red.len(), 7),
            cell(detected, 7),
            cell(secs(t_x01), 9),
            cell(secs(t_x01p), 9),
            cell(secs(t_idx), 8),
        );
    }
}

fn print_table23_header() {
    outln!(
        "{} {} {} {} | {} {} {} | {} {} {}",
        cell("Circ.", 9),
        cell("|T|", 5),
        cell("|F|", 7),
        cell("|F_u|", 7),
        cell("SOT", 6),
        cell("rMOT", 6),
        cell("MOT", 6),
        cell("SOT[s]", 8),
        cell("rMOT[s]", 8),
        cell("MOT[s]", 8),
    );
}

/// Runs and prints one Table II/III row: the three-valued pre-pass, then
/// SOT, rMOT and MOT over the faults it leaves open (`|F_u|`). An asterisk
/// marks a count the hybrid engine reached with three-valued fallback.
/// Returns the per-strategy detected counts.
fn table23_row(name: &str, netlist: &Netlist, seq: &TestSequence, opts: &Opts) -> [usize; 3] {
    let faults = FaultList::collapsed(netlist);
    let hard = three_valued_prepass(netlist, seq, faults.as_slice(), opts, &mut NullSink);
    let runs = Strategy::ALL.map(|strategy| {
        let t0 = Instant::now();
        let outcome = hybrid_run(netlist, seq, &hard, strategy, opts, &mut NullSink).outcome;
        (outcome, t0.elapsed())
    });
    let det = |i: usize| {
        let outcome = &runs[i].0;
        let star = if outcome.is_approximate() { "*" } else { "" };
        format!("{star}{}", outcome.num_detected())
    };
    outln!(
        "{} {} {} {} | {} {} {} | {} {} {}",
        cell(name, 9),
        cell(seq.len(), 5),
        cell(faults.len(), 7),
        cell(hard.len(), 7),
        cell(det(0), 6),
        cell(det(1), 6),
        cell(det(2), 6),
        cell(secs(runs[0].1), 8),
        cell(secs(runs[1].1), 8),
        cell(secs(runs[2].1), 8),
    );
    runs.map(|(outcome, _)| outcome.num_detected())
}

fn table2(opts: &Opts) {
    outln!(
        "\nTable II: SOT vs rMOT vs MOT on the three-valued-undetected faults \
         ({} random vectors, {}-node limit)",
        opts.len,
        grouped(opts.limit)
    );
    print_table23_header();
    let mut sums = [0usize; 3];
    for name in table23_names(opts.quick) {
        let netlist = (spec(name).build)();
        let seq = TestSequence::random(&netlist, opts.len, opts.seed);
        let detected = table23_row(name, &netlist, &seq, opts);
        for (sum, d) in sums.iter_mut().zip(detected) {
            *sum += d;
        }
    }
    outln!(
        "{} Σ detected: SOT {}  rMOT {}  MOT {}",
        cell("", 9),
        sums[0],
        sums[1],
        sums[2]
    );
}

fn table3(opts: &Opts) {
    outln!("\nTable III: SOT vs rMOT vs MOT on deterministic (fault-oriented) sequences");
    print_table23_header();
    for name in table23_names(opts.quick) {
        let netlist = (spec(name).build)();
        let faults = FaultList::collapsed(&netlist);
        let seq = tgen::generate(
            &netlist,
            faults.iter().cloned(),
            TgenConfig {
                max_len: if opts.quick { 120 } else { 400 },
                seed: opts.seed,
                ..TgenConfig::default()
            },
        );
        if seq.is_empty() {
            continue;
        }
        table23_row(name, &netlist, &seq, opts);
    }
}

fn table4(opts: &Opts) {
    outln!(
        "\nTable IV: symbolic test evaluation ({}-node limit)",
        grouped(opts.limit)
    );
    outln!(
        "{} {} {} {} {} {}",
        cell("Circ.", 9),
        cell("PO", 4),
        cell("|T|", 5),
        cell("BDD size", 9),
        cell("prefix", 7),
        cell("eval[s]", 8),
    );
    // The paper lists the circuits where MOT beat rMOT/SOT; our analogues:
    for name in ["g208", "g420", "g510", "g953", "g838"] {
        let netlist = (spec(name).build)();
        let seq = TestSequence::random(&netlist, opts.len, opts.seed);
        let sos = SymbolicOutputSequence::compute(&netlist, &seq, Some(opts.limit));
        let response = reference_response(&netlist, &seq, &vec![false; netlist.num_dffs()]);
        let t0 = Instant::now();
        let verdict = sos.evaluate(&response);
        let eval_time = t0.elapsed();
        assert!(
            !verdict.is_faulty(),
            "a genuine fault-free response must be accepted"
        );
        let star = if sos.prefix_len() > 0 { "*" } else { "" };
        outln!(
            "{} {} {} {} {} {}",
            cell(name, 9),
            cell(netlist.num_outputs(), 4),
            cell(seq.len(), 5),
            cell(format!("{star}{}", sos.bdd_size()), 9),
            cell(sos.prefix_len(), 7),
            cell(secs(eval_time), 8),
        );
    }
}

/// The Fig. 1–3 walkthroughs: tiny circuits where SOT provably fails and
/// MOT succeeds, printed with their detection-function algebra.
fn figs() {
    outln!("\nFig. 1: stuck-at fault not detected under SOT (uninitialized machines)");
    // The fault corrupts the feedback so both machines stay uninitialized,
    // yet the response *sets* are disjoint.
    let n = motsim_circuits::fig1();
    let fault = Fault::stuck_at_0(Lead::stem(n.find("A").expect("fig1 has A")));
    let seq = TestSequence::new(2, vec![vec![true, false], vec![false, false]]);
    outln!("  circuit: O = (A ⊕ Q) ⊕ B, Q' = Q; fault A stuck-at-0; Z = ([1,0],[0,0])");
    run_strategies(&n, fault, &seq);

    outln!("\nFig. 2: SOT failure despite fault-free initialization");
    // A counter with synchronous clear: the sequence initializes the
    // fault-free machine (CLR=1) but a fault on the clear path keeps the
    // faulty machine unknown. Clear, count 4, clear again, count 8: the
    // fault-free machine is re-synchronized mid-sequence; the faulty
    // machine keeps counting and raises the terminal count at the wrong
    // time for *every* initial state — undetectable under SOT
    // (Definition 2), detected by rMOT/MOT.
    let n = motsim_circuits::generators::counter(3);
    let fault = Fault::stuck_at_1(Lead::stem(n.find("NCLR").expect("counter has NCLR")));
    let mut vectors = vec![vec![false, true]];
    vectors.extend(std::iter::repeat_n(vec![true, false], 4));
    vectors.push(vec![false, true]);
    vectors.extend(std::iter::repeat_n(vec![true, false], 8));
    let seq = TestSequence::new(2, vectors);
    outln!("  circuit: 3-bit counter; fault NCLR stuck-at-1 (clear defeated)");
    outln!("  sequence: CLR, count x4, CLR, count x8");
    run_strategies(&n, fault, &seq);

    outln!("\nFig. 3: the worked MOT example, D(x,y) = [x ≡ ȳ]·[x ≡ y] ≡ 0");
    let n = motsim_circuits::fig3();
    let fault = Fault::stuck_at_0(Lead::stem(n.find("A").expect("fig3 has A")));
    let seq = TestSequence::new(1, vec![vec![true], vec![false]]);
    outln!("  circuit: O = XNOR(A, Q), Q' = Q; fault A stuck-at-0; Z = (1, 0)");
    outln!("  fault-free outputs: (x, x̄); faulty outputs: (ȳ, ȳ)");
    outln!("  D(x,y) = [x ≡ ȳ]·[x̄ ≡ ȳ] = [x ≡ ȳ]·[x ≡ y] ≡ 0");
    run_strategies(&n, fault, &seq);
}

fn run_strategies(netlist: &Netlist, fault: Fault, seq: &TestSequence) {
    for strategy in Strategy::ALL {
        let t0 = Instant::now();
        let outcome = SymbolicFaultSim::new(netlist, strategy)
            .run(seq, [fault])
            .expect("no node limit");
        outln!(
            "  {strategy:>4}: {} ({} ms)",
            if outcome.num_detected() == 1 {
                "DETECTED"
            } else {
                "not detected"
            },
            t0.elapsed().as_millis()
        );
    }
}

/// The node-limit sweep: accuracy and time of hybrid MOT as the space
/// budget varies — the knob behind the paper's s838.1 anomaly. Each limit
/// runs one manager over all hard faults: a sharded job would charge the
/// limit per unit and move the numbers (DESIGN.md §8).
fn limits(opts: &Opts) {
    outln!(
        "\nNode-limit sweep: hybrid MOT on g420 / g526 ({} random vectors)",
        opts.len
    );
    outln!(
        "{} {} {} {} {} {}",
        cell("Circ.", 9),
        cell("limit", 8),
        cell("det", 6),
        cell("fb-frames", 10),
        cell("skipped", 8),
        cell("time[s]", 8),
    );
    for name in ["g420", "g526"] {
        let netlist = (spec(name).build)();
        let faults = FaultList::collapsed(&netlist);
        let seq = TestSequence::random(&netlist, opts.len, opts.seed);
        let hard = three_valued_prepass(&netlist, &seq, faults.as_slice(), opts, &mut NullSink);
        for limit in [500usize, 2_000, 10_000, 30_000, 120_000] {
            let t0 = Instant::now();
            let outcome = motsim::HybridEngine
                .run(
                    &netlist,
                    &seq,
                    &hard,
                    motsim::SimConfig::new()
                        .strategy(Strategy::Mot)
                        .node_limit(Some(limit)),
                )
                .expect("hybrid never fails on a valid config");
            outln!(
                "{} {} {} {} {} {}",
                cell(name, 9),
                cell(limit, 8),
                cell(outcome.num_detected(), 6),
                cell(outcome.fallback_frames, 10),
                cell(outcome.degraded_terms, 8),
                cell(secs(t0.elapsed()), 8),
            );
        }
    }
}
