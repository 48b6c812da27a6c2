//! `motsim` — command-line front end for the symbolic fault simulator.
//!
//! ```text
//! motsim stats       <circuit>
//! motsim faults      <circuit> [--complete]
//! motsim sim3        <circuit> [--len N] [--seed S] [--quick] [--no-xred] [--jobs N]
//!                    [--units N] [--bdd-stats] [--trace FILE]
//! motsim strategies  <circuit> [--len N] [--seed S] [--quick] [--limit NODES] [--jobs N]
//!                    [--units N] [--reorder none|sift] [--bdd-stats] [--trace FILE]
//! motsim xred        <circuit> [--len N] [--seed S] [--quick] [--static] [--jobs N]
//!                    [--trace FILE]
//! motsim tgen        <circuit> [--max-len N] [--seed S]
//! motsim testeval    <circuit> [--len N] [--seed S] [--quick] [--limit NODES]
//! motsim dot         <circuit> [--len N] [--seed S] [--quick] [--output J]
//! motsim vcd         <circuit> [--len N] [--seed S] [--quick] [--inject K] [--all-nets]
//! motsim list
//! motsim trace-check <file.jsonl>
//! motsim tables      <table1|table2|table3|table4|figs|limits|all> [--len N] [--seed S]
//!                    [--quick] [--limit NODES] [--jobs N] [--units N] [--reorder none|sift]
//! motsim fuzz        [--seed S] [--cases N] [--max-dffs M]
//! ```
//!
//! Each command takes only the options listed with it: any other option,
//! or an extra argument, exits with status 2 before anything is printed.
//! `--seed` takes a decimal or a `0x` hexadecimal number. `<circuit>` is
//! either a built-in suite name (`g208`, `g298`, … — see `motsim list`) or
//! a path to an ISCAS-89 `.bench` file. `motsim tables` regenerates the
//! paper's Tables I–IV, the Fig. 1–3 walkthroughs and the node-limit sweep
//! (see the [`tables`] module).

use std::fmt;
use std::io::{ErrorKind, Write};
use std::process::exit;
use std::time::Instant;

/// `println!` for command output, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod tables;

use motsim::faults::FaultList;
use motsim::hybrid::HybridConfig;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::Strategy;
use motsim::testeval::{reference_response, SymbolicOutputSequence, TestVerdict};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim::Fault;
use motsim_engine::{EngineKind, Job, JobResult};
use motsim_netlist::analysis::NetlistStats;
use motsim_netlist::Netlist;
use motsim_trace::{JsonlSink, TraceEvent, TraceSink};

/// Every command: its name, its positional argument (empty if none), the
/// options it reads and a summary. [`parse_opts`] rejects every option a
/// command does not list here, and the usage text is built from this
/// table.
const COMMANDS: &[(&str, &str, &str, &str)] = &[
    (
        "stats",
        "<circuit>",
        "",
        "structural statistics of the circuit",
    ),
    (
        "faults",
        "<circuit>",
        "--complete",
        "print the collapsed stuck-at fault list",
    ),
    (
        "sim3",
        "<circuit>",
        "--len --seed --quick --no-xred --jobs --units --bdd-stats --trace",
        "three-valued fault simulation (with ID_X-red pre-pass)",
    ),
    (
        "strategies",
        "<circuit>",
        "--len --seed --quick --limit --jobs --units --reorder --bdd-stats --trace",
        "compare SOT / rMOT / MOT coverage (hybrid, node-limited)",
    ),
    (
        "xred",
        "<circuit>",
        "--len --seed --quick --static --jobs --trace",
        "X-redundancy analysis (add --static for any-sequence mode)",
    ),
    (
        "tgen",
        "<circuit>",
        "--max-len --seed",
        "generate a compact fault-oriented test sequence",
    ),
    (
        "testeval",
        "<circuit>",
        "--len --seed --quick --limit",
        "symbolic test evaluation demo (accept good / reject bad)",
    ),
    (
        "dot",
        "<circuit>",
        "--len --seed --quick --output",
        "Graphviz dump of a symbolic output function",
    ),
    (
        "vcd",
        "<circuit>",
        "--len --seed --quick --inject --all-nets",
        "Value Change Dump of a (faulty) simulation to stdout",
    ),
    ("list", "", "", "list the built-in benchmark suite"),
    (
        "trace-check",
        "<file.jsonl>",
        "",
        "validate a --trace JSONL file (schema + frame order)",
    ),
    (
        "tables",
        "<table>",
        "--len --seed --quick --limit --jobs --units --reorder",
        "regenerate the paper's experiments (see below)",
    ),
    (
        "fuzz",
        "",
        "--seed --cases --max-dffs",
        "differential fuzzing of every engine (see below)",
    ),
];

const OPTIONS: &str = "\
<circuit> is a suite name (try `motsim list`) or a .bench file path.
<table> is table1 (ID_X-red speedup), table2 (SOT/rMOT/MOT, random),
table3 (SOT/rMOT/MOT, deterministic), table4 (symbolic test evaluation),
figs (Fig. 1-3 walkthroughs), limits (node-limit sweep) or all.
fuzz cross-checks the engines law by law on random circuits, shrinks each
counterexample to a reproducer, and exits 1 if any law is violated.

options (each command takes only those listed with it):
  --len N        random test-sequence length (default 200)
  --seed S       random seed, decimal or 0x hex (default 0xDAC95)
  --quick        --len defaults to 50; tables also skip their largest
                 circuits and cap Table III's sequences at 120 vectors
  --limit NODES  BDD node limit of hybrid runs and testeval (default 30000)
  --max-len N    longest sequence tgen may build (default 400)
  --complete     the complete fault list instead of the collapsed one
  --static       X-redundancy for any sequence, not just the random one
  --no-xred      skip the ID_X-red pre-pass
  --inject K     simulate collapsed fault #K (1-based; default 0 = none)
  --output J     which primary output to dump (default 0)
  --all-nets     dump every net, not just the interface
  --jobs N       worker threads (default 1); results do not depend on N
  --units N      fixed work-unit count (default 0 = auto); for strategies
                 and tables it shapes only the hybrid runs, whose verdicts
                 can change with N (DESIGN.md §8)
  --reorder none|sift
                 on node-limit pressure, `sift` tries one reordering pass
                 before the three-valued fallback (default `none`)
  --bdd-stats    print BDD usage: peak nodes, gc runs, ITE cache hit rate,
                 unique-table probe length, reorder and fallback counts
  --trace FILE   stream JSONL telemetry to FILE, byte-identical for every
                 --jobs value; validate with `motsim trace-check FILE`
  --cases N      fuzz cases per law (default 32)
  --max-dffs M   flip-flop cap of the fuzzed circuits, 1..=16 (default 5)";

/// The usage text: every command with the options it takes.
fn usage() -> String {
    let mut text = String::from("usage: motsim <command> [<circuit>] [options]\n\ncommands:\n");
    for (name, arg, opts, about) in COMMANDS {
        let head = format!("  {name} {arg}");
        text.push_str(&format!("{:<28} {about}\n", head.trim_end()));
        let mut line = format!("{:<28} options:", "");
        for opt in opts.split_whitespace() {
            if line.len() + 1 + opt.len() > 80 {
                text.push_str(&line);
                line = format!("\n{:<37}", "");
            }
            line.push(' ');
            line.push_str(opt);
        }
        if !opts.is_empty() {
            text.push_str(&line);
            text.push('\n');
        }
    }
    text.push('\n');
    text.push_str(OPTIONS);
    text
}

struct Opts {
    len: usize,
    seed: u64,
    limit: usize,
    max_len: usize,
    complete: bool,
    static_mode: bool,
    no_xred: bool,
    inject: usize,
    output: usize,
    all_nets: bool,
    jobs: usize,
    units: usize,
    bdd_stats: bool,
    reorder: motsim::hybrid::ReorderPolicy,
    trace: Option<String>,
    quick: bool,
    cases: usize,
    max_dffs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            len: 200,
            seed: 0xDAC95,
            limit: 30_000,
            max_len: 400,
            complete: false,
            static_mode: false,
            no_xred: false,
            inject: 0,
            output: 0,
            all_nets: false,
            jobs: 1,
            units: 0,
            bdd_stats: false,
            reorder: motsim::hybrid::ReorderPolicy::None,
            trace: None,
            quick: false,
            cases: 32,
            max_dffs: 5,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

/// Writes command output to stdout; all output goes through here. A
/// reader that closed the pipe early (`motsim faults g5378 | head -1`)
/// ends the program quietly with status 0; any other write error ends it
/// with status 2.
fn write_stdout(args: fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        exit(2);
    }
}

/// Parses the options of command `cmd`, which reads the space-separated
/// `accepted` ones: any other option, or any stray argument, exits with
/// status 2.
fn parse_opts(cmd: &str, accepted: &str, args: &[String]) -> Opts {
    fn value<'a>(args: &mut std::slice::Iter<'a, String>, opt: &str, what: &str) -> &'a str {
        args.next()
            .unwrap_or_else(|| die(&format!("{opt} needs {what}")))
    }
    fn number(args: &mut std::slice::Iter<'_, String>, opt: &str) -> usize {
        value(args, opt, "a number")
            .parse()
            .unwrap_or_else(|_| die(&format!("{opt} needs a number")))
    }

    let mut o = Opts::default();
    let mut len_given = false;
    let mut args = args.iter();
    while let Some(opt) = args.next() {
        let opt = opt.as_str();
        if !accepted.split_whitespace().any(|o| o == opt) {
            die(&format!("`{cmd}` does not take `{opt}`"));
        }
        match opt {
            "--len" => {
                o.len = number(&mut args, opt);
                len_given = true;
            }
            "--seed" => {
                let v = value(&mut args, opt, "a number");
                o.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .unwrap_or_else(|_| die("--seed needs a number"));
            }
            "--limit" => o.limit = number(&mut args, opt),
            "--max-len" => o.max_len = number(&mut args, opt),
            "--inject" => o.inject = number(&mut args, opt),
            "--jobs" => o.jobs = number(&mut args, opt),
            "--units" => o.units = number(&mut args, opt),
            "--output" => o.output = number(&mut args, opt),
            "--cases" => o.cases = number(&mut args, opt),
            "--max-dffs" => o.max_dffs = number(&mut args, opt),
            "--complete" => o.complete = true,
            "--static" => o.static_mode = true,
            "--no-xred" => o.no_xred = true,
            "--all-nets" => o.all_nets = true,
            "--bdd-stats" => o.bdd_stats = true,
            "--trace" => o.trace = Some(value(&mut args, opt, "a file path").to_owned()),
            "--quick" => o.quick = true,
            "--reorder" => {
                o.reorder = match value(&mut args, opt, "`none` or `sift`") {
                    "none" => motsim::hybrid::ReorderPolicy::None,
                    "sift" => motsim::hybrid::ReorderPolicy::Sift,
                    _ => die("--reorder needs `none` or `sift`"),
                }
            }
            _ => unreachable!("`{opt}` is listed for `{cmd}` but not parsed"),
        }
    }
    if o.quick && !len_given {
        o.len = 50;
    }
    for (opt, n) in [
        ("--limit", o.limit),
        ("--jobs", o.jobs),
        ("--cases", o.cases),
    ] {
        if n == 0 {
            die(&format!("{opt} must be at least 1"));
        }
    }
    if !(1..=16).contains(&o.max_dffs) {
        die("--max-dffs must be in 1..=16 (the oracle enumerates 2^m states)");
    }
    o
}

/// The engine-job set-up of `sim3`, `strategies` and `tables`: `--jobs`
/// workers, and `--units` work units when given.
fn job<'a>(
    netlist: &'a Netlist,
    seq: &'a TestSequence,
    faults: &'a [Fault],
    engine: EngineKind,
    opts: &Opts,
) -> Job<'a> {
    let job = Job::new(netlist, seq, faults, engine).jobs(opts.jobs);
    if opts.units > 0 {
        job.units(opts.units)
    } else {
        job
    }
}

/// The three-valued pre-pass of `strategies` and Tables II/III: returns
/// the faults it leaves undetected (`F_u`), which the hybrid runs then
/// grade. It runs at the default unit count: `--units` shapes only the
/// hybrid jobs.
fn three_valued_prepass(
    netlist: &Netlist,
    seq: &TestSequence,
    faults: &[Fault],
    opts: &Opts,
    sink: &mut dyn TraceSink,
) -> Vec<Fault> {
    let job = Job::new(netlist, seq, faults, EngineKind::Sim3).jobs(opts.jobs);
    run_job(&job, sink).outcome.undetected_faults().collect()
}

/// Runs one strategy's hybrid job under `--limit` and `--reorder`.
fn hybrid_run(
    netlist: &Netlist,
    seq: &TestSequence,
    faults: &[Fault],
    strategy: Strategy,
    opts: &Opts,
    sink: &mut dyn TraceSink,
) -> JobResult {
    let config = HybridConfig {
        node_limit: opts.limit,
        reorder: opts.reorder,
        ..HybridConfig::default()
    };
    let engine = EngineKind::Hybrid(strategy, config);
    run_job(&job(netlist, seq, faults, engine, opts), sink)
}

/// Runs an engine job, replaying its deterministic trace stream into
/// `sink` (the merged stream is byte-identical for every `--jobs` value).
fn run_job(job: &Job, sink: &mut dyn TraceSink) -> JobResult {
    motsim_engine::run_traced(job, sink).unwrap_or_else(|e| die(&format!("engine failure: {e}")))
}

/// The CLI's sink behind `--trace`: streams JSONL to the file, or, without
/// `--trace`, is disabled and costs nothing.
struct TraceOut(Option<JsonlSink<std::io::BufWriter<std::fs::File>>>);

impl TraceOut {
    /// Creates the `--trace` file, if one was given.
    fn from_opts(opts: &Opts) -> TraceOut {
        TraceOut(opts.trace.as_deref().map(|path| {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create `{path}`: {e}")));
            JsonlSink::new(std::io::BufWriter::new(file))
        }))
    }

    /// Flushes the JSONL file. Trace I/O errors are fatal only here, after
    /// the simulation finished.
    fn finish(self, opts: &Opts) {
        if let Some(Err(e)) = self.0.map(JsonlSink::finish) {
            let path = opts.trace.as_deref().unwrap_or("?");
            die(&format!("writing trace `{path}`: {e}"));
        }
    }
}

impl TraceSink for TraceOut {
    fn event(&mut self, event: &TraceEvent) {
        if let Some(jsonl) = &mut self.0 {
            jsonl.event(event);
        }
    }

    fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// The BDD usage of a run, as the `--bdd-stats` flag prints it. The second
/// line is the pressure-response summary: sifting passes, level swaps, and
/// how many frames still had to run three-valued.
fn bdd_stats(bdd: &motsim::BddUsage, fallback_frames: usize) -> String {
    if bdd.unique_lookups == 0 && bdd.cache_misses == 0 {
        return "  bdd: no symbolic work performed".to_owned();
    }
    let rate = bdd
        .cache_hit_rate()
        .map(|r| format!("{:.1}%", 100.0 * r))
        .unwrap_or_else(|| "n/a".to_owned());
    let probe = bdd
        .avg_probe_len()
        .map(|p| format!("{p:.2}"))
        .unwrap_or_else(|| "n/a".to_owned());
    format!(
        "  bdd: peak {} node(s), {} gc run(s), ite cache hit rate {}, avg unique-table probe {}\n  \
         reorder: {} sifting pass(es), {} level swap(s); {} fallback frame(s)",
        bdd.peak_live_nodes,
        bdd.gc_runs,
        rate,
        probe,
        bdd.reorder_runs,
        bdd.reorder_swaps,
        fallback_frames
    )
}

fn load_circuit(name: &str) -> Netlist {
    if let Some(n) = motsim_circuits::suite::by_name(name) {
        return n;
    }
    if name == "s27" {
        return motsim_circuits::s27();
    }
    match std::fs::read_to_string(name) {
        Ok(text) => {
            let base = std::path::Path::new(name)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("circuit");
            match motsim_netlist::parse::parse_bench(base, &text) {
                Ok(n) => n,
                Err(e) => die(&format!("cannot parse `{name}`: {e}")),
            }
        }
        Err(e) => die(&format!(
            "`{name}` is neither a suite circuit nor a readable file ({e})"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        die("missing command")
    };
    let Some(&(cmd, what, accepted, _)) = COMMANDS.iter().find(|c| c.0 == name) else {
        die(&format!("unknown command `{name}`"))
    };
    let (arg, rest) = match args.get(1) {
        _ if what.is_empty() => ("", &args[1..]),
        Some(arg) if !arg.starts_with("--") => (arg.as_str(), &args[2..]),
        _ => die(&format!("`{cmd}` needs {what}")),
    };
    let opts = parse_opts(cmd, accepted, rest);
    let netlist = || load_circuit(arg);
    match cmd {
        "list" => cmd_list(),
        "trace-check" => cmd_trace_check(arg),
        "fuzz" => cmd_fuzz(&opts),
        "tables" => tables::run(arg, &opts),
        "stats" => cmd_stats(&netlist()),
        "faults" => cmd_faults(&netlist(), &opts),
        "sim3" => cmd_sim3(&netlist(), &opts),
        "strategies" => cmd_strategies(&netlist(), &opts),
        "xred" => cmd_xred(&netlist(), &opts),
        "tgen" => cmd_tgen(&netlist(), &opts),
        "testeval" => cmd_testeval(&netlist(), &opts),
        "dot" => cmd_dot(&netlist(), &opts),
        "vcd" => cmd_vcd(&netlist(), &opts),
        other => unreachable!("`{other}` has no handler"),
    }
}

/// Validates a `--trace` JSONL file: every line parses, and frame-anchored
/// events are monotone (non-decreasing) within each unit bracket / engine
/// run. Exits 1 on the first violation.
fn cmd_trace_check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read `{path}`: {e}")));
    let mut watermark: Option<usize> = None;
    let mut events = 0usize;
    let mut units = 0usize;
    let mut runs = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::parse_jsonl(line).unwrap_or_else(|e| {
            eprintln!("error: {path}:{}: {e}", idx + 1);
            exit(1);
        });
        events += 1;
        match ev {
            TraceEvent::UnitStart { .. } => {
                units += 1;
                watermark = None;
            }
            TraceEvent::RunStart { .. } => {
                runs += 1;
                watermark = None;
            }
            _ => {
                if let Some(frame) = ev.frame() {
                    if let Some(w) = watermark {
                        if frame < w {
                            eprintln!(
                                "error: {path}:{}: frame {frame} regresses below {w} \
                                 within one unit",
                                idx + 1
                            );
                            exit(1);
                        }
                    }
                    watermark = Some(frame);
                }
            }
        }
    }
    if events == 0 {
        eprintln!("error: `{path}` holds no trace events");
        exit(1);
    }
    outln!(
        "{path}: {events} event(s), {runs} engine run(s), {units} unit bracket(s); \
         frames monotone per unit"
    );
}

/// Differential fuzzing over random circuits: every law from
/// `motsim-check`, each over `--cases` random cases; counterexamples are
/// shrunk and dumped as self-contained reproducers. The output carries no
/// timing, so two runs with identical options are byte-identical.
fn cmd_fuzz(opts: &Opts) {
    let (seed, cases, max_dffs) = (opts.seed, opts.cases, opts.max_dffs);
    let config = motsim_check::Config {
        cases,
        seed,
        ..motsim_check::Config::default()
    };
    let reports = motsim_check::fuzz(&config, max_dffs);
    let laws = reports.len();
    let mut bad = 0usize;
    for report in reports {
        match report.counterexample {
            None => outln!("ok   {:<26} {} case(s)", report.law, report.cases),
            Some(cex) => {
                bad += 1;
                outln!(
                    "FAIL {:<26} case {} (seed {:#x}), {} shrink step(s): {}",
                    report.law,
                    cex.case_index,
                    cex.case_seed,
                    cex.shrink_steps,
                    cex.message
                );
                outln!(
                    "     shrunk to {} gate(s), {} flip-flop(s), {} frame(s), {} fault(s):",
                    cex.shrunk.netlist.num_gates(),
                    cex.shrunk.netlist.num_dffs(),
                    cex.shrunk.seq.len(),
                    cex.shrunk.faults.len()
                );
                for line in cex.shrunk.reproducer().lines() {
                    outln!("     {line}");
                }
            }
        }
    }
    outln!(
        "fuzz: {laws} law(s), {cases} case(s) each, {bad} counterexample(s) \
         (seed {seed:#x}, max-dffs {max_dffs})"
    );
    if bad > 0 {
        exit(1);
    }
}

fn cmd_list() {
    outln!("built-in benchmark suite:");
    for s in motsim_circuits::suite::all() {
        let n = (s.build)();
        outln!(
            "  {:<10} ({:>9})  {:>3} PI {:>3} PO {:>4} FF {:>5} gates",
            s.name,
            s.paper_name,
            n.num_inputs(),
            n.num_outputs(),
            n.num_dffs(),
            n.num_gates()
        );
    }
}

fn cmd_stats(netlist: &Netlist) {
    let st = NetlistStats::of(netlist);
    outln!("circuit {}", netlist.name());
    outln!("  inputs      {}", st.inputs);
    outln!("  outputs     {}", st.outputs);
    outln!("  flip-flops  {}", st.dffs);
    outln!("  gates       {}", st.gates);
    outln!("  depth       {}", st.depth);
    outln!("  stems       {}", st.stems);
    outln!("  max fanout  {}", st.max_fanout);
    let mix: String = st
        .kind_histogram
        .iter()
        .map(|(k, c)| format!("{k}:{c} "))
        .collect();
    outln!("  gate mix    {mix}");
    let faults = FaultList::collapsed(netlist);
    outln!(
        "  faults      {} collapsed / {} complete",
        faults.len(),
        faults.complete_len()
    );
}

fn cmd_faults(netlist: &Netlist, opts: &Opts) {
    let list = if opts.complete {
        FaultList::complete(netlist)
    } else {
        FaultList::collapsed(netlist)
    };
    for (i, f) in list.iter().enumerate() {
        outln!("{i:>5}  {}", f.display(netlist));
    }
    eprintln!("{} faults", list.len());
}

fn cmd_sim3(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let mut trace = TraceOut::from_opts(opts);
    let t0 = Instant::now();
    let (sim_faults, x_red) = if opts.no_xred {
        (faults.as_slice().to_vec(), 0)
    } else {
        let analysis = XRedAnalysis::analyze(netlist, &seq);
        let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), opts.jobs);
        (rest, red.len())
    };
    if trace.enabled() {
        trace.event(&TraceEvent::XRed {
            eliminated: x_red,
            remaining: sim_faults.len(),
        });
    }
    let outcome = run_job(
        &job(netlist, &seq, &sim_faults, EngineKind::Sim3, opts),
        &mut trace,
    )
    .outcome;
    trace.finish(opts);
    outln!(
        "{} vectors, {} faults ({} X-redundant eliminated): {} detected in {:?}",
        opts.len,
        faults.len(),
        x_red,
        outcome.num_detected(),
        t0.elapsed()
    );
    outln!(
        "three-valued coverage (lower bound): {:.2}%",
        100.0 * outcome.num_detected() as f64 / faults.len() as f64
    );
    if opts.bdd_stats {
        outln!("{}", bdd_stats(&outcome.bdd, outcome.fallback_frames));
    }
}

fn cmd_strategies(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let mut trace = TraceOut::from_opts(opts);
    let hard = three_valued_prepass(netlist, &seq, faults.as_slice(), opts, &mut trace);
    // The report is held back until the trace is complete, so a reader
    // that closes stdout early cannot leave the trace file cut short.
    let mut report = vec![format!(
        "{}: |F| = {}, three-valued detects {}, {} hard faults remain",
        netlist.name(),
        faults.len(),
        faults.len() - hard.len(),
        hard.len()
    )];
    for strategy in Strategy::ALL {
        let t0 = Instant::now();
        let r = hybrid_run(netlist, &seq, &hard, strategy, opts, &mut trace);
        report.push(format!(
            "  {strategy:>4}: +{:<5} detected{} in {:?} ({} unit(s), {} worker(s))",
            r.outcome.num_detected(),
            if r.outcome.is_approximate() {
                " (*)"
            } else {
                ""
            },
            t0.elapsed(),
            r.units,
            r.workers
        ));
        if opts.bdd_stats {
            report.push(bdd_stats(&r.outcome.bdd, r.outcome.fallback_frames));
        }
    }
    trace.finish(opts);
    for line in report {
        outln!("{line}");
    }
}

fn cmd_xred(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let mut trace = TraceOut::from_opts(opts);
    let t0 = Instant::now();
    let analysis = if opts.static_mode {
        XRedAnalysis::analyze_static(netlist)
    } else {
        let seq = TestSequence::random(netlist, opts.len, opts.seed);
        XRedAnalysis::analyze(netlist, &seq)
    };
    let (red, rest) = motsim_engine::xred_partition(&analysis, faults.as_slice(), opts.jobs);
    if trace.enabled() {
        trace.event(&TraceEvent::XRed {
            eliminated: red.len(),
            remaining: rest.len(),
        });
    }
    trace.finish(opts);
    outln!(
        "{} of {} faults are X-redundant ({}, {:?})",
        red.len(),
        faults.len(),
        if opts.static_mode {
            "for ANY sequence"
        } else {
            "for this sequence"
        },
        t0.elapsed()
    );
    outln!("{} faults remain for simulation", rest.len());
}

fn cmd_tgen(netlist: &Netlist, opts: &Opts) {
    let faults = FaultList::collapsed(netlist);
    let t0 = Instant::now();
    let seq = tgen::generate(
        netlist,
        faults.iter().cloned(),
        TgenConfig {
            max_len: opts.max_len,
            seed: opts.seed,
            ..TgenConfig::default()
        },
    );
    let outcome = FaultSim3::run(netlist, &seq, faults.iter().cloned());
    eprintln!(
        "generated {} vectors detecting {}/{} faults in {:?}",
        seq.len(),
        outcome.num_detected(),
        faults.len(),
        t0.elapsed()
    );
    write_stdout(format_args!("{seq}"));
}

fn cmd_testeval(netlist: &Netlist, opts: &Opts) {
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let t0 = Instant::now();
    let sos = SymbolicOutputSequence::compute(netlist, &seq, Some(opts.limit));
    outln!(
        "symbolic output sequence built in {:?}: shared BDD size {}, prefix {}",
        t0.elapsed(),
        sos.bdd_size(),
        sos.prefix_len()
    );
    let good = reference_response(netlist, &seq, &vec![false; netlist.num_dffs()]);
    let t0 = Instant::now();
    match sos.evaluate(&good) {
        TestVerdict::Consistent { witnesses } => outln!(
            "fault-free response accepted in {:?} ({witnesses} witness state(s))",
            t0.elapsed()
        ),
        TestVerdict::Faulty { .. } => unreachable!("fault-free response rejected"),
    }
    let mut bad = good;
    // Flip the first observation that is state-independent.
    'outer: for t in 0..seq.len() {
        for j in 0..netlist.num_outputs() {
            let mut flipped = bad.clone();
            flipped[t][j] = !flipped[t][j];
            if sos.evaluate(&flipped).is_faulty() {
                bad = flipped;
                outln!("flipping frame {t}, output {j}:");
                break 'outer;
            }
        }
    }
    match sos.evaluate(&bad) {
        TestVerdict::Faulty { frame, output } => outln!(
            "corrupted response rejected (product collapsed at frame {frame}, output {output})"
        ),
        TestVerdict::Consistent { .. } => {
            outln!("no single-bit corruption is provably faulty on this circuit")
        }
    }
}

fn cmd_dot(netlist: &Netlist, opts: &Opts) {
    if opts.output >= netlist.num_outputs() {
        die(&format!(
            "--output {} out of range (circuit has {} outputs)",
            opts.output,
            netlist.num_outputs()
        ));
    }
    let seq = TestSequence::random(netlist, opts.len.min(50), opts.seed);
    let mut sim = motsim::symbolic::SymbolicTrueSim::new(netlist);
    for v in &seq {
        sim.step(v).expect("unlimited");
    }
    let o = &sim.outputs()[opts.output];
    let name = netlist
        .net(netlist.outputs()[opts.output])
        .name()
        .to_owned();
    let dot = motsim_bdd::to_dot(&[(&name, o)], |v| {
        let q = netlist.dffs()[v.index()];
        format!("init({})", netlist.net(q).name())
    });
    eprintln!(
        "output {} after {} frames: {} BDD node(s)",
        name,
        seq.len(),
        o.size()
    );
    outln!("{dot}");
}

fn cmd_vcd(netlist: &Netlist, opts: &Opts) {
    use motsim::vcd::{dump_with_fault, Scope};
    let seq = TestSequence::random(netlist, opts.len, opts.seed);
    let scope = if opts.all_nets {
        Scope::All
    } else {
        Scope::Interface
    };
    let fault = if opts.inject > 0 {
        let faults = FaultList::collapsed(netlist);
        let f = faults
            .as_slice()
            .get(opts.inject - 1)
            .copied()
            .unwrap_or_else(|| die("--inject index out of range"));
        eprintln!("injecting fault #{}: {}", opts.inject, f.display(netlist));
        Some(f)
    } else {
        None
    };
    write_stdout(format_args!(
        "{}",
        dump_with_fault(netlist, &seq, fault, scope)
    ));
}
