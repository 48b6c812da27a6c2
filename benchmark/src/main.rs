//! `motsim-benchmark` — runs the benchmark's workloads.
//!
//! ```text
//! motsim-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is set up, then runs whole campaigns closed-loop for about
//! `S` seconds, and every campaign's verdicts are audited. The run prints
//! its metrics by name with their unit, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! set, or with `--trace 1` the per-layer set). It exits 1 if any campaign
//! failed. `all` (the default) runs each workload in a process of its own,
//! so each has its own peak resident set.

use std::process::{exit, Command};

use motsim_benchmark::flow::{self, Workload, DEFAULT_SEED, WORKLOADS};
use motsim_benchmark::layers::median;
use motsim_benchmark::metrics;
use motsim_benchmark::run::{self, RunResult};

const USAGE: &str =
    "usage: motsim-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 60.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    flow::workload(&value)
                        .unwrap_or_else(|| die(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => {
                args.seed = parse_seed(&value).unwrap_or_else(|| die("--seed needs a number"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| die("--seconds needs a non-negative number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace needs 0 or 1"),
                }
            }
            _ => die(&format!("unknown option `{flag}`")),
        }
    }
    args
}

/// First line of a command's output, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn report(w: &Workload, args: &Args, r: &RunResult) {
    println!(
        "workload {} ({}, {} vectors, {} worker(s)), seed {:#x}",
        w.name,
        w.circuit,
        w.len,
        w.workers(),
        args.seed
    );
    if let Some(s) = &r.stats {
        let d = |i: usize| s.detected[i].map_or("-".to_owned(), |n| format!("+{n}"));
        println!(
            "  verdicts: x-red {}, sim3 {}, sot {}, rmot {}, mot {}; {} fallback frame(s), \
             {} sift pass(es), {} swap(s); checksum {:#018x}",
            s.eliminated,
            s.detected_sim3,
            d(0),
            d(1),
            d(2),
            s.fallback_frames,
            s.sift_passes,
            s.swaps,
            s.checksum
        );
    }
    println!(
        "  campaigns: {} attempted, {} failed; audit {:.2} s",
        r.attempted, r.failed, r.audit_s
    );
    if let Some(max) = r.campaign_s.iter().copied().reduce(f64::max) {
        let min = r.campaign_s.iter().copied().fold(max, f64::min);
        println!(
            "  untraced campaign seconds: {} sample(s), min {min:.3}, median {:.3}, max {max:.3}",
            r.campaign_s.len(),
            median(&r.campaign_s)
        );
    }
    for note in &r.notes {
        println!("  FAILED: {note}");
    }
    for (name, value) in &r.metrics {
        println!("  {name:<28} {value:>16.6} {}", metrics::unit(name));
    }
}

fn json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metrics::unit(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Runs every workload, each in a child process, and reports whether all
/// were correct.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("start a child run");
        ok &= status.success();
    }
    ok
}

fn main() {
    let args = parse_args();
    let Some(w) = &args.workload else {
        exit(if run_all(&args) { 0 } else { 1 })
    };
    println!(
        "env: seed {:#x}, nproc {}, {}, commit {}",
        args.seed,
        flow::nproc(),
        probe("rustc", &["-V"]),
        probe(
            "git",
            &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"]
        )
    );
    let r = run::run(w, args.seed, args.seconds, args.trace);
    report(w, &args, &r);
    println!("{}", json(&r));
    if !r.correct() {
        exit(1);
    }
}
