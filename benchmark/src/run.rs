//! One benchmark run of one workload: set up, run campaigns closed-loop for
//! the given time, then audit every campaign's verdicts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::flow::{self, Campaign, Inputs, Stats, Workload};
use crate::gate;
use crate::layers::{self, median};
use crate::reference;

/// Set-up is repeated for at least [`SETUP_SLICE`] (and at least
/// [`MIN_SETUPS`] times) before the first campaign, then for another slice
/// after every campaign, so `setup_s` is a median over repetitions spread
/// across the whole run, as `sim_s` is.
const SETUP_SLICE: Duration = Duration::from_millis(50);
const MIN_SETUPS: usize = 5;
const MAX_SETUPS_PER_SLICE: usize = 1000;

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Campaigns run (traced ones included).
    pub attempted: usize,
    /// Campaigns that failed: engine error, panic, soundness-gate
    /// violation, or verdicts that differ from the run's first campaign or
    /// from the pinned reference.
    pub failed: usize,
    /// Why campaigns failed.
    pub notes: Vec<String>,
    /// Seconds the audit took, outside the measured time.
    pub audit_s: f64,
    /// Each untraced campaign's time in seconds.
    pub campaign_s: Vec<f64>,
    /// The first campaign's simulated statistics.
    pub stats: Option<Stats>,
    /// Metric name and value: the end-to-end set untraced, the per-layer
    /// set traced.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// No campaign failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Builds the inputs repeatedly, for at least `budget` and at least `min`
/// times; returns the last inputs built and appends each repetition's
/// (netlist, faults, sequence) times in seconds to `reps`.
fn timed_setup(
    w: &Workload,
    seed: u64,
    budget: Duration,
    min: usize,
    reps: &mut Vec<[f64; 3]>,
) -> Inputs {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        let netlist = flow::build_netlist(w);
        let t1 = Instant::now();
        let faults = flow::fault_list(&netlist, seed);
        let t2 = Instant::now();
        let seq = flow::sequence(w, &netlist);
        let t3 = Instant::now();
        reps.push([t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64()));
        n += 1;
        let inputs = std::hint::black_box(Inputs {
            netlist,
            faults,
            seq,
        });
        let enough = n >= min && start.elapsed() >= budget;
        if enough || n >= MAX_SETUPS_PER_SLICE {
            return inputs;
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// The process's peak resident set so far, in MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Checks every campaign of a run and counts the failed ones.
///
/// The first successful campaign is the reference. A campaign fails if its
/// engine failed or panicked, or if its verdicts differ from the
/// reference's. Every campaign fails if the reference fails the soundness
/// gate or differs from the pinned statistics.
pub fn audit(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    campaigns: &[Result<Campaign, String>],
) -> (usize, Vec<String>) {
    let mut notes = Vec::new();
    let Some(first) = campaigns.iter().find_map(|c| c.as_ref().ok()) else {
        notes.extend(campaigns.iter().filter_map(|c| c.as_ref().err().cloned()));
        return (campaigns.len(), notes);
    };
    let mut failed = 0;
    for (i, c) in campaigns.iter().enumerate() {
        match c {
            Err(e) => notes.push(format!("campaign {i}: {e}")),
            Ok(c) if c != first => notes.push(format!(
                "campaign {i}: verdicts differ from the first campaign (checksum {:#018x} vs {:#018x})",
                c.checksum(),
                first.checksum()
            )),
            Ok(_) => continue,
        }
        failed += 1;
    }
    let unsound = guarded(|| gate::check(w, inputs, first, seed))
        .and_then(|()| reference::check(w.name, &first.stats()))
        .err();
    if let Some(e) = unsound {
        notes.push(e);
        failed = campaigns.len();
    }
    (failed, notes)
}

/// Runs `w` at `seed` for at most about `seconds`: at least one campaign
/// (with `trace`, one untraced and one traced), then more while the next
/// is expected to end within the time.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut setups = Vec::new();
    let inputs = timed_setup(w, seed, SETUP_SLICE, MIN_SETUPS, &mut setups);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut campaigns = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced = Vec::new();
    let mut round_s = Vec::new();
    let mut rss = None;
    loop {
        let round = Instant::now();
        let t = Instant::now();
        let c = guarded(|| flow::run_campaign(w, &inputs).map_err(|e| e.to_string()));
        let secs = t.elapsed().as_secs_f64();
        if c.is_ok() {
            untraced_s.push(secs);
        }
        campaigns.push(c);
        // Later campaigns only reuse what the first one's allocations left.
        rss.get_or_insert_with(peak_rss_mb);
        if trace {
            match guarded(|| layers::traced_campaign(w, &inputs)) {
                Ok((c, l)) => {
                    traced.push(l.metrics(&inputs, &c, secs));
                    campaigns.push(Ok(c));
                }
                Err(e) => campaigns.push(Err(e)),
            }
        }
        timed_setup(w, seed, SETUP_SLICE, 1, &mut setups);
        round_s.push(round.elapsed().as_secs_f64());
        let next = start.elapsed() + Duration::from_secs_f64(median(&round_s));
        if next > budget {
            break;
        }
    }
    let t = Instant::now();
    let (failed, notes) = audit(w, &inputs, seed, &campaigns);
    let audit_s = t.elapsed().as_secs_f64();
    let stats = campaigns
        .iter()
        .find_map(|c| c.as_ref().ok())
        .map(Campaign::stats);
    let part = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    let metrics = if trace {
        let mut m = vec![
            ("netlist.build_s", part(0)),
            ("faults.collapse_s", part(1)),
            ("pattern.random_s", part(2)),
        ];
        if let Some(first) = traced.first() {
            for (k, (name, _)) in first.iter().enumerate() {
                let values: Vec<f64> = traced.iter().map(|rep| rep[k].1).collect();
                m.push((name, median(&values)));
            }
        }
        m.push(("failed_share", failed as f64 / campaigns.len() as f64));
        m
    } else {
        let setup: Vec<f64> = setups.iter().map(|s| s.iter().sum()).collect();
        vec![
            ("sim_s", median(&untraced_s)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb)),
        ]
    };
    RunResult {
        attempted: campaigns.len(),
        failed,
        notes,
        audit_s,
        campaign_s: untraced_s,
        stats,
        metrics,
    }
}
