//! Per-layer metrics from a traced campaign, timed from outside the program.
//!
//! The traced campaign repeats the untraced one step by step through each
//! layer's public functions: `XRedAnalysis::analyze`, `xred_partition`,
//! `FaultPartitioner::partition` with the engine's default policy and unit
//! count, one `engine_api` run per work unit on the same number of workers,
//! and `SimOutcome::merge`. Each unit runs with a `StampSink`, which
//! stamps every trace event with the time it arrived; the gaps between
//! events are the layer spans. The campaign it returns must equal the
//! untraced one, or it measured a different program.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use motsim::engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig};
use motsim::xred::XRedAnalysis;
use motsim::{Fault, SimError, SimOutcome};
use motsim_engine::{default_units, EngineKind, FaultPartitioner};
use motsim_trace::{TraceEvent, TraceSink};

use crate::flow::{Campaign, Flow, Inputs, Workload};

/// A trace sink that keeps every event with the time since it was created.
struct StampSink {
    start: Instant,
    events: Vec<(Duration, TraceEvent)>,
}

impl StampSink {
    fn new() -> Self {
        StampSink {
            start: Instant::now(),
            events: Vec::new(),
        }
    }
}

impl TraceSink for StampSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push((self.start.elapsed(), event.clone()));
    }
}

/// Layer times and counts of one traced campaign.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layers {
    /// `XRedAnalysis::analyze`.
    xred_analyze_s: f64,
    /// `xred_partition`.
    xred_partition_s: f64,
    /// Work units over all engine calls.
    units: usize,
    /// `FaultPartitioner::partition` over all engine calls.
    plan_s: f64,
    /// `SimOutcome::merge` over all engine calls.
    merge_s: f64,
    /// Every unit's run time.
    unit_s: Vec<f64>,
    /// Max / mean unit time of the engine call with the most unit time.
    imbalance: f64,
    busiest_call_s: f64,
    /// Time into three-valued frames (pure runs and fallback phases).
    sim3_s: f64,
    /// Time into three-valued frames of the pure three-valued runs.
    pure_sim3_s: f64,
    /// Σ over faults of the frames a pure three-valued run simulated them.
    sim3_fault_frames: u64,
    /// Symbolic frames completed.
    sym_frames: u64,
    /// Time into symbolic frames.
    sym_frame_s: f64,
    /// Fault events the symbolic frames propagated.
    sym_events: u64,
    /// Σ over strategy calls of one good-machine-only unit run.
    good_machine_s: f64,
    /// Σ over strategy calls of units × good-machine time.
    good_machine_unit_s: f64,
    /// Σ unit time of the strategy calls.
    symbolic_unit_s: f64,
    /// Node-limit hits.
    node_limit_hits: u64,
    /// Previous event → `NodeLimit`: work of the rolled-back frames.
    rollback_s: f64,
    /// `FallbackEnter` → `FallbackExit`.
    fallback_s: f64,
    /// `FallbackExit` → next symbolic event.
    reentry_s: f64,
    /// `NodeLimit` → `SiftPass`.
    sift_s: f64,
    /// Wall time of the traced campaign, good-machine runs excluded.
    traced_s: f64,
}

impl Layers {
    /// Folds one unit's stamped events into the spans.
    fn absorb_events(&mut self, events: &[(Duration, TraceEvent)], pure_sim3: bool) {
        let secs = |d: Duration| d.as_secs_f64();
        let mut prev = Duration::ZERO;
        let mut fallback_enter = None;
        let mut reentry_from: Option<Duration> = None;
        for (at, event) in events {
            let gap = secs(at.saturating_sub(prev));
            match event {
                TraceEvent::SymFrame { events, .. } => {
                    self.sym_frames += 1;
                    self.sym_frame_s += gap;
                    self.sym_events += *events as u64;
                }
                TraceEvent::TvFrame { .. } => {
                    self.sim3_s += gap;
                    if pure_sim3 {
                        self.pure_sim3_s += gap;
                    }
                }
                TraceEvent::NodeLimit { .. } => {
                    self.node_limit_hits += 1;
                    self.rollback_s += gap;
                }
                TraceEvent::SiftPass { .. } => self.sift_s += gap,
                TraceEvent::FallbackEnter { .. } => fallback_enter = Some(*at),
                TraceEvent::FallbackExit { .. } => {
                    if let Some(enter) = fallback_enter.take() {
                        self.fallback_s += secs(at.saturating_sub(enter));
                    }
                    reentry_from = Some(*at);
                }
                _ => {}
            }
            if matches!(
                event,
                TraceEvent::SymFrame { .. } | TraceEvent::NodeLimit { .. }
            ) {
                if let Some(from) = reentry_from.take() {
                    self.reentry_s += secs(at.saturating_sub(from));
                }
            }
            prev = *at;
        }
    }
}

/// Runs one unit through the engine API exactly as `motsim_engine` does.
fn run_unit(
    inputs: &Inputs,
    faults: &[Fault],
    engine: EngineKind,
    sink: &mut dyn TraceSink,
) -> Result<SimOutcome, SimError> {
    let (netlist, seq) = (&inputs.netlist, &inputs.seq);
    match engine {
        EngineKind::Sim3 => Sim3Engine.run(netlist, seq, faults, SimConfig::new().sink(sink)),
        EngineKind::Hybrid(strategy, config) => HybridEngine.run(
            netlist,
            seq,
            faults,
            SimConfig::new()
                .strategy(strategy)
                .node_limit(Some(config.node_limit))
                .fallback_frames(config.fallback_frames)
                .reorder(config.reorder)
                .sink(sink),
        ),
        EngineKind::Symbolic(_) => unreachable!("no workload runs the pure symbolic engine"),
    }
}

/// One engine call, traced unit by unit.
fn traced_call(
    w: &Workload,
    inputs: &Inputs,
    faults: &[Fault],
    engine: EngineKind,
    layers: &mut Layers,
) -> Result<SimOutcome, String> {
    let job = w.job(inputs, faults, engine);
    let t = Instant::now();
    let units = job.units.unwrap_or_else(|| default_units(faults.len()));
    let plan = FaultPartitioner::new(&inputs.netlist, job.policy).partition(faults, units);
    layers.plan_s += t.elapsed().as_secs_f64();
    layers.units += plan.len();
    let workers = job.jobs.clamp(1, plan.len().max(1));

    type Part = (usize, Result<SimOutcome, SimError>, f64, StampSink);
    let queue = Mutex::new(VecDeque::from(plan));
    let parts: Mutex<Vec<Part>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let unit = queue.lock().expect("a worker panicked").pop_front();
                let Some(unit) = unit else { break };
                let mut sink = StampSink::new();
                let result = run_unit(inputs, &unit.faults, engine, &mut sink);
                let secs = sink.start.elapsed().as_secs_f64();
                parts
                    .lock()
                    .expect("a worker panicked")
                    .push((unit.id, result, secs, sink));
            });
        }
    });
    let mut parts = parts.into_inner().expect("a worker panicked");
    parts.sort_by_key(|p| p.0);

    let pure_sim3 = engine == EngineKind::Sim3;
    let mut outcomes = Vec::with_capacity(parts.len());
    let mut call_s = Vec::with_capacity(parts.len());
    for (id, result, secs, sink) in parts {
        outcomes.push(result.map_err(|e| format!("work unit {id}: {e}"))?);
        layers.absorb_events(&sink.events, pure_sim3);
        call_s.push(secs);
    }
    let t = Instant::now();
    let mut merged = SimOutcome::merge(outcomes);
    merged.frames = inputs.seq.len();
    layers.merge_s += t.elapsed().as_secs_f64();

    let total: f64 = call_s.iter().sum();
    if total > layers.busiest_call_s {
        let max = call_s.iter().copied().fold(0.0, f64::max);
        layers.busiest_call_s = total;
        layers.imbalance = max / (total / call_s.len() as f64);
    }
    if pure_sim3 {
        let len = inputs.seq.len() as u64;
        layers.sim3_fault_frames += merged
            .results
            .iter()
            .map(|r| r.detection.map_or(len, |d| d.frame as u64 + 1))
            .sum::<u64>();
    } else {
        layers.symbolic_unit_s += total;
    }
    layers.unit_s.extend(call_s);
    Ok(merged)
}

/// One good-machine-only unit run of a strategy call, in seconds.
fn good_machine_s(inputs: &Inputs, engine: EngineKind) -> Result<f64, String> {
    let t = Instant::now();
    run_unit(inputs, &[], engine, &mut motsim_trace::NullSink).map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64())
}

/// Runs one campaign traced, layer by layer.
///
/// # Errors
///
/// Fails if any engine call fails.
pub(crate) fn traced_campaign(w: &Workload, inputs: &Inputs) -> Result<(Campaign, Layers), String> {
    let mut layers = Layers::default();
    let start = Instant::now();
    let campaign = match w.flow {
        Flow::Sim3 => {
            let t = Instant::now();
            let analysis = XRedAnalysis::analyze(&inputs.netlist, &inputs.seq);
            layers.xred_analyze_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (red, rest) = motsim_engine::xred_partition(&analysis, &inputs.faults, w.workers());
            layers.xred_partition_s = t.elapsed().as_secs_f64();
            let sim3 = traced_call(w, inputs, &rest, EngineKind::Sim3, &mut layers)?;
            Campaign {
                eliminated: red.len(),
                sim3,
                strategies: Vec::new(),
            }
        }
        Flow::Strategies(strategies) => {
            let sim3 = traced_call(w, inputs, &inputs.faults, EngineKind::Sim3, &mut layers)?;
            let hard: Vec<Fault> = sim3.undetected_faults().collect();
            let mut runs = Vec::with_capacity(strategies.len());
            for &strategy in strategies {
                let engine = EngineKind::Hybrid(strategy, w.hybrid_config());
                runs.push((
                    strategy,
                    traced_call(w, inputs, &hard, engine, &mut layers)?,
                ));
            }
            Campaign {
                eliminated: 0,
                sim3,
                strategies: runs,
            }
        }
    };
    layers.traced_s = start.elapsed().as_secs_f64();

    if let Flow::Strategies(strategies) = w.flow {
        let hard = campaign.sim3.num_undetected();
        let units = w.units.unwrap_or_else(|| default_units(hard)).min(hard);
        for &strategy in strategies {
            let s = good_machine_s(inputs, EngineKind::Hybrid(strategy, w.hybrid_config()))?;
            layers.good_machine_s += s;
            layers.good_machine_unit_s += units as f64 * s;
        }
    }
    Ok((campaign, layers))
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Layers {
    /// The per-layer metrics of this campaign, as (name, value) pairs in
    /// their order in [`crate::metrics::PER_LAYER`], without the set-up
    /// spans and `failed_share`, which the run adds. `untraced_s` is the untraced
    /// campaign time the overhead is measured against; `inputs` and
    /// `campaign` give the counts.
    pub(crate) fn metrics(
        &self,
        inputs: &Inputs,
        campaign: &Campaign,
        untraced_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let stats = campaign.stats();
        let bdd = campaign.bdd();
        let ite = bdd.cache_hits + bdd.cache_misses;
        let fallback = stats.fallback_frames as f64;
        let unit_max = self.unit_s.iter().copied().fold(0.0, f64::max);
        let detected = |i: usize| stats.detected[i].unwrap_or(0) as f64;
        vec![
            ("xred.analyze_s", self.xred_analyze_s),
            ("xred.partition_s", self.xred_partition_s),
            (
                "xred.eliminated_share",
                ratio(stats.eliminated as f64, inputs.faults.len() as f64),
            ),
            ("engine.units", self.units as f64),
            ("engine.plan_s", self.plan_s),
            ("engine.merge_s", self.merge_s),
            ("engine.unit_s_p50", median(&self.unit_s)),
            ("engine.unit_s_max", unit_max),
            ("engine.imbalance", self.imbalance),
            ("sim3.s", self.sim3_s),
            ("sim3.fault_frames", self.sim3_fault_frames as f64),
            (
                "sim3.ns_per_fault_frame",
                ratio(self.pure_sim3_s * 1e9, self.sim3_fault_frames as f64),
            ),
            ("symbolic.frames", self.sym_frames as f64),
            ("symbolic.frame_s", self.sym_frame_s),
            ("symbolic.events", self.sym_events as f64),
            (
                "symbolic.ns_per_event",
                ratio(self.sym_frame_s * 1e9, self.sym_events as f64),
            ),
            ("symbolic.good_machine_s", self.good_machine_s),
            (
                "symbolic.good_machine_share",
                ratio(self.good_machine_unit_s, self.symbolic_unit_s),
            ),
            ("hybrid.node_limit_hits", self.node_limit_hits as f64),
            ("hybrid.rollback_s", self.rollback_s),
            ("hybrid.fallback_s", self.fallback_s),
            ("hybrid.reentry_s", self.reentry_s),
            (
                "hybrid.symbolic_frame_share",
                ratio(self.sym_frames as f64, self.sym_frames as f64 + fallback),
            ),
            ("bdd.ite_calls", ite as f64),
            ("bdd.cache_hit_rate", bdd.cache_hit_rate().unwrap_or(0.0)),
            ("bdd.unique_probe_avg", bdd.avg_probe_len().unwrap_or(0.0)),
            (
                "bdd.ns_per_ite_miss",
                ratio(self.sym_frame_s * 1e9, bdd.cache_misses as f64),
            ),
            ("bdd.gc_runs", bdd.gc_runs as f64),
            ("bdd.peak_nodes", bdd.peak_live_nodes as f64),
            ("bdd.sift_passes", bdd.reorder_runs as f64),
            ("bdd.swaps", bdd.reorder_swaps as f64),
            ("bdd.sift_s", self.sift_s),
            (
                "bdd.us_per_swap",
                ratio(self.sift_s * 1e6, bdd.reorder_swaps as f64),
            ),
            (
                "trace.overhead_pct",
                ratio((self.traced_s - untraced_s) * 100.0, untraced_s),
            ),
            ("detected_sim3", stats.detected_sim3 as f64),
            ("detected_sot", detected(0)),
            ("detected_rmot", detected(1)),
            ("detected_mot", detected(2)),
            ("fallback_frames", fallback),
        ]
    }
}
