//! Every metric the benchmark reports: name, unit and direction. The same
//! table is in `BENCHMARK.json`; the smoke test keeps the two in step.

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("sim_s", "s", "lower"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("netlist.build_s", "s", "lower"),
    spec("faults.collapse_s", "s", "lower"),
    spec("pattern.random_s", "s", "lower"),
    spec("xred.analyze_s", "s", "lower"),
    spec("xred.partition_s", "s", "lower"),
    spec("xred.eliminated_share", "ratio", "higher"),
    spec("engine.units", "count", "lower"),
    spec("engine.plan_s", "s", "lower"),
    spec("engine.merge_s", "s", "lower"),
    spec("engine.unit_s_p50", "s", "lower"),
    spec("engine.unit_s_max", "s", "lower"),
    spec("engine.imbalance", "ratio", "lower"),
    spec("sim3.s", "s", "lower"),
    spec("sim3.fault_frames", "count", "lower"),
    spec("sim3.ns_per_fault_frame", "ns", "lower"),
    spec("symbolic.frames", "count", "higher"),
    spec("symbolic.frame_s", "s", "lower"),
    spec("symbolic.events", "count", "lower"),
    spec("symbolic.ns_per_event", "ns", "lower"),
    spec("symbolic.good_machine_s", "s", "lower"),
    spec("symbolic.good_machine_share", "ratio", "lower"),
    spec("hybrid.node_limit_hits", "count", "lower"),
    spec("hybrid.rollback_s", "s", "lower"),
    spec("hybrid.fallback_s", "s", "lower"),
    spec("hybrid.reentry_s", "s", "lower"),
    spec("hybrid.symbolic_frame_share", "ratio", "higher"),
    spec("bdd.ite_calls", "count", "lower"),
    spec("bdd.cache_hit_rate", "ratio", "higher"),
    spec("bdd.unique_probe_avg", "probes", "lower"),
    spec("bdd.ns_per_ite_miss", "ns", "lower"),
    spec("bdd.gc_runs", "count", "lower"),
    spec("bdd.peak_nodes", "nodes", "lower"),
    spec("bdd.sift_passes", "count", "lower"),
    spec("bdd.swaps", "count", "lower"),
    spec("bdd.sift_s", "s", "lower"),
    spec("bdd.us_per_swap", "us", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
    spec("detected_sim3", "count", "higher"),
    spec("detected_sot", "count", "higher"),
    spec("detected_rmot", "count", "higher"),
    spec("detected_mot", "count", "higher"),
    spec("fallback_frames", "count", "lower"),
    spec("failed_share", "ratio", "lower"),
];

/// The unit of a named metric.
///
/// # Panics
///
/// Panics on a name neither table holds.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .unit
}
