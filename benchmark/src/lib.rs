//! motsim's benchmark: whole fault-simulation campaigns on four paper
//! workloads, timed end to end, with a traced run that times each layer
//! from outside, and a soundness gate on every verdict. METRICS.md
//! describes the workloads and metrics.

pub mod flow;
pub mod gate;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod run;
