//! Symbolic fault simulation for synchronous sequential circuits and the
//! multiple observation time test strategy.
//!
//! This crate implements the DAC'95 paper by Krieger, Becker and Keim:
//! fault simulation for circuits with an *unknown initial state*, where the
//! classical three-valued logic only yields a lower bound on fault coverage.
//!
//! The pipeline, in paper order:
//!
//! 1. [`faults`] — the single-stuck-at fault model over *leads* (stems and
//!    fanout branches) with structural equivalence collapsing.
//! 2. [`xred`] — the `ID_X-red` procedure (Section III): a linear-time
//!    pre-pass identifying faults a given test sequence provably cannot
//!    detect under three-valued logic + SOT, eliminating them before the
//!    expensive simulation.
//! 3. [`sim3`] — the three-valued true-value and fault simulators (the
//!    `X01` baseline of Table I); the fault simulator runs 64 faults per
//!    pass in dual-rail words and, started from a fully known state, also
//!    grades circuits *with* a known reset (the HOPE-style \[10\] setting).
//! 4. [`symbolic`] — the OBDD-based fault simulator supporting the
//!    [`Strategy`](symbolic::Strategy) variants **SOT**, **rMOT** and
//!    **MOT** (Section IV.A), including the detection function
//!    `D_{f,Z}(x,y)` and event-driven single-fault propagation.
//! 5. [`hybrid`] — the space-limited hybrid simulator that falls back to
//!    three-valued simulation when the OBDD node limit is exceeded and
//!    resumes symbolically afterwards.
//! 6. [`testeval`] — symbolic test evaluation (Section IV.B, Table IV).
//! 7. [`tgen`] — fault-simulation-guided generation of compact
//!    ("deterministic") test sequences for Table III.
//! 8. [`simb`] — a bit-parallel Boolean simulator, used by the
//!    [`exhaustive`] brute-force oracle that validates the symbolic engines
//!    on small circuits, and as a fast pattern evaluator.
//!
//! Around the pipeline, [`vcd`] exports (faulty) simulations as Value
//! Change Dumps.
//!
//! # Quickstart
//!
//! Every engine is driven through the unified [`engine_api`]: build a
//! [`SimConfig`], pick an engine, call
//! [`run`](engine_api::FaultSimEngine::run). Attach a
//! [`TraceSink`](motsim_trace::TraceSink) to the config to stream the
//! run's structured telemetry (frame-by-frame node counts, fallback
//! spans, reorder passes) as it happens.
//!
//! ```
//! use motsim::engine_api::{FaultSimEngine, SimConfig, SymbolicEngine};
//! use motsim::faults::FaultList;
//! use motsim::pattern::TestSequence;
//! use motsim::symbolic::Strategy;
//!
//! # fn main() -> Result<(), motsim::SimError> {
//! let circuit = motsim_circuits::s27();
//! let faults: Vec<_> = FaultList::collapsed(&circuit).into_iter().collect();
//! let seq = TestSequence::random(&circuit, 20, 0xDAC95);
//! let outcome = SymbolicEngine.run(
//!     &circuit,
//!     &seq,
//!     &faults,
//!     SimConfig::new().strategy(Strategy::Mot),
//! )?;
//! println!("{} of {} faults detected", outcome.num_detected(), faults.len());
//! # Ok(())
//! # }
//! ```

pub mod engine_api;
pub mod exhaustive;
pub mod faults;
pub mod frame;
pub mod hybrid;
pub mod pattern;
pub mod report;
pub mod sim3;
pub mod simb;
pub mod symbolic;
pub mod testeval;
pub mod tgen;
pub mod vcd;
pub mod xred;

pub use engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig, SymbolicEngine};
pub use faults::{Fault, FaultList};
pub use pattern::TestSequence;
pub use report::{BddUsage, Detection, FaultOutcome, SimError, SimOutcome};
