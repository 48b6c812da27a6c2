//! The four workloads and the campaigns they run.
//!
//! A campaign is one whole fault-simulation flow as the `motsim` CLI runs
//! it, through the same public engine API (`motsim_engine::run`, no trace
//! sink). Its verdicts are summarised by [`Stats`], whose `checksum` covers
//! every (fault, frame, output) triple of every engine call.

use motsim::hybrid::{HybridConfig, ReorderPolicy};
use motsim::symbolic::Strategy;
use motsim::xred::XRedAnalysis;
use motsim::{BddUsage, Fault, FaultList, SimOutcome, TestSequence};
use motsim_engine::{EngineError, EngineKind, Job};
use motsim_netlist::Netlist;
use motsim_rng::SmallRng;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xDAC95;

/// The seed of every workload's test sequence (the CLI's default seed).
const SEQUENCE_SEED: u64 = 0xDAC95;

/// The paper's live-node limit for hybrid runs.
const NODE_LIMIT: usize = 30_000;

/// What a campaign does after setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `motsim sim3`: the `ID_X-red` pre-pass, then three-valued
    /// simulation of the surviving faults.
    Sim3,
    /// `motsim strategies`: a three-valued baseline over the whole fault
    /// list, then one hybrid run per strategy over the faults it left
    /// undetected.
    Strategies(&'static [Strategy]),
}

/// One benchmark workload: a circuit, a sequence length and a flow.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Built-in suite circuit (`motsim list`).
    pub circuit: &'static str,
    /// Random vectors in the test sequence.
    pub len: usize,
    /// The flow each campaign runs.
    pub flow: Flow,
    /// Worker threads requested; capped at the host's parallelism.
    pub jobs: usize,
    /// Work units of the hybrid runs (`None`: the engine's default).
    pub units: Option<usize>,
    /// Reordering policy of the hybrid runs.
    pub reorder: ReorderPolicy,
    /// The strategy runs must be exact, so the containment law
    /// sim3 ⊆ SOT ⊆ rMOT ⊆ MOT and "no fallback frame" are checked.
    pub exact: bool,
}

const ALL: &[Strategy] = &Strategy::ALL;

/// The benchmark's workloads. Why each exists is recorded in METRICS.md,
/// with why `BENCHMARK.json` times only `sim3-g13207` and `sift-g298`:
/// `exact-g838` and `hybrid-g526` run by name.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim3-g13207",
        circuit: "g13207",
        len: 200,
        flow: Flow::Sim3,
        jobs: 1,
        units: None,
        reorder: ReorderPolicy::None,
        exact: false,
    },
    Workload {
        name: "exact-g838",
        circuit: "g838",
        len: 200,
        flow: Flow::Strategies(ALL),
        jobs: 1,
        units: None,
        reorder: ReorderPolicy::None,
        exact: true,
    },
    Workload {
        name: "hybrid-g526",
        circuit: "g526",
        len: 200,
        flow: Flow::Strategies(ALL),
        jobs: 2,
        units: None,
        reorder: ReorderPolicy::None,
        exact: false,
    },
    Workload {
        name: "sift-g298",
        circuit: "g298",
        len: 40,
        flow: Flow::Strategies(&[Strategy::Mot]),
        jobs: 2,
        units: Some(64),
        reorder: ReorderPolicy::Sift,
        exact: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Worker threads actually used: the requested count, capped at the
    /// host's available parallelism.
    pub fn workers(&self) -> usize {
        self.jobs.min(nproc()).max(1)
    }

    /// The hybrid configuration of the strategy runs.
    pub(crate) fn hybrid_config(&self) -> HybridConfig {
        HybridConfig {
            node_limit: NODE_LIMIT,
            reorder: self.reorder,
            ..HybridConfig::default()
        }
    }

    /// The engine job the CLI would build for `faults`.
    pub(crate) fn job<'a>(
        &self,
        inputs: &'a Inputs,
        faults: &'a [Fault],
        engine: EngineKind,
    ) -> Job<'a> {
        let job = Job::new(&inputs.netlist, &inputs.seq, faults, engine).jobs(self.workers());
        match (engine, self.units) {
            (EngineKind::Hybrid(..), Some(units)) => job.units(units),
            _ => job,
        }
    }
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What the program receives: the netlist, its collapsed fault list in an
/// order drawn from the workload seed, and the workload's test sequence.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The circuit under test.
    pub netlist: Netlist,
    /// The collapsed stuck-at fault list, shuffled by the workload seed.
    pub faults: Vec<Fault>,
    /// The test sequence, the same at every workload seed.
    pub seq: TestSequence,
}

/// Builds a workload's inputs.
///
/// # Panics
///
/// Panics if the workload names a circuit the suite does not have.
pub fn setup(w: &Workload, seed: u64) -> Inputs {
    let netlist = build_netlist(w);
    let faults = fault_list(&netlist, seed);
    let seq = sequence(w, &netlist);
    Inputs {
        netlist,
        faults,
        seq,
    }
}

/// Builds the workload's suite circuit.
///
/// # Panics
///
/// Panics if the suite has no circuit of that name.
pub(crate) fn build_netlist(w: &Workload) -> Netlist {
    motsim_circuits::suite::by_name(w.circuit)
        .unwrap_or_else(|| panic!("no suite circuit named {}", w.circuit))
}

/// The collapsed fault list in an order drawn from `seed`. Verdicts and
/// work must not depend on the order, so every seed has the same pinned
/// statistics.
pub(crate) fn fault_list(netlist: &Netlist, seed: u64) -> Vec<Fault> {
    let mut faults: Vec<Fault> = FaultList::collapsed(netlist).into_iter().collect();
    shuffle(&mut faults, &mut SmallRng::seed_from_u64(seed));
    faults
}

/// The workload's random test sequence. Its seed is fixed, not the
/// workload seed: from one random sequence to the next the same campaign
/// costs up to three times as much (METRICS.md), more than any bound on
/// `sim_s` could absorb.
pub(crate) fn sequence(w: &Workload, netlist: &Netlist) -> TestSequence {
    TestSequence::random(netlist, w.len, SEQUENCE_SEED)
}

/// Fisher-Yates shuffle.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The verdicts of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Faults the `ID_X-red` pre-pass eliminated (sim3 flow only).
    pub eliminated: usize,
    /// The three-valued run: over the survivors of `ID_X-red` (sim3 flow)
    /// or over the whole fault list (strategies flow).
    pub sim3: SimOutcome,
    /// One hybrid run per strategy, over the faults `sim3` left undetected.
    pub strategies: Vec<(Strategy, SimOutcome)>,
}

/// Runs one campaign through the engine API, untraced.
///
/// # Errors
///
/// Fails if any engine call fails.
pub fn run_campaign(w: &Workload, inputs: &Inputs) -> Result<Campaign, EngineError> {
    match w.flow {
        Flow::Sim3 => {
            let analysis = XRedAnalysis::analyze(&inputs.netlist, &inputs.seq);
            let (red, rest) = motsim_engine::xred_partition(&analysis, &inputs.faults, w.workers());
            let sim3 = motsim_engine::run(&w.job(inputs, &rest, EngineKind::Sim3))?.outcome;
            Ok(Campaign {
                eliminated: red.len(),
                sim3,
                strategies: Vec::new(),
            })
        }
        Flow::Strategies(strategies) => {
            let sim3 =
                motsim_engine::run(&w.job(inputs, &inputs.faults, EngineKind::Sim3))?.outcome;
            let hard: Vec<Fault> = sim3.undetected_faults().collect();
            let mut runs = Vec::with_capacity(strategies.len());
            for &strategy in strategies {
                let engine = EngineKind::Hybrid(strategy, w.hybrid_config());
                runs.push((
                    strategy,
                    motsim_engine::run(&w.job(inputs, &hard, engine))?.outcome,
                ));
            }
            Ok(Campaign {
                eliminated: 0,
                sim3,
                strategies: runs,
            })
        }
    }
}

/// The simulated statistics of a campaign. They are a function of the
/// inputs alone, so two runs of the same code must agree on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Faults `ID_X-red` eliminated.
    pub eliminated: usize,
    /// Faults the three-valued run detected.
    pub detected_sim3: usize,
    /// Hard faults each hybrid run detected on top (SOT, rMOT, MOT);
    /// `None` where the workload does not run that strategy.
    pub detected: [Option<usize>; 3],
    /// Three-valued fallback frames, summed over the strategies.
    pub fallback_frames: usize,
    /// Sifting passes, summed over the strategies.
    pub sift_passes: u64,
    /// Adjacent-level swaps, summed over the strategies.
    pub swaps: u64,
    /// FNV-1a over every (fault, frame, output) of every engine call.
    pub checksum: u64,
}

impl Campaign {
    /// The campaign's simulated statistics.
    pub fn stats(&self) -> Stats {
        let mut detected = [None; 3];
        for (strategy, outcome) in &self.strategies {
            detected[strategy_index(*strategy)] = Some(outcome.num_detected());
        }
        let bdd = self.bdd();
        Stats {
            eliminated: self.eliminated,
            detected_sim3: self.sim3.num_detected(),
            detected,
            fallback_frames: self.strategies.iter().map(|(_, o)| o.fallback_frames).sum(),
            sift_passes: bdd.reorder_runs,
            swaps: bdd.reorder_swaps,
            checksum: self.checksum(),
        }
    }

    /// The strategy runs' BDD usage, combined.
    pub(crate) fn bdd(&self) -> BddUsage {
        let mut usage = BddUsage::default();
        for (_, outcome) in &self.strategies {
            usage.absorb(&outcome.bdd);
        }
        usage
    }

    /// Every engine call's outcome, in flow order.
    pub(crate) fn outcomes(&self) -> impl Iterator<Item = (&'static str, &SimOutcome)> {
        std::iter::once(("sim3", &self.sim3))
            .chain(self.strategies.iter().map(|(s, o)| (strategy_name(*s), o)))
    }

    /// FNV-1a over the eliminated count and every outcome's verdicts.
    pub(crate) fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.eliminated as u64);
        for (_, outcome) in self.outcomes() {
            h.word(outcome.results.len() as u64);
            for r in &outcome.results {
                let lead = r.fault.lead;
                h.word(lead.net.index() as u64);
                match lead.sink {
                    Some((sink, pin)) => {
                        h.word(sink.index() as u64);
                        h.word(u64::from(pin));
                    }
                    None => h.word(u64::MAX),
                }
                h.word(u64::from(r.fault.stuck));
                match r.detection {
                    Some(d) => {
                        h.word(d.frame as u64);
                        h.word(d.output as u64);
                    }
                    None => h.word(u64::MAX),
                }
            }
        }
        h.0
    }
}

/// Index of a strategy in [`Stats::detected`].
fn strategy_index(s: Strategy) -> usize {
    match s {
        Strategy::Sot => 0,
        Strategy::Rmot => 1,
        Strategy::Mot => 2,
    }
}

/// Lower-case strategy name used in metric names.
fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Sot => "sot",
        Strategy::Rmot => "rmot",
        Strategy::Mot => "mot",
    }
}

/// 64-bit FNV-1a, fed whole words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
