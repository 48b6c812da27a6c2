//! Pins the exact post-sift manager state through the trace.
//!
//! The run is `motsim strategies g208 --len 40 --limit 300 --units 8
//! --reorder sift --jobs 1 --trace FILE` driven through the engine API: a
//! three-valued pass, then the SOT/rMOT/MOT hybrids with sifting before each
//! fallback. Its JSONL stream carries every symbolic frame's live and peak
//! node counts and ITE cache hits and misses, and five `sift_pass` events.
//! Those numbers follow node indices (ITE's standard-triple tie-break and
//! its cache slots depend on them) and uncollected-node counts, so a swap
//! that frees nodes in another order, misses a dead node or keeps one too
//! long changes the stream even when every verdict stays the same.

use motsim::hybrid::{HybridConfig, ReorderPolicy};
use motsim::symbolic::Strategy;
use motsim::{Fault, FaultList, TestSequence};
use motsim_engine::{run_traced, EngineKind, Job};
use motsim_trace::JsonlSink;

/// FNV-1a 64 of the stream the reference implementation of sifting (one
/// full mark-sweep collection after every adjacent swap) writes for this
/// run.
const PINNED_TRACE_FNV1A: u64 = 0x9311_dd4a_482e_ac3a;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sifting_trace_matches_the_collect_per_swap_reference() {
    let n = motsim_circuits::suite::by_name("g208").expect("suite circuit");
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 40, 0xDAC95);
    let mut sink = JsonlSink::new(Vec::new());
    let three = run_traced(
        &Job::new(&n, &seq, faults.as_slice(), EngineKind::Sim3),
        &mut sink,
    )
    .expect("sim3 job")
    .outcome;
    let hard: Vec<Fault> = three.undetected_faults().collect();
    let config = HybridConfig {
        node_limit: 300,
        fallback_frames: 8,
        reorder: ReorderPolicy::Sift,
    };
    for strategy in Strategy::ALL {
        let job = Job::new(&n, &seq, &hard, EngineKind::Hybrid(strategy, config)).units(8);
        run_traced(&job, &mut sink).expect("hybrid job");
    }
    let bytes = sink.finish().expect("in-memory trace");
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let swaps: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix(r#"{"ev":"sift_pass","swaps":"#))
        .map(|rest| rest.split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(swaps.len(), 5, "sift passes");
    assert_eq!(swaps.iter().sum::<u64>(), 2132, "adjacent swaps");
    assert_eq!(
        fnv1a(text.as_bytes()),
        PINNED_TRACE_FNV1A,
        "trace differs from the reference"
    );
}
