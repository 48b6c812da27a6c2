//! The benchmark's own tests: every flow at a tiny size, and the audit
//! catching a verdict the circuit does not support.

use motsim::Detection;
use motsim_benchmark::flow::{self, Workload, WORKLOADS};
use motsim_benchmark::metrics::{Spec, END_TO_END, PER_LAYER};
use motsim_benchmark::{gate, reference, run};

/// The four workloads' flows on small circuits with short sequences.
fn tiny() -> Vec<Workload> {
    WORKLOADS
        .iter()
        .zip(["tiny-sim3", "tiny-exact", "tiny-hybrid", "tiny-sift"])
        .map(|(w, name)| Workload {
            name,
            circuit: if w.name == "sift-g298" { "g27" } else { "g208" },
            len: 20,
            ..*w
        })
        .collect()
}

fn names(specs: &[Spec]) -> Vec<&'static str> {
    specs.iter().map(|s| s.name).collect()
}

#[test]
fn tiny_flows_report_every_metric_with_its_unit() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name, spec.unit, spec.better
        );
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in tiny() {
        for (trace, specs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = run::run(&w, 7, 0.0, trace);
            assert!(r.correct(), "{} trace={trace}: {:?}", w.name, r.notes);
            assert_eq!(r.attempted, if trace { 2 } else { 1 });
            let got: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            assert_eq!(got, names(specs), "{} trace={trace}", w.name);
            assert!(r
                .metrics
                .iter()
                .all(|m| m.1.is_finite() && m.1 >= 0.0 || m.0 == "trace.overhead_pct"));
        }
    }
}

#[test]
fn fault_order_changes_no_verdict() {
    let w = tiny()[2];
    let a = flow::run_campaign(&w, &flow::setup(&w, 1)).unwrap();
    let b = flow::run_campaign(&w, &flow::setup(&w, 2)).unwrap();
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn flipped_detection_is_caught_and_counted() {
    let w = tiny()[0];
    let seed = 3;
    let inputs = flow::setup(&w, seed);
    let sound = flow::run_campaign(&w, &inputs).unwrap();
    assert_eq!(run::audit(&w, &inputs, seed, &[Ok(sound.clone())]).0, 0);

    let mut flipped = sound.clone();
    let victim = flipped
        .sim3
        .results
        .iter_mut()
        .find(|r| r.detection.is_none())
        .expect("an undetected fault");
    victim.detection = Some(Detection {
        frame: 0,
        output: 0,
    });
    assert!(gate::check(&w, &inputs, &flipped, seed).is_err());
    let (failed, notes) = run::audit(&w, &inputs, seed, &[Ok(flipped.clone())]);
    assert_eq!(failed, 1, "{notes:?}");
    // Behind a sound first campaign, the flip shows as a verdict change.
    let (failed, _) = run::audit(&w, &inputs, seed, &[Ok(sound), Ok(flipped)]);
    assert_eq!(failed, 1);
}

#[test]
fn pinned_statistics_catch_a_changed_count() {
    let (name, pinned) = reference::PINNED[3];
    assert!(reference::check(name, &pinned).is_ok());
    let changed = flow::Stats {
        swaps: pinned.swaps + 1,
        ..pinned
    };
    assert!(reference::check(name, &changed).is_err());
}
