//! Simulated statistics pinned for every workload.
//!
//! They are a function of the circuit, sequence and configuration alone;
//! the workload seed only reorders the fault list, which must change
//! nothing. A run of any later version whose statistics differ has changed
//! a verdict: it is reported as failed, never as faster. Re-pin only with a
//! change that means to change verdicts, and say why.

use crate::flow::Stats;

/// Pinned statistics by workload name, as `motsim` 0.2.0 computes them.
/// The counts match the `motsim sim3` / `motsim strategies` output for the
/// same circuit, sequence and options.
pub const PINNED: &[(&str, Stats)] = &[
    (
        "sim3-g13207",
        Stats {
            eliminated: 9494,
            detected_sim3: 4535,
            detected: [None, None, None],
            fallback_frames: 0,
            sift_passes: 0,
            swaps: 0,
            checksum: 0x9fcf_f677_72fc_27c4,
        },
    ),
    (
        "exact-g838",
        Stats {
            eliminated: 0,
            detected_sim3: 1,
            detected: [Some(0), Some(0), Some(2)],
            fallback_frames: 0,
            sift_passes: 0,
            swaps: 0,
            checksum: 0xb5b7_e1e5_9437_bf40,
        },
    ),
    (
        "hybrid-g526",
        Stats {
            eliminated: 0,
            detected_sim3: 19,
            detected: [Some(47), Some(65), Some(0)],
            fallback_frames: 8429,
            sift_passes: 0,
            swaps: 0,
            checksum: 0x8e34_479f_8bc5_dc20,
        },
    ),
    (
        "sift-g298",
        Stats {
            eliminated: 0,
            detected_sim3: 201,
            detected: [None, None, Some(25)],
            fallback_frames: 272,
            sift_passes: 40,
            swaps: 47_576,
            checksum: 0x756b_8887_4244_ad36,
        },
    ),
];

/// Compares `stats` with the pinned values of `workload`, if it has any.
///
/// # Errors
///
/// Describes the difference.
pub fn check(workload: &str, stats: &Stats) -> Result<(), String> {
    match PINNED.iter().find(|(name, _)| *name == workload) {
        Some((_, pinned)) if pinned != stats => Err(format!(
            "simulated statistics differ from the pinned reference:\n  pinned {pinned:?}\n  got    {stats:?}"
        )),
        _ => Ok(()),
    }
}
