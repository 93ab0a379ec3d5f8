//! A fixed reference kernel that measures how fast the host runs right
//! now, so that end-to-end timings can be expressed at one reference
//! host speed.
//!
//! The host is a shared virtual machine whose speed drifts by a fifth
//! or more over minutes. A median over one 40 s run cannot remove a
//! drift that lasts longer than the run. The kernel is benchmark code:
//! no change to the program changes its work, so the ratio of a
//! simulation's host time to the kernel's host time, measured around
//! it, follows the program and not the host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host time of [`kernel`] on the 2-vCPU, 2.1 GHz virtual machine the
/// baseline was measured on, in its quieter stretches. A normalised
/// time is the host time the run would have taken at the speed where
/// the kernel takes this long.
pub const REFERENCE_S: f64 = 0.13;

/// Lines the kernel formats, hashes, indexes and sorts per round.
/// A round's working set stays near 3 MB, so the kernel leaves the
/// process's peak RSS to the program.
const LINES: u64 = 20_000;
/// Rounds per kernel run.
const ROUNDS: u64 = 20;

/// Runs the kernel once and returns its host time, seconds.
///
/// Its work resembles a simulation's: JSON-like lines built with
/// `format!`, joined into one text, hashed with fnv1a64 into a
/// `BTreeMap`, then sorted. It does the same work every call.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lines: Vec<String> = Vec::with_capacity(LINES as usize);
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for round in 0..ROUNDS {
        lines.clear();
        for i in 0..LINES {
            // xorshift64: fixed values, no dependency on the seed.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lines.push(format!(
                "{{\"t\":{},\"k\":\"ev{}\",\"v\":[{},{},{}]}}",
                round * LINES + i,
                x % 97,
                x % 1000,
                (x >> 10) % 1000,
                (x >> 20) % 1000
            ));
        }
        let text = lines.join("\n");
        for line in text.lines() {
            let h = line.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            *index.entry(h % 4096).or_default() += line.len();
        }
        lines.sort_unstable();
        black_box(&lines);
    }
    black_box(&index);
    start.elapsed().as_secs_f64()
}

/// `secs` of host time, measured between two kernel runs that took
/// `before` and `after`, expressed at the reference host speed.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}
