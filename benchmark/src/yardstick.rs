//! A fixed computation timed between a round's steps, which tells how fast
//! the shared host runs at the moment.
//!
//! On a 2-vCPU share of a busy host the same round's CPU time moves by a
//! third within minutes: neighbours slow every instruction, so CPU time
//! does not leave the contention out. The yardstick slows with them. A
//! step's CPU time divided by the yardstick's fastest time in the same
//! round is the step's cost in yardstick units, which stays put while the
//! host's speed drifts; multiplied by [`REFERENCE_S`] it reads as seconds
//! again. The yardstick is part of the benchmark, not of the program, so it
//! is the same on both sides of any comparison.

use std::hint::black_box;

use crate::cpu;

/// About the yardstick's fastest time on a quiet 2-vCPU share of the Xeon
/// (2.1 GHz) host the reference figures come from (the fastest round
/// minimum over a hundred-odd runs there was 234.6 µs): at that speed a
/// scaled time equals the CPU time.
pub const REFERENCE_S: f64 = 230e-6;

/// Keys sorted per timing: 128 KiB, which stays in a core's L2 cache.
const KEYS: usize = 16 << 10;
/// Slots of the open-addressing table filled per timing.
const SLOTS: usize = 8 << 10;

/// The fastest of `reps` timings of the computation, CPU seconds. Its
/// buffers live on the stack, so the yardstick never shows in the counted
/// heap.
pub fn time(reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let t = cpu::now();
            black_box(compute());
            (cpu::now() - t).as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sorts pseudo-random keys, then inserts half of them into a linear-probing
/// hash table: comparisons, branches and scattered loads and stores, as in
/// the program's event queue and maps.
fn compute() -> u64 {
    let mut keys = [0u64; KEYS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    black_box(&mut keys).sort_unstable();
    let mut slots = [0u64; SLOTS];
    for &k in keys.iter().step_by(2).take(SLOTS / 2) {
        let mut i = (k.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 51) as usize;
        while slots[i] != 0 {
            i = (i + 1) % SLOTS;
        }
        slots[i] = k;
    }
    black_box(&slots)[..].iter().fold(0, |a, &s| a ^ s)
}
