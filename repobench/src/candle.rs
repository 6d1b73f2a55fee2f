//! The reference kernel that prices the host's current core speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! with the load of other tenants: unchanged code ran the campaign in
//! 0.61 s and in 1.5 s on the same 2-core container tens of minutes apart,
//! and the slow spells last minutes, so no run length averages them away.
//! Every end-to-end time is therefore measured alongside passes of this
//! fixed kernel and scaled to the core speed at which one pass takes
//! [`NOMINAL_S`]. The kernel is the benchmark's own code and never calls
//! the crates: a change to the program moves a scaled time exactly as it
//! moves the raw one, and only the host's drift is divided out.
//!
//! A pass runs two kernels, each about half of it:
//!
//! - a discrete-event loop, a binary heap of 4096 pending events updating
//!   a 512 KiB table: branchy, cache-resident work like the simulators'
//!   event loops;
//! - four independent multiply-xor chains: pure integer work with no
//!   memory traffic, which follows short spells of contention for the
//!   core's execution units most closely of the kernels tried.
//!
//! Neither alone follows all three workloads: on a 2-core container the
//! event loop over-reacted to short spells (it slowed 2.3× where
//! `chaos_wrf256` slowed 1.6×), and the multiply chains, already issuing
//! one multiply per cycle while the workloads ran 2× slower than their
//! best, can speed up only with the clock. See the Noise section of
//! `README.md` for the measurements.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events the event loop processes per pass.
const EVENTS: u64 = 150_000;
/// Events pending at any time.
const PENDING: u32 = 4096;
/// Slots of the table the events update (512 KiB of `u64`).
const SLOTS: usize = 1 << 16;
/// Iterations of the multiply chains per pass.
const ITERATIONS: u64 = 10_000_000;
/// The pass time that defines the reference core speed.
pub const NOMINAL_S: f64 = 0.04;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// One pass on the calling thread; returns its host seconds.
pub fn pass() -> f64 {
    let start = Instant::now();
    let mut heap = BinaryHeap::with_capacity(PENDING as usize);
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for id in 0..PENDING {
        heap.push(Reverse((lcg(&mut x) >> 40, id)));
    }
    for _ in 0..EVENTS {
        let Reverse((now, id)) = heap.pop().expect("events stay pending");
        let r = lcg(&mut x);
        let slot = ((r >> 30) as usize ^ id as usize) & (SLOTS - 1);
        table[slot] = table[slot].wrapping_add(now);
        heap.push(Reverse((now + 1 + (r >> 52), id)));
    }
    std::hint::black_box(&table);

    let mut h = [1u64, 2, 3, 4];
    const MUL: [u64; 4] = [
        0x0000_0100_0000_01b3,
        0x9e37_79b9_7f4a_7c15,
        0xff51_afd7_ed55_8ccd,
        0xc4ce_b9fe_1a85_ec53,
    ];
    for i in 0..std::hint::black_box(ITERATIONS) {
        for (h, m) in h.iter_mut().zip(MUL) {
            *h = (*h ^ i).wrapping_mul(m);
        }
    }
    std::hint::black_box(h);
    start.elapsed().as_secs_f64()
}

/// Run passes on `threads` threads at once, as a run with that many
/// workers loads the cores, until they have taken `min_s` host seconds
/// (at least one pass); appends each pass's mean thread time to `into`.
pub fn passes_on(threads: usize, min_s: f64, into: &mut Vec<f64>) {
    let start = Instant::now();
    loop {
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(pass)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a candle pass does not panic"))
                .sum()
        });
        into.push(total / threads.max(1) as f64);
        if start.elapsed().as_secs_f64() >= min_s {
            return;
        }
    }
}

/// The factor that scales host times measured while candle passes took
/// `pass_s` (their median) to the reference core speed.
pub fn scale(pass_s: f64) -> f64 {
    NOMINAL_S / pass_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_take_time_and_scale_inversely() {
        let mut passes = Vec::new();
        passes_on(2, 0.0, &mut passes);
        assert_eq!(passes.len(), 1);
        assert!(passes[0] > 0.0);
        passes_on(1, 3.0 * passes[0], &mut passes);
        assert!(passes.len() >= 3, "{passes:?}");
        assert_eq!(scale(NOMINAL_S), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_S), 0.5);
    }
}
