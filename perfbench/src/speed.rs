//! Host-speed reference. The benchmark's host is shared: the speed one
//! thread gets moves by tens of percent within minutes, and by two times
//! or more between hours, as neighbours load the cores under it. Every
//! timed step is therefore preceded by one unit of fixed reference work on
//! the same thread, and the end-to-end timings are reported at the speed
//! at which that unit takes [`NOMINAL_MS`]. The unit is the benchmark's
//! own code and calls nothing of the program, so a program change moves
//! the scaled timings as it moves the raw ones, with one exception: work
//! the program leaves running between steps, on threads of its own, slows
//! the reference too. The unscaled timings are printed beside the scaled
//! ones for that comparison.
//!
//! The unit is in-cache arithmetic, which follows the host's speed in
//! full; a training step also waits on memory and on the other thread,
//! which follow it less. So a time is scaled by the reference's speed
//! raised to [`EXPONENT`], not by the speed itself.
//!
//! The reference runs on one thread: samples on two threads at once
//! tracked the training steps worse on a shared 2-vCPU host. Neither
//! catches the CPU time the hypervisor steals in bursts, which the timings
//! are taken net of separately (`host::timed`).

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Time of one reference unit at the nominal host speed, in ms: about its
/// median on the 2-vCPU host the bounds were set on.
pub const NOMINAL_MS: f64 = 3.0;

/// How far the workloads' step times follow the reference's time. Over
/// 20 runs of each workload in which the reference's median moved between
/// 1.8 and 3.4 ms, the step time's median moved with it to the power 0.63
/// (dp2), 0.75 (p2) and 1.1 (p1); scaling by 0.7 gave the smallest spreads
/// across the three, since a larger power also scales up the reference's
/// own noise.
const EXPONENT: f64 = 0.7;

/// Reference samples, centred on a step, whose median scales that step.
/// The host's speed drifts over seconds; one sample is too noisy, and a
/// whole-run median misses the drift.
const WINDOW: usize = 11;

/// Reference samples a set-up child takes before its timed set-up.
pub const SAMPLES_BEFORE_SETUP: usize = 5;

/// Side of the square matrices the reference multiplies.
const N: usize = 64;

/// Multiplications per unit.
const PRODUCTS: usize = 24;

/// Elements of the buffer the reference streams through (512 KiB, in L2).
const SWEEP_ELEMS: usize = 1 << 17;

/// Passes over the buffer per unit.
const SWEEPS: usize = 80;

/// The reference work's buffers, allocated once before any timing.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    sweep: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            a: (0..N * N).map(|i| (i % 13) as f32 * 1e-3).collect(),
            b: (0..N * N).map(|i| (i % 7) as f32 * 1e-3).collect(),
            c: vec![0.0; N * N],
            sweep: vec![1.0; SWEEP_ELEMS],
        }
    }
}

impl Reference {
    /// Run one unit on the calling thread and return its wall time in ms:
    /// [`PRODUCTS`] `N`x`N` matrix products and [`SWEEPS`] passes of a
    /// multiply-add over an L2-resident buffer.
    pub fn sample_ms(&mut self) -> f64 {
        let began = Instant::now();
        for _ in 0..PRODUCTS {
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                for (k, &x) in self.a[i * N..(i + 1) * N].iter().enumerate() {
                    for (cj, bj) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *cj += x * bj;
                    }
                }
            }
            black_box(&mut self.c);
        }
        for _ in 0..SWEEPS {
            for x in &mut self.sweep {
                *x = *x * 0.999 + 0.001;
            }
            black_box(&mut self.sweep);
        }
        began.elapsed().as_secs_f64() * 1e3
    }

    /// Median of `samples` fresh units, in ms.
    pub fn median_ms(&mut self, samples: usize) -> f64 {
        median(&(0..samples).map(|_| self.sample_ms()).collect::<Vec<_>>())
    }
}

/// What a time measured while the reference unit took `reference_ms` is
/// multiplied by to bring it to the nominal host speed.
pub fn factor(reference_ms: f64) -> f64 {
    (NOMINAL_MS / reference_ms).powf(EXPONENT)
}

/// `times` at the nominal host speed: each one multiplied by the
/// [`factor`] of the median of the [`WINDOW`] reference samples centred on
/// it (fewer at either end of the run).
///
/// # Panics
///
/// Panics unless there is one reference sample per time.
pub fn scale(times: &[f64], reference_ms: &[f64]) -> Vec<f64> {
    assert_eq!(times.len(), reference_ms.len(), "one reference sample per time");
    let half = WINDOW / 2;
    times
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let window = &reference_ms[i.saturating_sub(half)..(i + half + 1).min(times.len())];
            t * factor(median(window))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_reference_leaves_times_alone_and_a_slow_host_is_scaled_back() {
        let times = [0.1, 0.2, 0.3];
        assert_eq!(scale(&times, &[NOMINAL_MS; 3]), times);
        // A host at half speed doubles the reference's time; the times are
        // brought back by 2 to the power EXPONENT.
        let back = 0.5f64.powf(EXPONENT);
        assert!((factor(2.0 * NOMINAL_MS) - back).abs() < 1e-12);
        let scaled = scale(&times, &[2.0 * NOMINAL_MS; 3]);
        assert!(scaled.iter().zip(times).all(|(s, t)| (s - t * back).abs() < 1e-12), "{scaled:?}");
        assert!(factor(NOMINAL_MS / 2.0) > 1.0);
    }

    #[test]
    fn each_time_is_scaled_by_the_median_of_the_samples_around_it() {
        // The host halves its speed after step 20; one outlier sample at
        // step 5 is outvoted by its neighbours.
        let mut reference = vec![NOMINAL_MS; 20];
        reference.extend([2.0 * NOMINAL_MS; 20]);
        reference[5] = 10.0 * NOMINAL_MS;
        let scaled = scale(&[1.0; 40], &reference);
        assert!(scaled[..15].iter().all(|&s| s == 1.0), "{scaled:?}");
        assert!(scaled[26..].iter().all(|&s| s == factor(2.0 * NOMINAL_MS)), "{scaled:?}");
    }

    #[test]
    #[should_panic(expected = "one reference sample per time")]
    fn every_time_needs_its_reference_sample() {
        scale(&[0.1, 0.2], &[NOMINAL_MS]);
    }

    #[test]
    fn a_reference_unit_takes_measurable_time() {
        let mut r = Reference::default();
        let ms = r.median_ms(3);
        assert!(ms > 0.01 && ms.is_finite(), "{ms}");
    }
}
