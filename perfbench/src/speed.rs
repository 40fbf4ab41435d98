//! Host speed calibration.
//!
//! The shared VMs this benchmark runs on change speed by 20–75% for
//! minutes at a time, mostly without any CPU steal to show for it (the
//! other tenants share caches, cores and clocks rather than take turns).
//! Between the jobs of a run the benchmark times a fixed piece of work of
//! its own — [`kernel`], which calls nothing of the program — on as many
//! threads as the pool has, and keeps that time out of the measured
//! window. A job's timings are reported at reference speed: measured
//! seconds × [`REFERENCE_S`] / the mean of the samples taken around it.
//! Set-up uses the run's median sample. A change to the program moves the
//! job timings but not the kernel; a slow phase of the host moves both.
//! The report prints the timings as measured and the run's factor too.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference machine (a 2-vCPU Intel Xeon
/// VM at 2.0 GHz, two threads) in a typical phase. Reported timings are in
/// seconds of a machine that runs the kernel in this time.
pub const REFERENCE_S: f64 = 0.004;

/// Calibration samples of one run.
pub struct Speed {
    threads: usize,
    samples: Vec<f64>,
}

impl Speed {
    pub fn new(threads: usize) -> Speed {
        Speed {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Times the kernel once on every thread at the same time and records
    /// the wall time until all are done. Returns the seconds spent.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| black_box(kernel()));
            }
            black_box(kernel());
        });
        let spent = t.elapsed().as_secs_f64();
        self.samples.push(spent);
        spent
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Median kernel time of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples).unwrap_or(REFERENCE_S)
    }

    /// Multiplies measured seconds into reference seconds: above 1 when the
    /// host ran faster than the reference, below 1 when slower.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / self.median_s()
    }

    /// The factor for work done between samples `from` and `to` (clamped
    /// to the last one): from their mean, so a job is scaled by the host's
    /// speed around it rather than over the whole run.
    pub fn factor_over(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.samples.len() - 1);
        REFERENCE_S / crate::mean(&self.samples[from..=to])
    }
}

/// A fixed few milliseconds of the kind of work a small simulation does:
/// real 2×2 rotations over a 64-amplitude complex state, strided over
/// every qubit, with one small heap allocation per sweep.
fn kernel() -> f64 {
    let mut re = [0.0f64; 64];
    let mut im = [0.0f64; 64];
    re[0] = 1.0;
    let (c, s) = (0.6f64.cos(), 0.6f64.sin());
    let mut acc = 0.0;
    for sweep in 0..20_000 {
        let stride = 1 << (sweep % 6);
        for i in (0..64).filter(|i| i & stride == 0) {
            let j = i | stride;
            let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
            re[i] = c * ar - s * bi;
            im[i] = c * ai + s * br;
            re[j] = c * br - s * ai;
            im[j] = c * bi + s * ar;
        }
        let probs: Vec<f64> = re.iter().zip(&im).map(|(r, i)| r * r + i * i).collect();
        acc += black_box(probs)[sweep % 64];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median() {
        let mut speed = Speed::new(2);
        for _ in 0..3 {
            speed.sample();
        }
        assert_eq!(speed.len(), 3);
        assert!(speed.median_s() > 0.0);
        assert_eq!(speed.factor(), REFERENCE_S / speed.median_s());
        let (a, b, c) = (speed.samples[0], speed.samples[1], speed.samples[2]);
        assert_eq!(speed.factor_over(0, 1), REFERENCE_S / ((a + b) / 2.0));
        assert_eq!(speed.factor_over(2, 3), REFERENCE_S / c);
        assert_eq!(speed.factor_over(0, 2), REFERENCE_S / ((a + b + c) / 3.0));
        // The kernel is deterministic.
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }
}
