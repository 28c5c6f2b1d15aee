//! How fast the host's CPUs are right now.
//!
//! The reference host is a shared virtual machine. When other tenants load
//! the physical cores, its vCPUs slow down for seconds at a time, the
//! vectorised float code of the decoders by up to 1.8×. Runs of one commit
//! then differ by more than any useful regression bound. So between slices
//! of traffic, while the runtime is idle, a run times a fixed calibration
//! kernel. Its speed relative to the reference host converts wall time into
//! *reference time*, in which the time-valued end-to-end metrics are
//! reported. The kernel is plain Rust in this file and calls nothing of the
//! repository, so no change to the program can move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel repetitions per calibration: about 2 ms on the reference host.
const KERNEL_REPS: u32 = 25_000;

/// The kernel's time on the reference host at full speed.
const REFERENCE_KERNEL: Duration = Duration::from_micros(2_000);

/// The calibration kernel: a 16 × 16 float matrix-vector product and a
/// renormalisation, repeated. Like the decoders' partial-distance
/// evaluation, it is vectorised float arithmetic on data held in L1, and
/// the host's slow spells slow both alike.
fn kernel(reps: u32) -> f64 {
    let a: [[f64; 16]; 16] = std::array::from_fn(|i| {
        std::array::from_fn(|j| ((i * 7 + j * 3) % 11) as f64 * 0.01 - 0.05)
    });
    let mut x = [1.0f64; 16];
    for _ in 0..reps {
        let mut y = [0.0f64; 16];
        for (yi, row) in y.iter_mut().zip(&a) {
            *yi = row.iter().zip(&x).map(|(r, x)| r * x).sum();
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt() + 1e-9;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm + 1e-3;
        }
        black_box(&mut x);
    }
    x.iter().sum()
}

/// Speed of the calling thread's CPU relative to the reference host: the
/// kernel's reference time over its time now.
pub fn speed() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(KERNEL_REPS)));
    REFERENCE_KERNEL.as_secs_f64() / t.elapsed().as_secs_f64()
}

/// [`speed`] on a thread of its own, which the scheduler places as it
/// places the runtime's workers. Call it only while the runtime is idle.
pub fn worker_speed() -> f64 {
    std::thread::spawn(speed)
        .join()
        .expect("the calibration kernel does not panic")
}

/// Reference time, in seconds, of `wall` time spent between two
/// calibrations that measured speeds `before` and `after`.
pub fn reference(wall: Duration, before: f64, after: f64) -> f64 {
    wall.as_secs_f64() * (before + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_grows_with_its_repetitions() {
        let time = |reps| {
            let t = Instant::now();
            black_box(kernel(black_box(reps)));
            t.elapsed()
        };
        // Best of three, so a preempted run cannot decide the comparison.
        let best = |reps| (0..3).map(|_| time(reps)).min().unwrap();
        assert!(best(4_000) > best(400) * 4);
        assert!(kernel(100).is_finite());
    }

    #[test]
    fn speeds_are_positive_and_finite() {
        for s in [speed(), worker_speed()] {
            assert!(s > 0.0 && s.is_finite());
        }
        assert_eq!(reference(Duration::from_secs(2), 0.5, 1.5), 2.0);
    }
}
