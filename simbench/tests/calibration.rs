//! The calibration kernel slows down with the host as the simulator does,
//! so scaling by it cancels a host slowdown instead of adding to it.
//!
//! The test slows the host on purpose (twice as many threads as cores,
//! each thrashing a buffer of its own) and compares how much an E1 engine
//! run and a batch of kernel passes slow down. It is its own test binary
//! so that no other test shares the host while it measures.

use std::sync::atomic::{AtomicBool, Ordering};

use dcmaint_des::SimDuration;
use dcmaint_scenarios::Engine;
use dcmaint_simbench::calib::Kernel;
use dcmaint_simbench::median_f;
use dcmaint_simbench::trace::{secs_since, Clock};
use dcmaint_simbench::workload::{Size, WORKLOADS};

/// Kernel passes per timed batch: about as long as the engine run (tens
/// of milliseconds, many scheduler slices), so both are exposed to the
/// slowdown for a similar time.
const BATCH: usize = 30;
const REPS: usize = 9;

/// Median host seconds of a four-day E1 engine run and of a batch of
/// kernel passes, measured alternately.
fn measure(kernel: &mut Kernel) -> (f64, f64) {
    let mut cfg = WORKLOADS[0].config(7, Size::Full);
    cfg.duration = SimDuration::from_days(4);
    let clock = Clock::new();
    let (mut cell, mut batch) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = clock.now();
        let mut eng = Engine::new(cfg.clone());
        while eng.step_event().is_some() {}
        std::hint::black_box(eng.finish_report());
        cell.push(secs_since(t));
        batch.push((0..BATCH).map(|_| kernel.time()).sum());
    }
    (median_f(&cell), median_f(&batch))
}

#[test]
fn calibration_tracks_a_host_slowdown() {
    let mut kernel = Kernel::new();
    measure(&mut kernel);
    let (cell_quiet, kernel_quiet) = measure(&mut kernel);

    let stop = AtomicBool::new(false);
    let spinners = 2 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let (cell_busy, kernel_busy) = std::thread::scope(|s| {
        for _ in 0..spinners {
            s.spawn(|| {
                let mut buf = vec![0u64; 1 << 18];
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..4096 {
                        i = (i + 4099) % buf.len();
                        buf[i] = buf[i].wrapping_add(i as u64);
                    }
                }
                std::hint::black_box(buf);
            });
        }
        let busy = measure(&mut kernel);
        stop.store(true, Ordering::Relaxed);
        busy
    });

    let host = cell_busy / cell_quiet;
    let scaled = host / (kernel_busy / kernel_quiet);
    eprintln!(
        "engine run {:.2} -> {:.2} ms ({host:.2}x), kernel batch {:.2} -> {:.2} ms, scaled {scaled:.2}x",
        cell_quiet * 1e3,
        cell_busy * 1e3,
        kernel_quiet * 1e3,
        kernel_busy * 1e3
    );
    assert!(
        host > 1.5,
        "the spinners did not slow the host ({host:.2}x)"
    );
    assert!(
        (scaled - 1.0).abs() < (host - 1.0) / 2.0,
        "scaling left {scaled:.2}x of a {host:.2}x slowdown"
    );
}
