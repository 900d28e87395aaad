//! Host-speed calibration: a fixed kernel that calls no simulator code,
//! timed between the cells of a run, so host slowdowns (neighbours on
//! shared cores and caches) can be told apart from changes to the
//! simulator.
//!
//! The kernel works only on buffers allocated when it is built, and each
//! measurement runs one untimed pass first, so neither the heap nor the
//! cache state a cell leaves behind reaches the timed pass: no change to
//! the simulator can move the kernel's time.

use std::hint::black_box;

use crate::trace::{secs_since, Clock};

const NODES: usize = 4096;
const DEGREE: usize = 4;
const KEYS: usize = 32_768;

/// The kernel's time on the host the benchmark was defined on (2-core
/// x86-64 container, quiet phase). Host seconds are reported as
/// reference seconds: one host second counts as
/// `REFERENCE_KERNEL_S / k` of them, with `k` the kernel's median time
/// measured between the cells of the same cycle.
pub const REFERENCE_KERNEL_S: f64 = 0.0015;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One instance of the kernel with its buffers.
#[derive(Debug)]
pub struct Kernel {
    adj: Vec<[u32; DEGREE]>,
    seen: Vec<bool>,
    queue: Vec<u32>,
    keys: Vec<u64>,
}

impl Kernel {
    /// Build the kernel's fixed random graph and its buffers.
    pub fn new() -> Kernel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let adj = (0..NODES)
            .map(|_| std::array::from_fn(|_| (xorshift(&mut x) % NODES as u64) as u32))
            .collect();
        Kernel {
            adj,
            seen: vec![false; NODES],
            queue: Vec::with_capacity(NODES),
            keys: vec![0; KEYS],
        }
    }

    /// One pass: breadth-first searches over the graph and a sort of
    /// pseudo-random keys, the pointer-chasing and branchy shapes of work
    /// that dominate the simulator's hot paths. Returns a checksum.
    fn pass(&mut self) -> u64 {
        let mut sum = 0u64;
        for src in 0..8u32 {
            self.seen.fill(false);
            self.queue.clear();
            self.queue.push(src);
            self.seen[src as usize] = true;
            let mut head = 0;
            while let Some(&n) = self.queue.get(head) {
                head += 1;
                sum += u64::from(n);
                for &m in &self.adj[n as usize] {
                    if !self.seen[m as usize] {
                        self.seen[m as usize] = true;
                        self.queue.push(m);
                    }
                }
            }
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for k in &mut self.keys {
            *k = xorshift(&mut x);
        }
        self.keys.sort_unstable();
        black_box(sum ^ self.keys[KEYS / 2])
    }

    /// Seconds for one pass, after an untimed one.
    pub fn time(&mut self) -> f64 {
        black_box(self.pass());
        let clock = Clock::new();
        let t = clock.now();
        black_box(self.pass());
        secs_since(t)
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

/// Seconds for one pass of every kernel in `kernels`, each on its own
/// thread at once (the mean over threads), so a parallel phase is
/// calibrated under the same core load it runs with.
pub fn time_parallel(kernels: &mut [Kernel]) -> f64 {
    if let [one] = kernels {
        return one.time();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = kernels
            .iter_mut()
            .map(|k| s.spawn(move || k.time()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len().max(1) as f64
}
