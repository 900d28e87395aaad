//! Differential test of the scheduler's fixed-delay lanes: a scheduler
//! fed `schedule_in_lane` must be indistinguishable from one fed
//! `schedule_in` for the same calls, which keeps every event in the heap.
//! Random interleavings of absolute and relative scheduling, lane
//! scheduling over a few delays, cancels (often enough that compaction
//! runs while lanes hold entries), pops, peeks and export → restore
//! round trips must give identical pops, peeks, exports, keys, counters
//! and lengths after every call.
//!
//! The scheduler keeps a running count of queued entries (heap and lanes,
//! tombstones included) and skips the tombstone lookup while nothing is
//! canceled. So after every call the count must equal what the export
//! holds, and the profile counters must equal a model kept here from the
//! calls alone; and both the cancel-free and the tombstoned pop path are
//! driven against the heap-only reference.

use dcmaint_des::{EventKey, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;

/// One scheduler call, decoded from a raw draw.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `schedule` at an absolute instant (possibly in the past).
    At(u64),
    /// `schedule_in` with an arbitrary delay.
    In(u64),
    /// `schedule_in_lane` with one of the fixed delays; the reference
    /// gets `schedule_in` with the same delay.
    Lane(usize),
    /// Cancel the `n`-th key handed out so far (wrapping).
    Cancel(usize),
    Pop,
    Peek,
    /// Export both schedulers and restore each from its own export.
    RoundTrip,
}

fn decode(raw: (u32, u64), cancel_pct: u32, delays: usize) -> Op {
    let (r, v) = raw;
    if r < cancel_pct {
        return Op::Cancel(v as usize);
    }
    match (r - cancel_pct) % 16 {
        0 | 1 => Op::At(v % 400),
        2 => Op::In(v % 120),
        3..=7 => Op::Lane(v as usize % delays),
        8..=11 => Op::Pop,
        12 | 13 => Op::Peek,
        14 => Op::RoundTrip,
        _ => Op::Lane(0),
    }
}

fn round_trip(s: &Scheduler<u64>) -> Scheduler<u64> {
    let entries = s
        .export_entries()
        .into_iter()
        .map(|(at, seq, &p)| (at, seq, p))
        .collect();
    let mut r = Scheduler::restore(
        s.now(),
        s.next_seq(),
        s.delivered(),
        s.horizon(),
        entries,
        s.export_canceled(),
    );
    r.set_prof(s.prof());
    r
}

type Exported = (Vec<(SimTime, u64, u64)>, Vec<u64>);

fn export(s: &Scheduler<u64>) -> Exported {
    (
        s.export_entries()
            .into_iter()
            .map(|(at, seq, &p)| (at, seq, p))
            .collect(),
        s.export_canceled(),
    )
}

/// The profile counters as this test counts them from the calls it makes:
/// the depth high-water mark is the longest export seen after a call.
#[derive(Default)]
struct Model {
    scheduled: u64,
    dropped_horizon: u64,
    canceled: u64,
    max_pending: u64,
}

impl Model {
    fn schedule(&mut self, s: &Scheduler<u64>, at: SimTime) {
        if at.max(s.now()) > s.horizon() {
            self.dropped_horizon += 1;
        } else {
            self.scheduled += 1;
        }
    }

    fn check(&mut self, s: &Scheduler<u64>, step: usize) -> Result<(), TestCaseError> {
        let queued = s.export_entries().len();
        prop_assert_eq!(s.len(), queued, "queued count drifts after step {}", step);
        self.max_pending = self.max_pending.max(queued as u64);
        let p = s.prof();
        prop_assert_eq!(
            (p.scheduled, p.dropped_horizon, p.canceled, p.max_pending),
            (
                self.scheduled,
                self.dropped_horizon,
                self.canceled,
                self.max_pending
            ),
            "counters differ from the model after step {}",
            step
        );
        Ok(())
    }
}

fn same_state(a: &Scheduler<u64>, b: &Scheduler<u64>, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(export(a), export(b), "exports differ after step {}", step);
    prop_assert_eq!(a.next_seq(), b.next_seq());
    prop_assert_eq!(a.delivered(), b.delivered());
    prop_assert_eq!(a.prof(), b.prof(), "counters differ after step {}", step);
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.live_len(), b.live_len());
    prop_assert_eq!(a.is_empty(), b.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lanes_match_heap_only_scheduler(
        ops in prop::collection::vec((0u32..100, 0u64..1 << 40), 1..600),
        cancel_pct in 0u32..70,
        delays in 2usize..4,
        bounded in 0u8..2,
    ) {
        let lane_delays = [
            SimDuration::from_micros(15),
            SimDuration::from_micros(90),
            SimDuration::from_micros(15 * 7),
        ];
        let (mut lanes, mut heap) = if bounded == 1 {
            let h = SimTime::from_micros(2_000);
            (Scheduler::with_horizon(h), Scheduler::with_horizon(h))
        } else {
            (Scheduler::new(), Scheduler::new())
        };
        let mut keys: Vec<EventKey> = Vec::new();
        let mut model = Model::default();
        for (step, &raw) in ops.iter().enumerate() {
            let payload = step as u64;
            match decode(raw, cancel_pct, delays) {
                Op::At(t) => {
                    let at = SimTime::from_micros(t);
                    model.schedule(&lanes, at);
                    let k = lanes.schedule(at, payload);
                    prop_assert_eq!(k, heap.schedule(at, payload));
                    keys.push(k);
                }
                Op::In(d) => {
                    let d = SimDuration::from_micros(d);
                    model.schedule(&lanes, lanes.now() + d);
                    let k = lanes.schedule_in(d, payload);
                    prop_assert_eq!(k, heap.schedule_in(d, payload));
                    keys.push(k);
                }
                Op::Lane(i) => {
                    let d = lane_delays[i];
                    model.schedule(&lanes, lanes.now() + d);
                    let k = lanes.schedule_in_lane(d, payload);
                    prop_assert_eq!(k, heap.schedule_in(d, payload));
                    keys.push(k);
                }
                Op::Cancel(n) => {
                    if !keys.is_empty() {
                        let k = keys[n % keys.len()];
                        let fresh = lanes.cancel(k);
                        prop_assert_eq!(fresh, heap.cancel(k));
                        model.canceled += u64::from(fresh);
                    }
                }
                Op::Pop => {
                    let a = lanes.pop().map(|f| (f.at, f.key, f.payload));
                    let b = heap.pop().map(|f| (f.at, f.key, f.payload));
                    prop_assert_eq!(a, b, "pops differ at step {}", step);
                    prop_assert_eq!(lanes.now(), heap.now());
                }
                Op::Peek => {
                    prop_assert_eq!(lanes.peek_time(), heap.peek_time());
                    let a = lanes.peek().map(|(at, &p)| (at, p));
                    let b = heap.peek().map(|(at, &p)| (at, p));
                    prop_assert_eq!(a, b, "peeks differ at step {}", step);
                }
                Op::RoundTrip => {
                    lanes = round_trip(&lanes);
                    heap = round_trip(&heap);
                }
            }
            same_state(&lanes, &heap, step)?;
            model.check(&lanes, step)?;
        }
        // Drain both to the end.
        loop {
            let a = lanes.pop().map(|f| (f.at, f.key, f.payload));
            let b = heap.pop().map(|f| (f.at, f.key, f.payload));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        same_state(&lanes, &heap, ops.len())?;
        model.check(&lanes, ops.len())?;
        prop_assert_eq!(lanes.now(), heap.now());
    }
}

/// Schedule the same event on both sides, lane against heap.
fn both_lane(lanes: &mut Scheduler<u64>, heap: &mut Scheduler<u64>, d: u64, p: u64) -> EventKey {
    let d = SimDuration::from_micros(d);
    let k = lanes.schedule_in_lane(d, p);
    assert_eq!(k, heap.schedule_in(d, p));
    k
}

fn pop_both(lanes: &mut Scheduler<u64>, heap: &mut Scheduler<u64>) -> Option<u64> {
    let a = lanes.pop().map(|f| (f.at, f.key, f.payload));
    assert_eq!(a, heap.pop().map(|f| (f.at, f.key, f.payload)));
    assert_eq!(lanes.len(), lanes.export_entries().len());
    a.map(|(_, _, p)| p)
}

#[test]
fn pops_agree_with_and_without_tombstones() {
    let (mut lanes, mut heap) = (Scheduler::new(), Scheduler::new());
    // Nothing ever canceled: every pop takes the lookup-free path.
    for p in 0..40 {
        both_lane(&mut lanes, &mut heap, 15 * (p % 3 + 1), p);
        heap.schedule_in(SimDuration::from_micros(7 * p), 100 + p);
        lanes.schedule_in(SimDuration::from_micros(7 * p), 100 + p);
    }
    for _ in 0..30 {
        pop_both(&mut lanes, &mut heap).expect("queued");
    }
    assert!(lanes.export_canceled().is_empty());
    assert_eq!(lanes.prof().canceled, 0);

    // Outstanding tombstones in both the heap and a lane: pops skip them.
    let mut doomed = Vec::new();
    for p in 200..220 {
        let k = both_lane(&mut lanes, &mut heap, 15, p);
        if p % 2 == 0 {
            doomed.push((k, p));
        }
        let at = lanes.now() + SimDuration::from_micros(p % 9);
        let k = lanes.schedule(at, p + 1_000);
        assert_eq!(k, heap.schedule(at, p + 1_000));
        if p % 3 == 0 {
            doomed.push((k, p + 1_000));
        }
    }
    for &(k, _) in &doomed {
        assert!(lanes.cancel(k));
        assert!(heap.cancel(k));
    }
    assert!(lanes.live_len() < lanes.len(), "tombstones outstanding");
    let mut fired = Vec::new();
    while let Some(p) = pop_both(&mut lanes, &mut heap) {
        fired.push(p);
    }
    assert!(doomed.iter().all(|(_, p)| !fired.contains(p)));
    assert_eq!(lanes.live_len(), 0);

    // A key canceled after it fired stays recorded with no tombstone
    // queued: later pops take the lookup path and still agree.
    let k = both_lane(&mut lanes, &mut heap, 15, 300);
    assert_eq!(pop_both(&mut lanes, &mut heap), Some(300));
    assert!(lanes.cancel(k));
    assert!(heap.cancel(k));
    assert_eq!(lanes.export_canceled().len(), 1);
    assert_eq!(lanes.live_len(), lanes.len(), "no tombstone queued");
    for p in 301..320 {
        both_lane(&mut lanes, &mut heap, 15 * (p % 2 + 1), p);
    }
    let mut n = 0;
    while pop_both(&mut lanes, &mut heap).is_some() {
        n += 1;
    }
    assert_eq!(n, 19);
    assert_eq!(lanes.prof(), heap.prof());
}
