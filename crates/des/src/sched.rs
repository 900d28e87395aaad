//! The event scheduler: a deterministic priority queue of timestamped events.
//!
//! Design follows the event-driven/poll style of embedded network stacks:
//! the kernel owns *when* things happen, the model owns *what* happens. The
//! model defines one event type `E` (typically an enum covering the whole
//! simulation) and drives a plain loop:
//!
//! ```
//! use dcmaint_des::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Stop }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(SimDuration::from_secs(1), Ev::Ping(1));
//! sched.schedule_in(SimDuration::from_secs(3), Ev::Stop);
//! sched.schedule_in(SimDuration::from_secs(2), Ev::Ping(2));
//!
//! let mut seen = Vec::new();
//! while let Some(ev) = sched.pop() {
//!     match ev.payload {
//!         Ev::Ping(n) => seen.push(n),
//!         Ev::Stop => break,
//!     }
//! }
//! assert_eq!(seen, vec![1, 2]);
//! assert_eq!(sched.now(), SimTime::ZERO + SimDuration::from_secs(3));
//! ```
//!
//! Determinism: events at the same instant are delivered in the order they
//! were scheduled (FIFO within a timestamp), enforced by a monotonically
//! increasing sequence number used as a tiebreaker. Two runs that schedule
//! identical (time, payload) sequences observe identical delivery orders.
//!
//! Cancellation: [`Scheduler::schedule`] returns an [`EventKey`]; a canceled
//! key is skipped at pop time (lazy deletion), which keeps cancel O(1).
//!
//! Fixed-delay lanes: events that recur with one fixed delay (a polling
//! tick, a label due a fixed horizon after its scan) can go through
//! [`Scheduler::schedule_in_lane`] instead, which appends them to a FIFO
//! per distinct delay beside the heap. A lane is sorted by `(at, seq)` by
//! construction — `at = now + delay` with `now` never decreasing and
//! `seq` always increasing — so the next event is the least of the heap
//! top and the lane fronts, and the delivery order, keys and counters
//! are exactly those of the heap alone.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Handle identifying a scheduled event, usable to cancel it before firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

/// An event delivered by [`Scheduler::pop`]: the payload plus the instant it
/// fired (which is also the scheduler's new `now`).
#[derive(Debug)]
pub struct Fired<E> {
    /// Instant at which the event fired.
    pub at: SimTime,
    /// Model-defined payload.
    pub payload: E,
    /// The key the event was scheduled under.
    pub key: EventKey,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and invert
        // the sequence comparison so equal timestamps pop FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A point-in-time snapshot of scheduler state, for observability hooks:
/// the clock plus queue depth and delivery count, readable in O(1) without
/// disturbing the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Current simulation instant.
    pub now: SimTime,
    /// Events delivered so far.
    pub delivered: u64,
    /// Events still queued (including lazily-canceled ones).
    pub pending: usize,
}

/// Lifetime profile counters for one scheduler: how much work the queue
/// did, independent of what remains in it. All counts are driven purely
/// by the (deterministic) event sequence, so they are byte-identical
/// across same-seed runs — the engine self-profiler surfaces them as
/// `prof/sched/…` registry counters. Updating them is a handful of
/// integer ops per call, cheap enough to stay always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedProf {
    /// `schedule` calls accepted into the queue.
    pub scheduled: u64,
    /// `schedule` calls dropped for lying beyond the horizon.
    pub dropped_horizon: u64,
    /// Successful `cancel` calls (fresh tombstones).
    pub canceled: u64,
    /// Tombstone compaction passes actually run.
    pub compactions: u64,
    /// Queue-depth high-water mark (entries physically queued, heap and
    /// lanes together).
    pub max_pending: u64,
}

/// Where the next event sits: the heap top or the front of lane `i`.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// Deterministic discrete-event scheduler. See the crate docs for the
/// event-loop pattern.
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    /// One FIFO per distinct delay given to `schedule_in_lane`, each in
    /// `(at, seq)` order.
    lanes: Vec<(SimDuration, VecDeque<Entry<E>>)>,
    /// Entries in the heap and lanes together, tombstones included.
    queued: usize,
    now: SimTime,
    seq: u64,
    canceled: BTreeSet<u64>,
    /// Tombstones believed to sit in the queue. Exact for cancels of
    /// genuinely pending events; a cancel of an already-fired key
    /// overcounts until the next compaction recomputes the truth.
    tombstones: usize,
    delivered: u64,
    horizon: SimTime,
    prof: SchedProf,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// New scheduler at time zero with no horizon.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            queued: 0,
            now: SimTime::ZERO,
            seq: 0,
            canceled: BTreeSet::new(),
            tombstones: 0,
            delivered: 0,
            horizon: SimTime::MAX,
            prof: SchedProf::default(),
        }
    }

    /// New scheduler that silently drops events scheduled after `horizon`
    /// and stops popping once `now` would pass it. This bounds experiment
    /// runtime without every model having to check the clock.
    pub fn with_horizon(horizon: SimTime) -> Self {
        let mut s = Self::new();
        s.horizon = horizon;
        s
    }

    /// The current simulation instant: the timestamp of the last event
    /// popped (time zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending (including lazily-canceled ones).
    pub fn pending(&self) -> usize {
        self.len()
    }

    /// Alias for [`Scheduler::pending`]: queue length including
    /// tombstones — what the heap and lanes physically hold.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Number of events that will actually fire: the queue length minus
    /// known tombstones. Exact whenever cancels targeted genuinely
    /// pending events (canceling an already-fired key overcounts the
    /// tombstone estimate until the next compaction corrects it).
    pub fn live_len(&self) -> usize {
        self.len().saturating_sub(self.tombstones)
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot clock, delivery count, and queue depth in one call —
    /// the hook the observability plane stamps journal lines with.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            now: self.now,
            delivered: self.delivered,
            pending: self.len(),
        }
    }

    /// Schedule `payload` at absolute instant `at`. Scheduling in the past
    /// clamps to `now` (delivered next, after already-queued events at
    /// `now`). Events beyond the horizon are dropped and a dead key is
    /// returned.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventKey {
        self.push(at.max(self.now), payload, None)
    }

    /// Queue `payload` at `at` (not before `now`), in the heap or in the
    /// lane kept for `lane`.
    fn push(&mut self, at: SimTime, payload: E, lane: Option<SimDuration>) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        if at > self.horizon {
            // Dead key: never inserted, can never fire; cancel is a no-op.
            self.prof.dropped_horizon += 1;
            return EventKey(seq);
        }
        let entry = Entry { at, seq, payload };
        match lane {
            None => self.heap.push(entry),
            Some(delay) => match self.lanes.iter_mut().find(|(d, _)| *d == delay) {
                Some((_, q)) => {
                    // A ring buffer touches all of its capacity as it
                    // rotates, where a heap touches only its high-water
                    // length, so grow by an eighth instead of doubling.
                    if q.len() == q.capacity() {
                        q.reserve_exact(q.len() / 8 + 1);
                    }
                    q.push_back(entry)
                }
                None => self.lanes.push((delay, VecDeque::from([entry]))),
            },
        }
        self.queued += 1;
        self.prof.scheduled += 1;
        self.prof.max_pending = self.prof.max_pending.max(self.queued as u64);
        EventKey(seq)
    }

    /// Schedule `payload` after `delay` relative to `now`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventKey {
        self.schedule(self.now + delay, payload)
    }

    /// [`Scheduler::schedule_in`] through the FIFO lane kept for `delay`
    /// (created on first use): an O(1) append instead of a heap push, for
    /// events that recur with a fixed delay. Keys, delivery order,
    /// horizon drops and counters are exactly those of `schedule_in`.
    pub fn schedule_in_lane(&mut self, delay: SimDuration, payload: E) -> EventKey {
        self.push(self.now + delay, payload, Some(delay))
    }

    /// Schedule `payload` to fire immediately (at `now`, after events
    /// already queued for `now`).
    pub fn schedule_now(&mut self, payload: E) -> EventKey {
        self.schedule(self.now, payload)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event had
    /// not yet fired or been canceled. Amortized O(1); removal happens
    /// lazily on pop, with a compaction pass once tombstones exceed half
    /// the heap (so canceled events never dominate memory — or a
    /// checkpoint's serialized queue).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.0 >= self.seq {
            return false;
        }
        let fresh = self.canceled.insert(key.0);
        if fresh {
            self.tombstones += 1;
            self.prof.canceled += 1;
            self.maybe_compact();
        }
        fresh
    }

    /// Rebuild the heap and lanes without tombstoned entries once they
    /// exceed half of the queue. Only keys actually found queued leave
    /// the canceled set: a key canceled *after* firing stays recorded,
    /// preserving the double-cancel contract (`cancel` returns `false`
    /// the second time).
    fn maybe_compact(&mut self) {
        if self.tombstones * 2 <= self.len() {
            return;
        }
        self.prof.compactions += 1;
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut live = Vec::with_capacity(entries.len());
        for e in entries {
            if !self.canceled.remove(&e.seq) {
                live.push(e);
            }
        }
        self.heap = BinaryHeap::from(live);
        for (_, q) in &mut self.lanes {
            q.retain(|e| !self.canceled.remove(&e.seq));
        }
        self.queued = self.heap.len() + self.lanes.iter().map(|(_, q)| q.len()).sum::<usize>();
        // Whatever remains in `canceled` refers to already-fired keys —
        // not tombstones in the heap.
        self.tombstones = 0;
    }

    /// Where the earliest queued entry sits, tombstones included, with
    /// its time and sequence number.
    fn head(&self) -> Option<(Head, SimTime, u64)> {
        let mut best = self.heap.peek().map(|e| (Head::Heap, e.at, e.seq));
        for (i, (_, q)) in self.lanes.iter().enumerate() {
            if let Some(e) = q.front() {
                if best.is_none_or(|(_, at, seq)| (e.at, e.seq) < (at, seq)) {
                    best = Some((Head::Lane(i), e.at, e.seq));
                }
            }
        }
        best
    }

    fn entry(&self, head: Head) -> &Entry<E> {
        match head {
            Head::Heap => self.heap.peek(),
            Head::Lane(i) => self.lanes[i].1.front(),
        }
        .expect("head entry present")
    }

    fn take(&mut self, head: Head) -> Entry<E> {
        self.queued -= 1;
        match head {
            Head::Heap => self.heap.pop(),
            Head::Lane(i) => self.lanes[i].1.pop_front(),
        }
        .expect("head entry present")
    }

    /// Timestamp of the next event that will fire, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_canceled().map(|(_, at)| at)
    }

    /// The next event that *will* fire — `(timestamp, &payload)` —
    /// without popping it or advancing the clock. Skips tombstones and
    /// respects the horizon exactly like [`Scheduler::pop`], so a
    /// non-`None` peek is a promise about the next pop. This is the
    /// hook decision-point planners use to inspect the upcoming event
    /// before the engine commits to it.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        let (h, at) = self.skip_canceled()?;
        (at <= self.horizon).then_some((at, &self.entry(h).payload))
    }

    /// Pop the next event, advancing `now` to its timestamp. Returns `None`
    /// when the queue is empty or the next event lies beyond the horizon (in
    /// which case `now` advances to the horizon).
    pub fn pop(&mut self) -> Option<Fired<E>> {
        match self.skip_canceled() {
            None => {
                // Queue drained: the simulation has run to the end of time.
                if self.horizon != SimTime::MAX {
                    self.now = self.horizon;
                }
                None
            }
            Some((_, at)) if at > self.horizon => {
                self.now = self.horizon;
                None
            }
            Some((h, _)) => {
                let e = self.take(h);
                self.now = e.at;
                self.delivered += 1;
                Some(Fired {
                    at: e.at,
                    payload: e.payload,
                    key: EventKey(e.seq),
                })
            }
        }
    }

    /// Drop tombstones from the front of the queue; returns where the
    /// next live entry sits, and its time.
    fn skip_canceled(&mut self) -> Option<(Head, SimTime)> {
        loop {
            let (h, at, seq) = self.head()?;
            // No tombstone anywhere while the set is empty: skip the
            // lookup (a model that never cancels never pays for it).
            if self.canceled.is_empty() || !self.canceled.remove(&seq) {
                return Some((h, at));
            }
            self.take(h);
            self.tombstones = self.tombstones.saturating_sub(1);
        }
    }

    /// The lifetime profile counters (see [`SchedProf`]).
    pub fn prof(&self) -> SchedProf {
        self.prof
    }

    /// Overwrite the profile counters — used by checkpoint restore so a
    /// resumed scheduler reports the same lifetime totals a continuous
    /// run would. Separate from [`Scheduler::restore`] to keep that
    /// signature (and older snapshots' decode paths) stable.
    pub fn set_prof(&mut self, prof: SchedProf) {
        self.prof = prof;
    }

    // ----- checkpoint support ----------------------------------------

    /// Export the pending queue in canonical `(at, seq)` order, each
    /// entry as `(at, seq, &payload)`. Tombstoned entries are included —
    /// a snapshot must reproduce the queue *exactly* so a restored run
    /// compacts at the same instants a continuous one does. The sort
    /// makes the serialization canonical: two schedulers holding the
    /// same logical queue export identical sequences regardless of heap
    /// layout history, and whether an entry sits in the heap or a lane.
    pub fn export_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut v: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .chain(self.lanes.iter().flat_map(|(_, q)| q))
            .map(|e| (e.at, e.seq, &e.payload))
            .collect();
        v.sort_by_key(|&(at, seq, _)| (at, seq));
        v
    }

    /// Export the tombstone set (canceled keys not yet lazily removed,
    /// plus keys canceled after firing).
    pub fn export_canceled(&self) -> Vec<u64> {
        self.canceled.iter().copied().collect()
    }

    /// The next sequence number to be assigned (exported so a restored
    /// scheduler hands out the same keys a continuous one would).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Rebuild a scheduler from exported state. `entries` are `(at, seq,
    /// payload)` triples in the canonical order [`Scheduler::export_entries`]
    /// produces; `canceled` is the exported tombstone set. The tombstone
    /// count is recomputed exactly (every canceled key matched against
    /// the entries), so compaction behavior after restore is identical
    /// to the continuous run's. Every entry goes back into the heap; the
    /// lanes refill as new events are scheduled.
    pub fn restore(
        now: SimTime,
        seq: u64,
        delivered: u64,
        horizon: SimTime,
        entries: Vec<(SimTime, u64, E)>,
        canceled: Vec<u64>,
    ) -> Self {
        let canceled: BTreeSet<u64> = canceled.into_iter().collect();
        let tombstones = entries
            .iter()
            .filter(|(_, s, _)| canceled.contains(s))
            .count();
        let queued = entries.len();
        let heap = BinaryHeap::from(
            entries
                .into_iter()
                .map(|(at, seq, payload)| Entry { at, seq, payload })
                .collect::<Vec<_>>(),
        );
        Scheduler {
            heap,
            lanes: Vec::new(),
            queued,
            now,
            seq,
            canceled,
            tombstones,
            delivered,
            horizon,
            // Lifetime counters are not part of this signature; callers
            // that persist them reinstate via `set_prof`.
            prof: SchedProf::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(30), "c");
        s.schedule(SimTime::from_micros(10), "a");
        s.schedule(SimTime::from_micros(20), "b");
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_micros(5), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(42), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_micros(42));
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(100), "first");
        s.pop();
        s.schedule(SimTime::from_micros(5), "late");
        let f = s.pop().unwrap();
        assert_eq!(f.at, SimTime::from_micros(100));
        assert_eq!(f.payload, "late");
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let k1 = s.schedule(SimTime::from_micros(10), 1);
        let _k2 = s.schedule(SimTime::from_micros(20), 2);
        assert!(s.cancel(k1));
        assert!(!s.cancel(k1), "double-cancel reports false");
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut s = Scheduler::new();
        let k = s.schedule(SimTime::from_micros(1), ());
        s.pop();
        // Firing consumed the entry; cancel of a fired key inserts into the
        // tombstone set but can never suppress anything. It still returns
        // true (the key was valid); a later identical key is impossible
        // because seq is unique.
        assert!(s.cancel(k));
        assert!(s.pop().is_none());
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(100));
        s.schedule(SimTime::from_micros(50), "in");
        s.schedule(SimTime::from_micros(150), "out");
        assert_eq!(s.pop().unwrap().payload, "in");
        assert!(s.pop().is_none());
        assert_eq!(s.now(), SimTime::from_micros(100));
    }

    #[test]
    fn beyond_horizon_schedule_is_dropped() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(10));
        s.schedule(SimTime::from_micros(11), ());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn peek_time_skips_canceled() {
        let mut s = Scheduler::new();
        let k = s.schedule(SimTime::from_micros(5), 1);
        s.schedule(SimTime::from_micros(9), 2);
        s.cancel(k);
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn delivered_counter() {
        let mut s = Scheduler::new();
        for i in 0..5u32 {
            s.schedule(SimTime::from_micros(u64::from(i)), i);
        }
        while s.pop().is_some() {}
        assert_eq!(s.delivered(), 5);
    }

    #[test]
    fn stats_snapshot_tracks_clock_and_queue() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_micros(10), ());
        s.schedule(SimTime::from_micros(20), ());
        assert_eq!(
            s.stats(),
            SchedStats {
                now: SimTime::ZERO,
                delivered: 0,
                pending: 2
            }
        );
        s.pop();
        let st = s.stats();
        assert_eq!(st.now, SimTime::from_micros(10));
        assert_eq!(st.delivered, 1);
        assert_eq!(st.pending, 1);
    }

    #[test]
    fn tombstone_compaction_bounds_the_heap() {
        // Schedule N events, cancel most of them: the heap must shed the
        // tombstones instead of carrying them to the end of the run.
        let mut s = Scheduler::new();
        let keys: Vec<EventKey> = (0..100u64)
            .map(|i| s.schedule(SimTime::from_micros(1000 + i), i))
            .collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s.live_len(), 100);
        for k in &keys[..80] {
            assert!(s.cancel(*k));
        }
        // Compaction keeps the physical queue within 2× the live count:
        // tombstones never outnumber live entries.
        assert_eq!(s.live_len(), 20);
        assert!(
            s.len() <= 2 * s.live_len(),
            "heap {} > 2× live {} — tombstones not compacted",
            s.len(),
            s.live_len()
        );
        // Delivery is unaffected: exactly the uncanceled payloads, in order.
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, (80..100).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_cancel_semantics() {
        let mut s = Scheduler::new();
        let fired = s.schedule(SimTime::from_micros(1), "f");
        s.pop();
        // Cancel of a fired key still reports true once, false after —
        // even though the compaction right after it runs on an empty heap.
        assert!(s.cancel(fired));
        assert!(!s.cancel(fired));
        // And live cancels still dedupe across a compaction boundary.
        let a = s.schedule(SimTime::from_micros(10), "a");
        let _b = s.schedule(SimTime::from_micros(20), "b");
        assert!(s.cancel(a));
        assert!(!s.cancel(a));
        assert_eq!(s.live_len(), 1);
    }

    #[test]
    fn export_restore_round_trip_preserves_delivery() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(10_000));
        for i in 0..20u64 {
            s.schedule(SimTime::from_micros(100 + 7 * i), i);
        }
        let k = s.schedule(SimTime::from_micros(150), 99);
        s.cancel(k);
        // Advance partway.
        for _ in 0..5 {
            s.pop();
        }
        // Snapshot.
        let entries: Vec<(SimTime, u64, u64)> = s
            .export_entries()
            .into_iter()
            .map(|(at, seq, p)| (at, seq, *p))
            .collect();
        // Canonical order is sorted (at, seq).
        let mut sorted = entries.clone();
        sorted.sort_by_key(|&(at, seq, _)| (at, seq));
        assert_eq!(entries, sorted);
        let canceled = s.export_canceled();
        let mut restored = Scheduler::restore(
            s.now(),
            s.next_seq(),
            s.delivered(),
            s.horizon(),
            entries,
            canceled,
        );
        // Both deliver identical (time, payload, key) sequences from here.
        loop {
            let a = s.pop();
            let b = restored.pop();
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.at, x.payload, x.key), (y.at, y.payload, y.key));
                }
                (x, y) => panic!("length mismatch: {:?} vs {:?}", x.is_some(), y.is_some()),
            }
        }
        assert_eq!(s.now(), restored.now());
        assert_eq!(s.delivered(), restored.delivered());
    }

    #[test]
    fn prof_counters_track_queue_work() {
        let mut s = Scheduler::with_horizon(SimTime::from_micros(1_000));
        assert_eq!(s.prof(), SchedProf::default());
        let keys: Vec<EventKey> = (0..10u64)
            .map(|i| s.schedule(SimTime::from_micros(10 + i), i))
            .collect();
        s.schedule(SimTime::from_micros(2_000), 99); // beyond horizon
        assert!(s.cancel(keys[0]));
        // Before any compaction a double-cancel is not a fresh cancel
        // and must not bump the counter.
        assert!(!s.cancel(keys[0]));
        for k in &keys[1..8] {
            assert!(s.cancel(*k));
        }
        while s.pop().is_some() {}
        let p = s.prof();
        assert_eq!(p.scheduled, 10);
        assert_eq!(p.dropped_horizon, 1);
        assert_eq!(p.canceled, 8);
        assert_eq!(p.max_pending, 10);
        assert!(p.compactions >= 1, "mass cancel must trigger compaction");
        // Restore starts the counters fresh; set_prof reinstates them.
        let mut restored: Scheduler<u64> = Scheduler::restore(
            s.now(),
            s.next_seq(),
            s.delivered(),
            s.horizon(),
            vec![],
            vec![],
        );
        assert_eq!(restored.prof(), SchedProf::default());
        restored.set_prof(p);
        assert_eq!(restored.prof(), p);
    }

    #[test]
    fn schedule_now_fires_after_existing_now_events() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::ZERO, "a");
        s.schedule_now("b");
        let got: Vec<_> = std::iter::from_fn(|| s.pop().map(|f| f.payload)).collect();
        assert_eq!(got, vec!["a", "b"]);
    }
}
