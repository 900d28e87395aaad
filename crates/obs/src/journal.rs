//! The structured event journal: ring-buffered JSONL, hand-formatted
//! for byte-stable output.
//!
//! Emitters across crates (engine, ticket board, controller, recovery
//! ladder, robot fleet) each hold a [`Journal`] clone. The handle is a
//! shared ring buffer plus the *current simulated time*, which the
//! engine sets once per event dispatch — emitters therefore never need
//! `now` threaded through their signatures.
//!
//! Disabled-mode guarantees (load-bearing for determinism):
//!
//! * [`Journal::emit`] returns immediately — no allocation, no
//!   formatting, no RNG, no shared-state mutation;
//! * field values are restricted to integers, floats, bools, and
//!   `&'static str`, so *call sites* allocate nothing either way.
//!
//! Lines are formatted by hand (not via a serializer) with fields in
//! call-site order, so two same-seed runs produce byte-identical
//! output.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use dcmaint_des::SimTime;

/// A journal field value. `&'static str` only — journal vocabulary is
/// closed (state labels, action labels, outcome labels), which is what
/// keeps emit sites allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum JVal {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float (formatted with Rust's shortest-roundtrip `Display`).
    F(f64),
    /// Static string (labels).
    S(&'static str),
    /// Boolean.
    B(bool),
}

struct Inner {
    now: SimTime,
    cap: usize,
    lines: VecDeque<String>,
    emitted: u64,
    dropped: u64,
}

/// Cheap-to-clone handle on the shared event journal. A default-built
/// handle is disabled and free.
#[derive(Clone, Default)]
pub struct Journal {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Journal(disabled)"),
            Some(i) => {
                let g = i.borrow();
                write!(f, "Journal(lines={}, emitted={})", g.lines.len(), g.emitted)
            }
        }
    }
}

impl Journal {
    /// A disabled journal: every operation is a no-op.
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// An enabled journal with the given ring capacity (min 1).
    pub fn enabled(capacity: usize) -> Self {
        Journal {
            inner: Some(Rc::new(RefCell::new(Inner {
                now: SimTime::ZERO,
                cap: capacity.max(1),
                lines: VecDeque::new(),
                emitted: 0,
                dropped: 0,
            }))),
        }
    }

    /// Whether emits are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Set the simulated clock stamped onto subsequent emits. The
    /// engine calls this once per event dispatch.
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now = now;
        }
    }

    /// Append one event line: `{"t":<µs>,"ev":"<ev>",...fields}`.
    /// No-op (no allocation, no formatting) when disabled.
    pub fn emit(&self, ev: &'static str, fields: &[(&'static str, JVal)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut g = inner.borrow_mut();
        let mut line = String::with_capacity(64);
        let _ = write!(line, "{{\"t\":{},\"ev\":\"{}\"", g.now.as_micros(), ev);
        for (k, v) in fields {
            match v {
                JVal::U(x) => {
                    let _ = write!(line, ",\"{k}\":{x}");
                }
                JVal::I(x) => {
                    let _ = write!(line, ",\"{k}\":{x}");
                }
                JVal::F(x) => {
                    let _ = write!(line, ",\"{k}\":{x}");
                }
                JVal::S(s) => {
                    let _ = write!(line, ",\"{k}\":\"{s}\"");
                }
                JVal::B(b) => {
                    let _ = write!(line, ",\"{k}\":{b}");
                }
            }
        }
        line.push('}');
        if g.lines.len() == g.cap {
            g.lines.pop_front();
            g.dropped += 1;
        }
        g.emitted += 1;
        g.lines.push_back(line);
    }

    /// Append the journal's state to a checkpoint (including the ring
    /// contents, so a restored run's dump is byte-identical to an
    /// uninterrupted one).
    pub fn save(&self, enc: &mut dcmaint_ckpt::Enc) {
        match &self.inner {
            None => enc.bool(false),
            Some(i) => {
                enc.bool(true);
                let g = i.borrow();
                enc.u64(g.now.as_micros());
                enc.usize(g.cap);
                enc.u64(g.emitted);
                enc.u64(g.dropped);
                enc.usize(g.lines.len());
                for line in &g.lines {
                    enc.str(line);
                }
            }
        }
    }

    /// Restore checkpointed state *into this handle's shared ring*, so
    /// every subsystem clone observes it. The handle's enabled-ness must
    /// match the snapshot's. Inverse of [`Journal::save`].
    pub fn restore(&self, dec: &mut dcmaint_ckpt::Dec) -> Result<(), dcmaint_ckpt::CkptError> {
        let enabled = dec.bool()?;
        match (&self.inner, enabled) {
            (None, false) => Ok(()),
            (Some(i), true) => {
                let mut g = i.borrow_mut();
                g.now = SimTime::from_micros(dec.u64()?);
                g.cap = dec.usize()?.max(1);
                g.emitted = dec.u64()?;
                g.dropped = dec.u64()?;
                let n = dec.usize()?;
                g.lines.clear();
                for _ in 0..n {
                    g.lines.push_back(dec.str()?.to_owned());
                }
                Ok(())
            }
            _ => Err(dcmaint_ckpt::CkptError::BadTag(
                "journal-enabled",
                u64::from(enabled),
            )),
        }
    }

    /// Live tail for streaming consumers: the event lines emitted
    /// *after* the first `seen` emits that are still in the ring,
    /// together with the new total emitted count (the caller's next
    /// `seen`) and how many unseen lines had already been evicted from
    /// the ring before this read (`missed`).
    ///
    /// This is the `selfmaint serve` stream tap: the daemon's worker
    /// calls it between `run_until` segments and fans the fresh lines
    /// out to subscribers. Unlike [`Journal::lines`] it emits no
    /// `journal-meta` header — tails are meant to be concatenated.
    pub fn tail(&self, seen: u64) -> (Vec<String>, u64, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0, 0);
        };
        let g = inner.borrow();
        let unseen = g.emitted.saturating_sub(seen);
        let avail = (g.lines.len() as u64).min(unseen);
        let missed = unseen - avail;
        let start = g.lines.len() - avail as usize;
        (
            g.lines.iter().skip(start).cloned().collect(),
            g.emitted,
            missed,
        )
    }

    /// `(emitted, dropped)` counts so far.
    pub fn counts(&self) -> (u64, u64) {
        match &self.inner {
            None => (0, 0),
            Some(i) => {
                let g = i.borrow();
                (g.emitted, g.dropped)
            }
        }
    }

    /// Snapshot the journal: a `journal-meta` header line followed by
    /// the buffered event lines in emission order. Empty when disabled.
    pub fn lines(&self) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let g = inner.borrow();
        let mut out = Vec::with_capacity(g.lines.len() + 1);
        out.push(format!(
            "{{\"ev\":\"journal-meta\",\"emitted\":{},\"dropped\":{}}}",
            g.emitted, g.dropped
        ));
        out.extend(g.lines.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmaint_des::SimDuration;

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        j.set_now(SimTime::ZERO + SimDuration::from_secs(5));
        j.emit("x", &[("a", JVal::U(1))]);
        assert!(!j.is_enabled());
        assert_eq!(j.counts(), (0, 0));
        assert!(j.lines().is_empty());
    }

    #[test]
    fn emits_are_stamped_and_formatted_stably() {
        let j = Journal::enabled(16);
        j.set_now(SimTime::from_micros(1_500_000));
        j.emit(
            "ticket-open",
            &[
                ("ticket", JVal::U(3)),
                ("link", JVal::U(42)),
                ("trigger", JVal::S("down")),
                ("loss", JVal::F(0.25)),
                ("reactive", JVal::B(true)),
            ],
        );
        let lines = j.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ev\":\"journal-meta\",\"emitted\":1,\"dropped\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":1500000,\"ev\":\"ticket-open\",\"ticket\":3,\"link\":42,\
             \"trigger\":\"down\",\"loss\":0.25,\"reactive\":true}"
        );
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let j = Journal::enabled(3);
        for i in 0..5u64 {
            j.set_now(SimTime::from_micros(i));
            j.emit("tick", &[("i", JVal::U(i))]);
        }
        assert_eq!(j.counts(), (5, 2));
        let lines = j.lines();
        assert_eq!(lines.len(), 4); // meta + 3 buffered
        assert!(lines[1].contains("\"i\":2"));
        assert!(lines[3].contains("\"i\":4"));
    }

    #[test]
    fn tail_returns_only_fresh_lines() {
        let j = Journal::enabled(8);
        for i in 0..3u64 {
            j.set_now(SimTime::from_micros(i));
            j.emit("tick", &[("i", JVal::U(i))]);
        }
        let (lines, seen, missed) = j.tail(0);
        assert_eq!(lines.len(), 3);
        assert_eq!((seen, missed), (3, 0));
        // Nothing new: empty tail, cursor unchanged.
        let (lines, seen2, missed) = j.tail(seen);
        assert!(lines.is_empty());
        assert_eq!((seen2, missed), (3, 0));
        // Two more emits: the tail picks up exactly those.
        for i in 3..5u64 {
            j.emit("tick", &[("i", JVal::U(i))]);
        }
        let (lines, seen3, missed) = j.tail(seen2);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"i\":3"));
        assert_eq!((seen3, missed), (5, 0));
    }

    #[test]
    fn tail_reports_ring_evictions_as_missed() {
        let j = Journal::enabled(2);
        for i in 0..6u64 {
            j.emit("tick", &[("i", JVal::U(i))]);
        }
        // Seen 1 of 6; ring holds the last 2, so 3 unseen lines are gone.
        let (lines, seen, missed) = j.tail(1);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"i\":4"));
        assert_eq!((seen, missed), (6, 3));
        // A disabled journal tails to nothing.
        let d = Journal::disabled();
        assert_eq!(d.tail(0), (Vec::new(), 0, 0));
    }

    #[test]
    fn clones_share_the_ring() {
        let j = Journal::enabled(8);
        let k = j.clone();
        j.set_now(SimTime::from_micros(7));
        k.emit("from-clone", &[]);
        assert_eq!(j.counts(), (1, 0));
        assert!(j.lines()[1].starts_with("{\"t\":7,"));
    }
}
