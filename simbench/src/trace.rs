//! Spans recorded from the benchmark's own code, around its calls into
//! the simulator's layers.
//!
//! Spans of the same name under the same parent are folded into one
//! node (count, total time, time covered by children), so a traced run
//! of a few hundred thousand `step_event` calls stays a few kilobytes.
//! A node's self time is its total minus its children's total.

use std::collections::BTreeMap;
use std::time::Instant;

use dcmaint_obs::WallProfile;

/// Host clock. Reads go through `WallProfile`, the one place the
/// workspace reads the wall clock.
#[derive(Debug)]
pub struct Clock(WallProfile);

impl Clock {
    /// A running clock.
    pub fn new() -> Clock {
        Clock(WallProfile::enabled())
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        self.0
            .start()
            .expect("an enabled WallProfile always reads the clock")
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// One folded span node, as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// `/`-joined names from the root.
    pub path: String,
    /// Spans folded into this node.
    pub count: u64,
    /// Total span time.
    pub total_ns: u64,
    /// Total minus the children's total.
    pub self_ns: u64,
}

/// In-memory span tree.
#[derive(Debug, Default)]
pub struct Tracer {
    clock: Clock,
    nodes: Vec<Node>,
    index: BTreeMap<(Option<usize>, &'static str), usize>,
    stack: Vec<(usize, Instant)>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// The tracer's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn node(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map(|&(n, _)| n);
        let next = self.nodes.len();
        let id = *self.index.entry((parent, name)).or_insert(next);
        if id == next {
            self.nodes.push(Node {
                name,
                parent,
                count: 0,
                total_ns: 0,
                child_ns: 0,
            });
        }
        id
    }

    fn close(&mut self, id: usize, ns: u64) {
        let node = &mut self.nodes[id];
        node.count += 1;
        node.total_ns += ns;
        if let Some(p) = node.parent {
            self.nodes[p].child_ns += ns;
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.node(name);
        let t = self.clock.now();
        self.stack.push((id, t));
    }

    /// Close the innermost open span; returns its length in ns.
    pub fn exit(&mut self) -> u64 {
        let (id, t) = self.stack.pop().expect("exit without a matching enter");
        let ns = t.elapsed().as_nanos() as u64;
        self.close(id, ns);
        ns
    }

    /// Open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Drop spans left open by a call that panicked, back to `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }

    /// Record a finished child span of the innermost open span, started
    /// at `start` and ending now; returns its length in ns. For calls
    /// whose span name is known only once they return (`step_event`
    /// reports the event kind it dispatched).
    pub fn record(&mut self, name: &'static str, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        let id = self.node(name);
        self.close(id, ns);
        ns
    }

    /// Every node, parents before children.
    pub fn rows(&self) -> Vec<SpanRow> {
        (0..self.nodes.len())
            .map(|i| {
                let n = &self.nodes[i];
                SpanRow {
                    path: self.path(i),
                    count: n.count,
                    total_ns: n.total_ns,
                    self_ns: n.total_ns.saturating_sub(n.child_ns),
                }
            })
            .collect()
    }

    /// The node at `path` (`/`-joined names), if any span was recorded
    /// there.
    pub fn get(&self, path: &str) -> Option<SpanRow> {
        self.rows().into_iter().find(|r| r.path == path)
    }

    fn path(&self, mut i: usize) -> String {
        let mut names = vec![self.nodes[i].name];
        while let Some(p) = self.nodes[i].parent {
            names.push(self.nodes[p].name);
            i = p;
        }
        names.reverse();
        names.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children() {
        let mut t = Tracer::new();
        t.enter("run");
        for _ in 0..3 {
            let s = t.clock().now();
            std::hint::black_box((0..1000u64).sum::<u64>());
            t.record("ev.poll", s);
        }
        t.enter("probe");
        t.exit();
        t.exit();
        let run = t.get("run").expect("run span");
        let poll = t.get("run/ev.poll").expect("poll span");
        let probe = t.get("run/probe").expect("probe span");
        assert_eq!(run.count, 1);
        assert_eq!(poll.count, 3);
        assert_eq!(poll.self_ns, poll.total_ns);
        assert_eq!(run.self_ns, run.total_ns - poll.total_ns - probe.total_ns);
    }
}
