//! Spans recorded at layer boundaries, from outside the simulator.
//!
//! A span has a name, a start, an end and a parent. Calls too frequent
//! to keep one span each (millions of executor probes) are folded into
//! a per-parent [`Folded`] sum instead. A span's self time is its
//! duration minus its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval, in ns since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `cluster.simulate_cluster`.
    pub name: &'static str,
    /// Start (ns since epoch).
    pub start_ns: u64,
    /// End (ns since epoch).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Child calls of one span folded into a count and a total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// Index of the span the calls ran inside.
    pub parent: usize,
    /// Layer boundary name, e.g. `sim.gen_stage`.
    pub name: &'static str,
    /// Calls folded.
    pub calls: u64,
    /// Their summed duration (ns).
    pub ns: u64,
}

/// Span collector. Spans stay in memory until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    folded: RefCell<Vec<Folded>>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::default(),
            folded: RefCell::default(),
            counts: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` gets the
    /// new span's index so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end_ns;
        out
    }

    /// Records `calls` folded child calls totalling `ns` under `parent`.
    pub fn fold(&self, parent: usize, name: &'static str, calls: u64, ns: u64) {
        if calls > 0 {
            self.folded.borrow_mut().push(Folded {
                parent,
                name,
                calls,
                ns,
            });
        }
    }

    /// Adds `n` to the work counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counts.borrow_mut().entry(name).or_insert(0) += n;
    }

    /// A work counter (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.borrow().get(name).copied().unwrap_or(0)
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// A copy of every folded record so far.
    #[must_use]
    pub fn folded(&self) -> Vec<Folded> {
        self.folded.borrow().clone()
    }

    /// Writes every span and folded record as JSON lines.
    ///
    /// # Errors
    /// Returns the I/O error of the first failed write.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for f in self.folded.borrow().iter() {
            writeln!(
                out,
                "{{\"folded\":\"{}\",\"parent\":{},\"calls\":{},\"ns\":{}}}",
                f.name, f.parent, f.calls, f.ns
            )?;
        }
        Ok(())
    }
}

/// Self time of a span: its duration minus its child spans' durations
/// minus the `folded_ns` of its folded child calls. Children run one
/// after another inside their parent, so they can never cover more than
/// the parent; `None` when they do, which means the spans are broken.
#[must_use]
pub fn self_time(span_ns: u64, kids_ns: u64, folded_ns: u64) -> Option<u64> {
    span_ns.checked_sub(kids_ns)?.checked_sub(folded_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folded_calls() {
        assert_eq!(self_time(100, 10 + 30, 0), Some(60));
        assert_eq!(self_time(100, 0, 0), Some(100));
        assert_eq!(self_time(100, 10, 30), Some(60));
        assert_eq!(self_time(100, 90, 10), Some(0));
        assert_eq!(self_time(100, 90, 30), None);
        assert_eq!(self_time(100, 101, 0), None);
    }

    #[test]
    fn tracer_nests_and_writes() {
        let t = Tracer::new();
        let cell = t.span("cell", None, |id| {
            t.span("child", Some(id), |_| {
                std::hint::black_box((0..1000u64).sum::<u64>())
            });
            t.fold(id, "probe", 3, 0);
            id
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(cell));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_time(spans[0].ns(), spans[1].ns(), 0).is_some());
        let mut buf = Vec::new();
        t.write(&mut buf).expect("write to a Vec");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"folded\":\"probe\""));
    }
}
