//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer: a name, a start, an end, and the span that was open when it
//! began (its parent). Nothing inside the program is instrumented. A
//! span's self time is its duration minus the durations of its direct
//! children, which nest inside it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One closed or open span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `hdc.encode`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children), ns.
    pub self_ns: u64,
}

/// The recorder: an append-only span list plus the stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(children) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns);
        }
        out
    }

    /// Write every span as `name,start_ns,end_ns,parent` lines (parent
    /// `-1` for roots).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, out: impl std::io::Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        writeln!(w, "name,start_ns,end_ns,parent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            writeln!(w, "{},{},{},{}", s.name, s.start, s.end, parent)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(outer);
        let t = s.totals();
        assert_eq!(t["outer"].count, 1);
        assert_eq!(t["inner"].count, 1);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(s.spans()[1].parent, Some(0));
    }
}
