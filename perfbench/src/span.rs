//! In-memory spans recorded around the calls the benchmark makes into each
//! layer.
//!
//! A span has a name (the layer call), an op id shared by every span of one
//! job, cycle, call or chunk, a parent, and start/end times relative to the
//! run's epoch. Calls too fine to record one by one (a rendezvous `send`
//! inside a process thread) are folded into one *aggregate* span per
//! thread: it covers the thread's lifetime and carries the summed busy time
//! and call count. A layer's self time is its busy time minus its
//! children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `store.recover`.
    pub name: &'static str,
    /// Shared by the spans of one job, cycle, call or chunk.
    pub op: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The thread that recorded it.
    pub thread: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Time spent inside the call(s): `end - start` for a plain span, the
    /// summed durations for an aggregate.
    pub busy_ns: u64,
    /// Calls covered: 1 for a plain span.
    pub count: u64,
}

/// Index returned by [`SpanLog::begin`] when tracing is off.
pub const NO_SPAN: usize = usize::MAX;

/// A per-thread span log; merged into one log with [`SpanLog::absorb`].
#[derive(Debug, Clone)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for one thread; records nothing unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Self {
        SpanLog {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A log for another thread sharing this one's epoch and switch.
    pub fn for_thread(&self, thread: &'static str) -> SpanLog {
        SpanLog::new(self.enabled, self.epoch, thread)
    }

    fn since(&self, t: Instant) -> u64 {
        crate::stats::ns(t.saturating_duration_since(self.epoch))
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.since(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: parent.filter(|&p| p != NO_SPAN),
            thread: self.thread,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, idx: usize) {
        if idx == NO_SPAN {
            return;
        }
        let now = self.since(Instant::now());
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.busy_ns = now.saturating_sub(span.start_ns);
    }

    /// Records an aggregate span: `count` calls totalling `busy_ns`, all
    /// between `start` and `end`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
        busy_ns: u64,
        count: u64,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            op,
            parent: parent.filter(|&p| p != NO_SPAN),
            thread: self.thread,
            start_ns: self.since(start),
            end_ns: self.since(end),
            busy_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Appends another log's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy time (ns) and call count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(b, c), s| (b + s.busy_ns, c + s.count))
    }

    /// Self time (ns) of each span: its busy time minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_busy)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Writes the spans, one JSON object per line, with their self times.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"thread\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"self_ns\": {self_ns}, \"count\": {}}}",
                s.name, s.op, s.thread, s.start_ns, s.end_ns, s.busy_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases() {
        let epoch = Instant::now();
        let t = |ms: u64| epoch + std::time::Duration::from_millis(ms);
        let mut log = SpanLog::new(true, epoch, "main");
        let root = log.aggregate("job", 1, None, (t(0), t(10)), 10_000_000, 1);
        log.aggregate("parse", 1, Some(root), (t(0), t(3)), 3_000_000, 1);
        let mut other = log.for_thread("worker");
        let inner = other.aggregate("send", 1, None, (t(3), t(7)), 2_000_000, 40);
        other.aggregate("leaf", 1, Some(inner), (t(3), t(4)), 500_000, 1);
        log.absorb(other);
        assert_eq!(log.spans()[3].parent, Some(2));
        assert_eq!(log.spans()[2].parent, None);
        assert_eq!(
            log.self_times(),
            vec![7_000_000, 3_000_000, 1_500_000, 500_000]
        );
        assert_eq!(log.total("send"), (2_000_000, 40));
        let mut off = SpanLog::new(false, epoch, "main");
        assert_eq!(off.begin("x", 0, None), NO_SPAN);
        off.end(NO_SPAN);
        assert!(off.spans().is_empty());
    }
}
