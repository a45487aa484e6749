//! Streaming trace ingestion: iterate the events of a JSON trace and build
//! the *sparse* message poset without ever materializing the whole
//! computation.
//!
//! [`json`](crate::json) parses a trace by loading the full text into a
//! `serde_json` value tree and replaying it through [`Builder`] — three
//! resident copies of the computation before stamping even starts. For the
//! offline pipeline at millions of messages that is the first wall. This
//! module replaces it with
//!
//! * [`JsonEventReader`] — a hand-rolled incremental pull parser for the
//!   same schema (`{"processes": N, "events": [...]}`) that holds O(1)
//!   state per event and yields [`StreamEvent`]s one at a time, and
//! * [`SparsePosetAccumulator`] — a fold over those events keeping only
//!   O(N) live state (the last message seen per process) while emitting the
//!   generating edges and per-sender chains that
//!   [`SparsePoset`] consumes.
//!
//! The two compose as [`sparse_poset_from_json`]; for computations already
//! in memory, [`sparse_message_poset`] runs the same accumulator over
//! [`SyncComputation::messages`].

use std::fmt;
use std::io::BufRead;

use synctime_poset::{PosetError, SparsePoset};

use crate::computation::{ProcessId, SyncComputation};
use crate::TraceError;

/// One event pulled from a trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// A rendezvous message from `sender` to `receiver`.
    Message {
        /// The sending process.
        sender: ProcessId,
        /// The receiving process.
        receiver: ProcessId,
    },
    /// An internal event on a process (no effect on the message poset).
    Internal(ProcessId),
}

/// Errors from streaming trace ingestion.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The text deviates from the trace schema, with a byte offset.
    Malformed {
        /// Approximate byte offset of the problem.
        offset: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// An event is structurally invalid for the declared process count.
    Invalid {
        /// Index into the events array.
        event: usize,
        /// The underlying error.
        source: TraceError,
    },
    /// The event stream does not generate a valid poset / chain family
    /// (cannot happen for events validated against `processes`, but the
    /// accumulator surfaces it rather than panicking).
    Poset(PosetError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "trace stream: {e}"),
            StreamError::Malformed { offset, expected } => {
                write!(f, "bad trace JSON near byte {offset}: expected {expected}")
            }
            StreamError::Invalid { event, source } => write!(f, "event {event}: {source}"),
            StreamError::Poset(e) => write!(f, "accumulated events: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Invalid { source, .. } => Some(source),
            StreamError::Poset(e) => Some(e),
            StreamError::Malformed { .. } => None,
        }
    }
}

/// Incremental pull parser for the JSON trace schema.
///
/// Reads `{"processes": N, "events": [e, e, ...]}` (the format written by
/// [`json::to_json_string`](crate::json::to_json_string), which emits
/// `processes` before `events`) from any [`BufRead`], holding only the
/// current event in memory. Iterate it to drain the events:
///
/// ```
/// use synctime_trace::stream::{JsonEventReader, StreamEvent};
///
/// let text = r#"{"processes": 3, "events": [
///     {"message": [0, 1]}, {"internal": 2}, {"message": [1, 2]}
/// ]}"#;
/// let mut r = JsonEventReader::new(text.as_bytes())?;
/// assert_eq!(r.processes(), 3);
/// let events: Vec<_> = r.by_ref().collect::<Result<_, _>>()?;
/// assert_eq!(events[1], StreamEvent::Internal(2));
/// # Ok::<(), synctime_trace::stream::StreamError>(())
/// ```
pub struct JsonEventReader<R: BufRead> {
    reader: R,
    processes: usize,
    offset: usize,
    /// Set once the closing `]` of the events array was consumed.
    done: bool,
    /// Events yielded so far (for error indices).
    yielded: usize,
}

impl<R: BufRead> JsonEventReader<R> {
    /// Parses the header up to the opening `[` of the events array.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] or [`StreamError::Malformed`]; the schema
    /// requires the `processes` key before `events`.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut r = JsonEventReader {
            reader,
            processes: 0,
            offset: 0,
            done: false,
            yielded: 0,
        };
        r.expect_byte(b'{', "'{'")?;
        r.expect_key("processes")?;
        r.processes = r.read_usize()?;
        r.expect_byte(b',', "','")?;
        r.expect_key("events")?;
        r.expect_byte(b'[', "'['")?;
        Ok(r)
    }

    /// The declared process count.
    pub fn processes(&self) -> usize {
        self.processes
    }

    fn malformed<T>(&self, expected: &'static str) -> Result<T, StreamError> {
        Err(StreamError::Malformed {
            offset: self.offset,
            expected,
        })
    }

    /// Next byte without consuming it, straight from the reader's buffer;
    /// `None` at EOF.
    fn peek_byte(&mut self) -> Result<Option<u8>, StreamError> {
        loop {
            return match self.reader.fill_buf() {
                Ok(buf) => Ok(buf.first().copied()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => Err(StreamError::Io(e)),
            };
        }
    }

    /// Consumes the byte [`peek_byte`](Self::peek_byte) just returned.
    fn bump(&mut self) {
        self.reader.consume(1);
        self.offset += 1;
    }

    /// Next byte, counting offsets; `None` at EOF.
    fn next_byte(&mut self) -> Result<Option<u8>, StreamError> {
        let b = self.peek_byte()?;
        if b.is_some() {
            self.bump();
        }
        Ok(b)
    }

    /// Next byte that is not JSON whitespace.
    fn next_token_byte(&mut self) -> Result<Option<u8>, StreamError> {
        loop {
            match self.next_byte()? {
                Some(b' ' | b'\t' | b'\n' | b'\r') => continue,
                other => return Ok(other),
            }
        }
    }

    fn expect_byte(&mut self, want: u8, expected: &'static str) -> Result<(), StreamError> {
        match self.next_token_byte()? {
            Some(b) if b == want => Ok(()),
            _ => self.malformed(expected),
        }
    }

    /// A quoted key (trace keys contain no escapes), compared in place:
    /// the index of the candidate it equals, if any.
    fn read_key(&mut self, candidates: &[&str]) -> Result<Option<usize>, StreamError> {
        self.expect_byte(b'"', "'\"'")?;
        // Bit `i` stays set while the key is a prefix of `candidates[i]`.
        let mut alive = u32::MAX;
        let mut len = 0;
        loop {
            match self.next_byte()? {
                Some(b'"') => {
                    return Ok((0..candidates.len())
                        .find(|&i| alive & (1 << i) != 0 && candidates[i].len() == len))
                }
                Some(b'\\') => return self.malformed("a key without escapes"),
                Some(b) => {
                    for (i, key) in candidates.iter().enumerate() {
                        if key.as_bytes().get(len) != Some(&b) {
                            alive &= !(1 << i);
                        }
                    }
                    len += 1;
                }
                None => return self.malformed("a closing '\"'"),
            }
        }
    }

    fn expect_key(&mut self, want: &'static str) -> Result<(), StreamError> {
        if self.read_key(&[want])?.is_none() {
            return self.malformed(want);
        }
        self.expect_byte(b':', "':'")
    }

    /// A non-negative integer.
    fn read_usize(&mut self) -> Result<usize, StreamError> {
        let first = match self.next_token_byte()? {
            Some(b @ b'0'..=b'9') => b,
            _ => return self.malformed("a digit"),
        };
        let mut value = (first - b'0') as usize;
        loop {
            match self.peek_byte()? {
                Some(b @ b'0'..=b'9') => {
                    self.bump();
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add((b - b'0') as usize))
                        .ok_or(StreamError::Malformed {
                            offset: self.offset,
                            expected: "an integer in range",
                        })?;
                }
                _ => return Ok(value),
            }
        }
    }

    /// One event object, or `None` at the array's closing `]`.
    fn read_event(&mut self) -> Result<Option<StreamEvent>, StreamError> {
        if self.done {
            return Ok(None);
        }
        // Separator handling: before every event but the first, a comma.
        match self.next_token_byte()? {
            Some(b']') => {
                self.done = true;
                return Ok(None);
            }
            Some(b',') if self.yielded > 0 => self.expect_byte(b'{', "'{'")?,
            Some(b'{') if self.yielded == 0 => {}
            _ => {
                return self.malformed(if self.yielded == 0 {
                    "'{' or ']'"
                } else {
                    "',' or ']'"
                })
            }
        }
        let kind = self.read_key(&["message", "internal"])?;
        self.expect_byte(b':', "':'")?;
        let event = match kind {
            Some(0) => {
                self.expect_byte(b'[', "'['")?;
                let sender = self.read_usize()?;
                self.expect_byte(b',', "','")?;
                let receiver = self.read_usize()?;
                self.expect_byte(b']', "']'")?;
                StreamEvent::Message { sender, receiver }
            }
            Some(_) => StreamEvent::Internal(self.read_usize()?),
            None => return self.malformed("\"message\" or \"internal\""),
        };
        self.expect_byte(b'}', "'}'")?;
        self.yielded += 1;
        Ok(Some(event))
    }
}

impl<R: BufRead> Iterator for JsonEventReader<R> {
    type Item = Result<StreamEvent, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_event().transpose()
    }
}

/// Folds a stream of events into the inputs of
/// [`SparsePoset::from_edges_and_chains`]: generating edges (per-process
/// consecutive message pairs) and the per-sender chain partition.
///
/// Live state is O(N) — the id of the last message seen at each process —
/// plus the O(M) output being accumulated; no event history, no endpoint
/// table, no closure.
#[derive(Debug, Clone)]
pub struct SparsePosetAccumulator {
    processes: usize,
    /// Last message id that touched each process, if any.
    last: Vec<Option<usize>>,
    /// Per-sender chains: message ids sent by each process, ascending.
    chains: Vec<Vec<usize>>,
    /// Per-process consecutive message pairs.
    edges: Vec<(usize, usize)>,
    count: usize,
}

impl SparsePosetAccumulator {
    /// An empty accumulator for `processes` processes.
    pub fn new(processes: usize) -> Self {
        SparsePosetAccumulator {
            processes,
            last: vec![None; processes],
            chains: vec![Vec::new(); processes],
            edges: Vec::new(),
            count: 0,
        }
    }

    /// Messages folded so far.
    pub fn message_count(&self) -> usize {
        self.count
    }

    /// Folds one message; internal events need not be reported at all.
    ///
    /// # Errors
    ///
    /// [`TraceError::ProcessOutOfRange`] / [`TraceError::SelfMessage`].
    pub fn message(&mut self, sender: ProcessId, receiver: ProcessId) -> Result<(), TraceError> {
        for p in [sender, receiver] {
            if p >= self.processes {
                return Err(TraceError::ProcessOutOfRange {
                    process: p,
                    process_count: self.processes,
                });
            }
        }
        if sender == receiver {
            return Err(TraceError::SelfMessage(sender));
        }
        let id = self.count;
        self.count += 1;
        for p in [sender, receiver] {
            if let Some(prev) = self.last[p].replace(id) {
                self.edges.push((prev, id));
            }
        }
        self.chains[sender].push(id);
        Ok(())
    }

    /// Finishes the fold into a [`SparsePoset`] over the messages seen.
    ///
    /// # Errors
    ///
    /// Propagates [`PosetError`] — unreachable for a stream of validated
    /// messages, whose rendezvous order is a topological witness.
    pub fn finish(self) -> Result<SparsePoset, PosetError> {
        SparsePoset::from_edges_and_chains(self.count, &self.edges, self.chains)
    }
}

/// Builds the sparse message poset of an in-memory computation via the
/// per-sender chain partition — the streaming accumulator run over
/// [`SyncComputation::messages`].
///
/// ```
/// use synctime_trace::{stream, Builder};
///
/// let mut b = Builder::new(3);
/// b.message(0, 1)?;
/// b.message(1, 2)?;
/// let comp = b.build();
/// let p = stream::sparse_message_poset(&comp);
/// assert!(p.lt(0, 1)); // they share process 1
/// # Ok::<(), synctime_trace::TraceError>(())
/// ```
pub fn sparse_message_poset(computation: &SyncComputation) -> SparsePoset {
    let mut acc = SparsePosetAccumulator::new(computation.process_count());
    for m in computation.messages() {
        acc.message(m.sender, m.receiver)
            .expect("a built computation contains only valid messages");
    }
    acc.finish()
        .expect("rendezvous order is a topological witness, so no cycle exists")
}

/// Streams a JSON trace into a sparse message poset without materializing
/// the computation: `O(N + M)` resident (the poset itself) instead of the
/// value tree + event list + computation that [`json::from_json_str`]
/// (crate::json::from_json_str) holds.
///
/// Returns the declared process count alongside the poset.
///
/// # Errors
///
/// See [`StreamError`].
pub fn sparse_poset_from_json<R: BufRead>(reader: R) -> Result<(usize, SparsePoset), StreamError> {
    let mut events = JsonEventReader::new(reader)?;
    let mut acc = SparsePosetAccumulator::new(events.processes());
    for (i, ev) in events.by_ref().enumerate() {
        match ev? {
            StreamEvent::Message { sender, receiver } => acc
                .message(sender, receiver)
                .map_err(|source| StreamError::Invalid { event: i, source })?,
            StreamEvent::Internal(p) => {
                if p >= acc.processes {
                    return Err(StreamError::Invalid {
                        event: i,
                        source: TraceError::ProcessOutOfRange {
                            process: p,
                            process_count: acc.processes,
                        },
                    });
                }
            }
        }
    }
    let processes = events.processes();
    acc.finish()
        .map(|p| (processes, p))
        .map_err(StreamError::Poset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation::Builder;
    use crate::json;
    use crate::Oracle;

    fn sample() -> SyncComputation {
        let mut b = Builder::new(4);
        b.message(0, 1).unwrap();
        b.message(2, 3).unwrap();
        b.internal(1).unwrap();
        b.message(1, 2).unwrap();
        b.message(2, 3).unwrap();
        b.internal(0).unwrap();
        b.build()
    }

    #[test]
    fn reader_yields_events_in_order() {
        let comp = sample();
        let text = json::to_json_string(&comp);
        let mut r = JsonEventReader::new(text.as_bytes()).unwrap();
        assert_eq!(r.processes(), 4);
        let events: Vec<StreamEvent> = r.by_ref().collect::<Result<_, _>>().unwrap();
        let messages: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match *e {
                StreamEvent::Message { sender, receiver } => Some((sender, receiver)),
                StreamEvent::Internal(_) => None,
            })
            .collect();
        assert_eq!(messages, vec![(0, 1), (2, 3), (1, 2), (2, 3)]);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, StreamEvent::Internal(_)))
                .count(),
            2
        );
    }

    #[test]
    fn reader_handles_compact_and_empty_traces() {
        let compact = r#"{"processes":2,"events":[{"message":[0,1]},{"internal":0}]}"#;
        let r = JsonEventReader::new(compact.as_bytes()).unwrap();
        assert_eq!(r.count(), 2);
        let empty = r#"{"processes": 5, "events": []}"#;
        let mut r = JsonEventReader::new(empty.as_bytes()).unwrap();
        assert_eq!(r.processes(), 5);
        assert!(r.next().is_none());
        assert!(r.next().is_none());
    }

    /// A reader that hands out its input 1–3 bytes per `read`, cycling.
    struct Chunked<'a> {
        rest: &'a [u8],
        step: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.step += 1;
            let n = (1 + self.step % 3).min(self.rest.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// Every event, or the offset and expectation of the first malformed
    /// byte.
    fn drain<R: BufRead>(reader: R) -> Result<Vec<StreamEvent>, (usize, &'static str)> {
        JsonEventReader::new(reader)
            .and_then(|r| r.collect::<Result<Vec<_>, _>>())
            .map_err(|e| match e {
                StreamError::Malformed { offset, expected } => (offset, expected),
                other => panic!("unexpected error {other}"),
            })
    }

    /// The text through three readers: one slice, a one-byte `BufReader`,
    /// and a reader yielding 1–3 bytes per `read`.
    fn through_every_reader(text: &str) -> [Result<Vec<StreamEvent>, (usize, &'static str)>; 3] {
        [
            drain(text.as_bytes()),
            drain(std::io::BufReader::with_capacity(1, text.as_bytes())),
            drain(std::io::BufReader::new(Chunked {
                rest: text.as_bytes(),
                step: 0,
            })),
        ]
    }

    #[test]
    fn reader_rejects_malformed_text() {
        // (text, offset of the malformed byte, what was expected there).
        // Keys that only share a prefix with a schema key are rejected.
        let malformed: [(&str, usize, &str); 16] = [
            ("", 0, "'{'"),
            ("{", 1, "'\"'"),
            (r#"{"events": []}"#, 9, "processes"),
            (r#"{"processes": 2}"#, 16, "','"),
            (
                r#"{"processes": 2, "events": [{"massage": [0, 1]}]}"#,
                39,
                "\"message\" or \"internal\"",
            ),
            (
                r#"{"processes": 2, "events": [{"message": [0 1]}]}"#,
                44,
                "','",
            ),
            (
                r#"{"processes": 2, "events": [{"message": [0, 1]}"#,
                47,
                "',' or ']'",
            ),
            (r#"{"processesX": 2, "events": []}"#, 13, "processes"),
            (r#"{"process": 2, "events": []}"#, 10, "processes"),
            (r#"{"processes": 2, "event": []}"#, 24, "events"),
            (
                r#"{"processes": 2, "events": [{"messages": [0, 1]}]}"#,
                40,
                "\"message\" or \"internal\"",
            ),
            (
                r#"{"processes": 2, "events": [{"internals": 0}]}"#,
                41,
                "\"message\" or \"internal\"",
            ),
            (
                r#"{"processes": 2, "events": [{"intern": 0}]}"#,
                38,
                "\"message\" or \"internal\"",
            ),
            (
                r#"{"proc\esses": 2, "events": []}"#,
                7,
                "a key without escapes",
            ),
            (
                r#"{"processes": 99999999999999999999999, "events": []}"#,
                34,
                "an integer in range",
            ),
            (
                r#"{"processes": 2, "events": [{"message": [0, 1]},]}"#,
                49,
                "'{'",
            ),
        ];
        for (text, offset, expected) in malformed {
            for got in through_every_reader(text) {
                assert_eq!(got, Err((offset, expected)), "{text}");
            }
        }
    }

    #[test]
    fn reader_is_independent_of_read_chunking() {
        let good = json::to_json_string(&sample());
        let whole = drain(good.as_bytes()).unwrap();
        assert_eq!(whole.len(), 6);
        for got in through_every_reader(&good) {
            assert_eq!(got, Ok(whole.clone()));
        }
        for step in 1..3 {
            let chunked = drain(std::io::BufReader::new(Chunked {
                rest: good.as_bytes(),
                step,
            }));
            assert_eq!(chunked, Ok(whole.clone()), "step {step}");
        }
    }

    #[test]
    fn accumulator_matches_dense_oracle() {
        let comp = sample();
        let oracle = Oracle::new(&comp);
        let sparse = sparse_message_poset(&comp);
        assert_eq!(sparse.len(), comp.message_count());
        for a in 0..sparse.len() {
            for b in 0..sparse.len() {
                assert_eq!(
                    oracle.message_poset().lt(a, b),
                    sparse.lt(a, b),
                    "lt({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn accumulator_rejects_invalid_messages() {
        let mut acc = SparsePosetAccumulator::new(2);
        assert!(matches!(acc.message(0, 0), Err(TraceError::SelfMessage(0))));
        assert!(matches!(
            acc.message(0, 7),
            Err(TraceError::ProcessOutOfRange { process: 7, .. })
        ));
        acc.message(1, 0).unwrap();
        assert_eq!(acc.message_count(), 1);
    }

    #[test]
    fn json_stream_matches_in_memory_poset() {
        let comp = sample();
        let text = json::to_json_string(&comp);
        let (processes, streamed) = sparse_poset_from_json(text.as_bytes()).unwrap();
        assert_eq!(processes, 4);
        let direct = sparse_message_poset(&comp);
        assert_eq!(streamed.len(), direct.len());
        for a in 0..direct.len() {
            for b in 0..direct.len() {
                assert_eq!(streamed.lt(a, b), direct.lt(a, b), "lt({a}, {b})");
            }
        }
    }

    #[test]
    fn json_stream_reports_invalid_events_by_index() {
        let text = r#"{"processes": 2, "events": [{"message": [0, 1]}, {"message": [1, 1]}]}"#;
        assert!(matches!(
            sparse_poset_from_json(text.as_bytes()),
            Err(StreamError::Invalid { event: 1, .. })
        ));
        let internal = r#"{"processes": 2, "events": [{"internal": 9}]}"#;
        assert!(matches!(
            sparse_poset_from_json(internal.as_bytes()),
            Err(StreamError::Invalid { event: 0, .. })
        ));
    }
}
