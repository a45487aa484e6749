use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};
use synctime_trace::MessageId;

use crate::kernel;
use crate::CoreError;

/// The outcome of comparing two vector timestamps under *vector order*
/// (Equation 2 of the paper): `u < v` iff `u[k] ≤ v[k]` for all `k` and
/// `u[j] < v[j]` for some `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOrder {
    /// All components equal.
    Equal,
    /// Strictly less in vector order.
    Less,
    /// Strictly greater in vector order.
    Greater,
    /// Incomparable: some component smaller, some larger.
    Concurrent,
}

/// A vector timestamp of fixed dimension.
///
/// For message timestamps produced by this crate, the dimension is the
/// edge-decomposition size (online), the poset width (offline), or the
/// process count (Fidge–Mattern) — never one-per-process unless you asked
/// for the baseline.
///
/// `PartialOrd` implements vector order:
///
/// ```
/// use synctime_core::VectorTime;
///
/// let a = VectorTime::from(vec![1, 0, 2]);
/// let b = VectorTime::from(vec![1, 1, 2]);
/// let c = VectorTime::from(vec![0, 3, 0]);
/// assert!(a < b);
/// assert!(!(a < c) && !(c < a)); // concurrent
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorTime {
    components: Vec<u64>,
}

impl VectorTime {
    /// The zero vector of the given dimension.
    pub fn zero(dim: usize) -> Self {
        VectorTime {
            components: vec![0; dim],
        }
    }

    /// The number of components.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.components
    }

    /// One component.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    pub fn component(&self, idx: usize) -> u64 {
        self.components[idx]
    }

    /// Component-wise maximum with `other` (lines 5 and 9 of Figure 5).
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] on a dimension mismatch, with the
    /// vector left unchanged — merging differently-sized vectors would
    /// silently truncate causal history, so every call site must handle
    /// (or consciously rule out) the mismatch.
    pub fn merge_max(&mut self, other: &VectorTime) -> Result<(), CoreError> {
        if self.dim() != other.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                got: other.dim(),
            });
        }
        kernel::merge_max_lanes(&mut self.components, &other.components);
        Ok(())
    }

    /// Merges a Singhal–Kshemkalyani change-set: for every `(idx, value)`
    /// pair, `self[idx] := max(self[idx], value)` — `O(k)` for `k` changed
    /// components instead of the full merge's `O(d)`. Equivalent to
    /// [`VectorTime::merge_max`] with the sending vector whenever the
    /// unchanged components were already merged on an earlier frame of the
    /// same FIFO stream, which is exactly what
    /// [`StreamDecoder::decode_sparse`](crate::wire::StreamDecoder::decode_sparse)
    /// guarantees for the change-sets it reports.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] when an index is out of range
    /// (`got` is the dimension the index implies); entries before the
    /// offending one may already be applied, so callers treat the error as
    /// terminal for the stream, exactly like a failed full merge.
    pub fn merge_delta(&mut self, changes: &[(usize, u64)]) -> Result<(), CoreError> {
        let dim = self.dim();
        for &(idx, value) in changes {
            let Some(c) = self.components.get_mut(idx) else {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    got: idx + 1,
                });
            };
            *c = (*c).max(value);
        }
        Ok(())
    }

    /// Increments component `idx` (lines 6 and 10 of Figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= dim()`.
    pub fn increment(&mut self, idx: usize) {
        self.components[idx] += 1;
    }

    /// Full vector-order comparison.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn compare(&self, other: &VectorTime) -> VectorOrder {
        VectorOrder::of_rows(&self.components, &other.components)
    }

    /// Component-wise `≤` (used by the Theorem 9 event test, where equality
    /// is allowed).
    pub fn le(&self, other: &VectorTime) -> bool {
        matches!(self.compare(other), VectorOrder::Less | VectorOrder::Equal)
    }
}

impl From<Vec<u64>> for VectorTime {
    fn from(components: Vec<u64>) -> Self {
        VectorTime { components }
    }
}

impl PartialOrd for VectorTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.compare(other) {
            VectorOrder::Equal => Some(Ordering::Equal),
            VectorOrder::Less => Some(Ordering::Less),
            VectorOrder::Greater => Some(Ordering::Greater),
            VectorOrder::Concurrent => None,
        }
    }
}

impl fmt::Display for VectorTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_components(f, &self.components)
    }
}

/// Writes components as `(c0,c1,...)`.
fn write_components(f: &mut fmt::Formatter<'_>, components: &[u64]) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in components.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

/// The per-message timestamps produced by one run of a timestamping
/// algorithm, with the paper's precedence test as methods.
///
/// The stamps live in one row-major table: message `m`'s vector is the
/// row `table[m·dim .. (m+1)·dim]`. Every row shares the one dimension,
/// the message count is stored explicitly (a dimension-0 table still has
/// `len` rows), and readers borrow rows as `&[u64]` slices instead of
/// owning a vector per message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTimestamps {
    table: Vec<u64>,
    dim: usize,
    len: usize,
}

impl MessageTimestamps {
    /// Copies a per-message vector list (indexed by message id) into a
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not all share one dimension.
    pub fn new(vectors: Vec<VectorTime>) -> Self {
        let dim = vectors.first().map_or(0, VectorTime::dim);
        assert!(
            vectors.iter().all(|v| v.dim() == dim),
            "all timestamps must share one dimension"
        );
        let mut table = Vec::with_capacity(vectors.len() * dim);
        for v in &vectors {
            table.extend_from_slice(v.as_slice());
        }
        MessageTimestamps {
            table,
            dim,
            len: vectors.len(),
        }
    }

    /// Wraps a row-major table of `len` rows of `dim` components each —
    /// the form every stamper writes in place. An empty table reports
    /// dimension 0, as `new(Vec::new())` does: no stamp fixes a dimension.
    ///
    /// # Panics
    ///
    /// Panics if `table.len() != len * dim`.
    pub fn from_table(len: usize, dim: usize, table: Vec<u64>) -> Self {
        assert_eq!(
            Some(table.len()),
            len.checked_mul(dim),
            "a stamp table holds exactly len x dim components"
        );
        let dim = if len == 0 { 0 } else { dim };
        MessageTimestamps { table, dim, len }
    }

    /// The timestamp dimension (number of vector components).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stamped messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no messages were stamped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row of message `m`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    fn row(&self, m: MessageId) -> &[u64] {
        assert!(
            m.0 < self.len,
            "message {} out of range ({} stamped)",
            m.0,
            self.len
        );
        &self.table[m.0 * self.dim..][..self.dim]
    }

    /// The timestamp of a message, borrowed from the table.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn vector(&self, m: MessageId) -> StampRow<'_> {
        StampRow(self.row(m))
    }

    /// All timestamps, indexed by message id, as a borrowed row view.
    pub fn vectors(&self) -> Rows<'_> {
        Rows {
            table: &self.table,
            dim: self.dim,
            len: self.len,
        }
    }

    /// The vector order between the stamps of `m1` and `m2`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn order(&self, m1: MessageId, m2: MessageId) -> VectorOrder {
        VectorOrder::of_rows(self.row(m1), self.row(m2))
    }

    /// The precedence test: `m1 ↦ m2` iff `v(m1) < v(m2)`.
    #[inline]
    pub fn precedes(&self, m1: MessageId, m2: MessageId) -> bool {
        self.order(m1, m2) == VectorOrder::Less
    }

    /// The concurrency test: neither vector is below the other and the
    /// messages are distinct.
    #[inline]
    pub fn concurrent(&self, m1: MessageId, m2: MessageId) -> bool {
        m1 != m2
            && matches!(
                self.order(m1, m2),
                VectorOrder::Concurrent | VectorOrder::Equal
            )
    }

    /// Whether these timestamps encode the poset exactly: for every ordered
    /// pair, `precedes(m1, m2) ⟺ m1 ↦ m2` per the ground-truth `oracle`
    /// (the central property, Theorem 4 / Figure 9). `O(|M|²)`.
    pub fn encodes(&self, oracle: &synctime_trace::Oracle) -> bool {
        let n = self.len;
        if oracle.message_poset().len() != n {
            return false;
        }
        (0..n).all(|i| {
            (0..n).all(|j| {
                i == j
                    || self.precedes(MessageId(i), MessageId(j))
                        == oracle.synchronously_precedes(MessageId(i), MessageId(j))
            })
        })
    }
}

impl VectorOrder {
    /// The vector order between two equal-length component rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    #[inline]
    pub fn of_rows(a: &[u64], b: &[u64]) -> VectorOrder {
        assert_eq!(
            a.len(),
            b.len(),
            "cannot compare vectors of dimensions {} and {}",
            a.len(),
            b.len()
        );
        match kernel::compare_lanes(a, b) {
            (false, false) => VectorOrder::Equal,
            (true, false) => VectorOrder::Less,
            (false, true) => VectorOrder::Greater,
            (true, true) => VectorOrder::Concurrent,
        }
    }
}

/// One message's timestamp, borrowed from a [`MessageTimestamps`] table.
///
/// Prints like the [`VectorTime`] it stands for; [`StampRow::to_vector`]
/// makes an owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StampRow<'a>(&'a [u64]);

impl<'a> StampRow<'a> {
    /// The components as a slice.
    pub fn as_slice(&self) -> &'a [u64] {
        self.0
    }

    /// One component.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below the dimension.
    pub fn component(&self, idx: usize) -> u64 {
        self.0[idx]
    }

    /// An owned copy of the timestamp.
    pub fn to_vector(&self) -> VectorTime {
        VectorTime::from(self.0.to_vec())
    }
}

impl PartialEq<VectorTime> for StampRow<'_> {
    fn eq(&self, other: &VectorTime) -> bool {
        self.0 == other.as_slice()
    }
}

impl fmt::Display for StampRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_components(f, self.0)
    }
}

/// Every row of a [`MessageTimestamps`] table, indexed by message id;
/// [`Rows::iter`] yields each message's components as a borrowed `&[u64]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rows<'a> {
    table: &'a [u64],
    dim: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// The rows in message-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u64]> + 'a {
        let Rows { table, dim, len } = *self;
        (0..len).map(move |m| &table[m * dim..][..dim])
    }

    /// Owned copies of every row, indexed by message id.
    pub fn to_vec(&self) -> Vec<VectorTime> {
        self.iter()
            .map(|row| VectorTime::from(row.to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_accessors() {
        let v = VectorTime::zero(3);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.as_slice(), &[0, 0, 0]);
        assert_eq!(v.component(1), 0);
    }

    #[test]
    fn merge_and_increment() {
        let mut a = VectorTime::from(vec![3, 0, 5]);
        a.merge_max(&VectorTime::from(vec![1, 4, 5])).unwrap();
        assert_eq!(a.as_slice(), &[3, 4, 5]);
        a.increment(1);
        assert_eq!(a.as_slice(), &[3, 5, 5]);
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = VectorTime::from(vec![7, 7]);
        assert_eq!(
            a.merge_max(&VectorTime::zero(3)),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
        // The failed merge left the vector untouched.
        assert_eq!(a.as_slice(), &[7, 7]);
    }

    #[test]
    fn merge_delta_equals_merge_max_on_random_streams() {
        use crate::wire::{StreamDecoder, StreamEncoder};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // A sender's clock only grows; every frame of its FIFO stream is
        // merged into the receiver, once by the decoded change-set and once
        // by the full vector. The receiver also moves on its own between
        // frames, as it does between rendezvous.
        for dim in [1usize, 7, 8, 9, 256] {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let (mut enc, mut dec) = (StreamEncoder::new(), StreamDecoder::new());
            let mut sender = VectorTime::zero(dim);
            let mut by_delta = VectorTime::zero(dim);
            let mut by_full = VectorTime::zero(dim);
            let mut deltas = 0;
            for frame in 0..200 {
                for _ in 0..rng.gen_range(0..4) {
                    sender.increment(rng.gen_range(0..dim));
                }
                if rng.gen_bool(0.3) {
                    let idx = rng.gen_range(0..dim);
                    by_delta.increment(idx);
                    by_full.increment(idx);
                }
                if frame % 50 == 49 {
                    enc.force_full(1);
                }
                let bytes = enc.encode(1, &sender);
                let (decoded, changes) = dec.decode_sparse(0, &bytes).unwrap();
                assert_eq!(decoded, sender, "d = {dim}, frame {frame}");
                match changes {
                    Some(changes) => {
                        deltas += 1;
                        by_delta.merge_delta(&changes).unwrap();
                    }
                    None => by_delta.merge_max(&decoded).unwrap(),
                }
                by_full.merge_max(&decoded).unwrap();
                assert_eq!(by_delta, by_full, "d = {dim}, frame {frame}");
            }
            assert!(deltas > 100, "d = {dim}: only {deltas} delta frames");
        }
    }

    #[test]
    fn merge_delta_rejects_out_of_range_index() {
        let mut a = VectorTime::from(vec![1, 2, 3]);
        a.merge_delta(&[(0, 4), (2, 1)]).unwrap();
        assert_eq!(a.as_slice(), &[4, 2, 3]);
        assert_eq!(
            a.merge_delta(&[(3, 9)]),
            Err(CoreError::DimensionMismatch {
                expected: 3,
                got: 4
            })
        );
        assert_eq!(a.as_slice(), &[4, 2, 3]);
        a.merge_delta(&[]).unwrap();
        assert!(VectorTime::zero(0).merge_delta(&[(0, 1)]).is_err());
    }

    #[test]
    fn vector_order_cases() {
        let a = VectorTime::from(vec![1, 2]);
        let b = VectorTime::from(vec![1, 3]);
        let c = VectorTime::from(vec![2, 1]);
        assert_eq!(a.compare(&b), VectorOrder::Less);
        assert_eq!(b.compare(&a), VectorOrder::Greater);
        assert_eq!(a.compare(&a.clone()), VectorOrder::Equal);
        assert_eq!(a.compare(&c), VectorOrder::Concurrent);
        assert!(a < b);
        assert!(a.le(&a.clone()));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert_eq!(a.partial_cmp(&c), None);
    }

    #[test]
    fn display_form() {
        assert_eq!(VectorTime::from(vec![1, 1, 1]).to_string(), "(1,1,1)");
        assert_eq!(VectorTime::zero(0).to_string(), "()");
    }

    #[test]
    fn message_timestamps_tests() {
        let ts = MessageTimestamps::new(vec![
            VectorTime::from(vec![1, 0]),
            VectorTime::from(vec![1, 1]),
            VectorTime::from(vec![0, 1]),
        ]);
        assert_eq!(ts.dim(), 2);
        assert_eq!(ts.len(), 3);
        assert!(ts.precedes(MessageId(0), MessageId(1)));
        assert!(!ts.precedes(MessageId(1), MessageId(0)));
        assert!(ts.concurrent(MessageId(0), MessageId(2)));
        assert!(!ts.concurrent(MessageId(0), MessageId(0)));
    }

    #[test]
    #[should_panic(expected = "one dimension")]
    fn message_timestamps_reject_mixed_dims() {
        MessageTimestamps::new(vec![VectorTime::zero(1), VectorTime::zero(2)]);
    }
}
