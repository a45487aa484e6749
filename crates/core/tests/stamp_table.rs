//! Differential test of the row-major stamp table: every answer
//! `MessageTimestamps` gives from its borrowed rows must equal the answer
//! `VectorTime::compare` gives on owned copies of the same vectors.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use synctime_core::{MessageTimestamps, VectorOrder, VectorTime};
use synctime_trace::MessageId;

/// Dimensions straddling the comparison kernel's 8-lane chunk boundary.
const DIMS: [usize; 7] = [0, 1, 7, 8, 9, 16, 17];

/// A random table of dimension `dim` that holds, besides random rows, a
/// row equal to, below, above and (from `dim >= 2`) concurrent with a base
/// row, in shuffled order.
fn table(dim: usize, seed: u64) -> Vec<VectorTime> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<u64> = (0..dim).map(|_| rng.gen_range(1..5)).collect();
    let mut rows = vec![base.clone(), base.clone()];
    if dim > 0 {
        let i = rng.gen_range(0..dim);
        let mut above = base.clone();
        above[i] += 1;
        let mut below = base.clone();
        below[i] -= 1;
        rows.push(above);
        rows.push(below);
    }
    if dim > 1 {
        let i = rng.gen_range(0..dim);
        let j = (i + rng.gen_range(1..dim)) % dim;
        let mut across = base.clone();
        across[i] += 1;
        across[j] -= 1;
        rows.push(across);
    }
    for _ in 0..rng.gen_range(0..12) {
        rows.push((0..dim).map(|_| rng.gen_range(0..4)).collect());
    }
    rows.shuffle(&mut rng);
    rows.into_iter().map(VectorTime::from).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_answers_match_vector_compare(pick in 0usize..DIMS.len(), seed in any::<u64>()) {
        let vectors = table(DIMS[pick], seed);
        let stamps = MessageTimestamps::new(vectors.clone());
        prop_assert_eq!(stamps.len(), vectors.len());
        prop_assert_eq!(stamps.dim(), DIMS[pick]);
        prop_assert_eq!(stamps.vectors().to_vec(), vectors.clone());
        let flat: Vec<u64> = vectors.iter().flat_map(|v| v.as_slice().to_vec()).collect();
        prop_assert_eq!(
            &MessageTimestamps::from_table(vectors.len(), DIMS[pick], flat),
            &stamps
        );
        let mut seen = [false; 4];
        for (i, a) in vectors.iter().enumerate() {
            prop_assert_eq!(stamps.vector(MessageId(i)), a.clone());
            for (j, b) in vectors.iter().enumerate() {
                let (m1, m2) = (MessageId(i), MessageId(j));
                let expected = a.compare(b);
                seen[expected as usize] = true;
                prop_assert_eq!(stamps.order(m1, m2), expected);
                prop_assert_eq!(stamps.precedes(m1, m2), expected == VectorOrder::Less);
                prop_assert_eq!(
                    stamps.concurrent(m1, m2),
                    i != j && matches!(expected, VectorOrder::Concurrent | VectorOrder::Equal)
                );
            }
        }
        // The forced rows make every relation the dimension allows occur.
        let relations = match DIMS[pick] {
            0 => 1,
            1 => 3,
            _ => 4,
        };
        prop_assert_eq!(seen.iter().filter(|&&s| s).count(), relations);
    }
}

#[test]
fn dimension_zero_tables_keep_their_message_count() {
    let stamps = MessageTimestamps::new(vec![VectorTime::zero(0); 5]);
    assert_eq!(stamps.len(), 5);
    assert_eq!(stamps.dim(), 0);
    assert_eq!(stamps.vectors().iter().count(), 5);
    assert!(!stamps.precedes(MessageId(0), MessageId(4)));
    assert!(stamps.concurrent(MessageId(0), MessageId(4)));
    assert_eq!(stamps.vectors().to_vec(), vec![VectorTime::zero(0); 5]);
}

#[test]
#[should_panic(expected = "out of range")]
fn dimension_zero_tables_check_message_bounds() {
    let stamps = MessageTimestamps::new(vec![VectorTime::zero(0); 5]);
    stamps.precedes(MessageId(0), MessageId(5));
}
