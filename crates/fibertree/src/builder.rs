//! Streaming construction of compressed (CSF) tensors.
//!
//! [`CompressedBuilder`] accepts leaves in lexicographically sorted order
//! and appends them straight into the flat per-rank arrays — no owned
//! tree, no COO buffer, `O(output nnz)` memory. It is how the simulator's
//! engine assembles compressed outputs (its accumulator drains in sorted
//! order) and how the compressed transform primitives rebuild their
//! results. Per-level coordinate narrowing (`u32` vs `u64`) is chosen
//! from the rank shapes at construction, so every construction path —
//! `from_entries`, `from_tensor`, transforms, outputs — lands on an
//! identical representation for identical content.

use crate::compressed::{key_offsets, CompressedTensor, HashMemo, Level};
use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;

/// Builds a [`CompressedTensor`] from a sorted stream of leaves.
///
/// Leaves must arrive in strictly increasing lexicographic order of their
/// coordinate paths; pushing an equal path sums the values (mirroring
/// [`crate::Tensor::from_entries`]), and a decreasing path is an error.
/// Values are stored as given — explicit zeros survive, so semiring-zero
/// filtering is the caller's policy, not the builder's.
///
/// # Examples
///
/// ```
/// use teaal_fibertree::{CompressedBuilder, Shape};
/// let mut b = CompressedBuilder::new(
///     "Z",
///     vec!["M".into(), "N".into()],
///     vec![Shape::Interval(4), Shape::Interval(4)],
/// ).unwrap();
/// b.push_point(&[0, 1], 2.0).unwrap();
/// b.push_point(&[2, 0], 3.0).unwrap();
/// let z = b.finish();
/// assert_eq!(z.nnz(), 2);
/// assert_eq!(z.get(&[2, 0]), Some(3.0));
/// ```
#[derive(Clone, Debug)]
pub struct CompressedBuilder {
    name: String,
    rank_ids: Vec<String>,
    rank_shapes: Vec<Shape>,
    levels: Vec<Level>,
    values: Vec<f64>,
    /// Where each rank's components start in a flat raw key.
    offsets: Vec<usize>,
    /// Raw key of the last pushed leaf, for divergence computation and
    /// order checking.
    last: Vec<u64>,
    has_last: bool,
}

impl CompressedBuilder {
    /// Starts a builder for a tensor with the given ranks and shapes.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::NotCompressible`] when a shape is not
    /// representable in a compressed level (a tuple with non-interval
    /// components).
    pub fn new(
        name: impl Into<String>,
        rank_ids: Vec<String>,
        rank_shapes: Vec<Shape>,
    ) -> Result<Self, FibertreeError> {
        assert_eq!(rank_ids.len(), rank_shapes.len(), "one shape per rank");
        let levels = rank_shapes
            .iter()
            .map(Level::for_shape)
            .collect::<Result<Vec<_>, _>>()?;
        let offsets = key_offsets(&levels);
        Ok(CompressedBuilder {
            name: name.into(),
            rank_ids,
            rank_shapes,
            levels,
            values: Vec::new(),
            offsets,
            last: Vec::new(),
            has_last: false,
        })
    }

    /// Number of leaves appended so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no leaf has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends one leaf at a coordinate path (one coordinate per rank;
    /// tuples on flattened ranks).
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::ArityMismatch`] for a wrong path length,
    /// [`FibertreeError::OutOfShape`] for a coordinate outside its rank's
    /// shape, and [`FibertreeError::Unsorted`] when the path does not
    /// follow the previous one in lexicographic order.
    pub fn push(&mut self, point: &[Coord], value: f64) -> Result<(), FibertreeError> {
        if point.len() != self.rank_ids.len() {
            return Err(FibertreeError::ArityMismatch {
                expected: self.rank_ids.len(),
                got: point.len(),
            });
        }
        for (c, s) in point.iter().zip(&self.rank_shapes) {
            if !s.contains(c) {
                return Err(FibertreeError::OutOfShape {
                    coord: c.clone(),
                    shape: s.clone(),
                });
            }
        }
        // Shape containment guarantees every tuple component is a point.
        let key: Vec<u64> = point
            .iter()
            .flat_map(Coord::components)
            .map(|c| c.as_point().expect("shape-checked components are points"))
            .collect();
        self.push_raw(&key, value)
    }

    /// Appends one leaf at a point-coordinate path.
    ///
    /// # Errors
    ///
    /// As [`CompressedBuilder::push`].
    pub fn push_point(&mut self, point: &[u64], value: f64) -> Result<(), FibertreeError> {
        if point.len() != self.rank_ids.len() {
            return Err(FibertreeError::ArityMismatch {
                expected: self.rank_ids.len(),
                got: point.len(),
            });
        }
        for (d, (&p, s)) in point.iter().zip(&self.rank_shapes).enumerate() {
            if self.levels[d].arity() != 1 || !s.contains(&Coord::Point(p)) {
                return Err(FibertreeError::OutOfShape {
                    coord: Coord::Point(p),
                    shape: s.clone(),
                });
            }
        }
        self.push_raw(point, value)
    }

    /// Core append: `key` is the flat raw key — every rank's components
    /// concatenated (see `offsets`) — already validated against the
    /// shapes.
    pub(crate) fn push_raw(&mut self, key: &[u64], value: f64) -> Result<(), FibertreeError> {
        let n = self.levels.len();
        if n == 0 {
            // 0-tensor: accumulate into the single scalar slot.
            match self.values.first_mut() {
                Some(v) => *v += value,
                None => self.values.push(value),
            }
            return Ok(());
        }
        // First rank where this leaf diverges from the previous one:
        // every rank from there down gains an element, and every rank
        // strictly below gains a fresh fiber. Every rank has a fixed
        // component count, so comparing flat keys is comparing paths.
        let diff = if self.has_last {
            let order = self.last.as_slice().cmp(key);
            if order.is_eq() {
                *self.values.last_mut().expect("a leaf was pushed") += value;
                return Ok(());
            }
            let j = self
                .last
                .iter()
                .zip(key)
                .position(|(a, b)| a != b)
                .expect("unequal keys of one width diverge");
            let d = self.offsets.partition_point(|&o| o <= j) - 1;
            if order.is_gt() {
                let span = self.offsets[d]..self.offsets[d + 1];
                return Err(FibertreeError::Unsorted {
                    prev: raw_coord(&self.last[span.clone()]),
                    next: raw_coord(&key[span]),
                });
            }
            d
        } else {
            0
        };
        for d in diff..n {
            if d > diff && self.levels[d].len() > 0 {
                let end = self.levels[d].len();
                self.levels[d].segs.push(end);
            }
            self.levels[d].push_raw(&key[self.offsets[d]..self.offsets[d + 1]]);
        }
        self.values.push(value);
        self.last.clear();
        self.last.extend_from_slice(key);
        self.has_last = true;
        Ok(())
    }

    /// Appends every leaf of `t`, in order, as if pushed one by one.
    ///
    /// This is the k-way concatenation primitive behind the sharded
    /// engine's output merge: each shard drains into its own builder,
    /// and the shards' tensors — whose leading-rank key ranges are
    /// disjoint and ordered — are replayed into one builder. Because
    /// the builder is a deterministic function of its push sequence,
    /// the merged tensor is bit-identical to a single sequential build
    /// of the same leaves.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::ArityMismatch`] when `t`'s order differs
    /// from the builder's, [`FibertreeError::NotCompressible`] when the
    /// rank shapes differ, and [`FibertreeError::Unsorted`] when `t`'s
    /// first leaf does not follow the last pushed leaf.
    pub fn append_tensor(&mut self, t: &CompressedTensor) -> Result<(), FibertreeError> {
        if t.order() != self.rank_ids.len() {
            return Err(FibertreeError::ArityMismatch {
                expected: self.rank_ids.len(),
                got: t.order(),
            });
        }
        if t.rank_shapes() != self.rank_shapes.as_slice() {
            return Err(FibertreeError::NotCompressible {
                reason: "appended tensor's rank shapes differ from the builder's".into(),
            });
        }
        let n = self.rank_ids.len();
        if n == 0 {
            if t.nnz() > 0 {
                self.push_raw(&[], t.value_at(0))?;
            }
            return Ok(());
        }
        let mut key = vec![0u64; self.offsets[n]];
        self.append_range(t, 0, 0, t.level_len(0), &mut key)
    }

    /// Replays the element range `[start, end)` of `t`'s `level` (and
    /// everything beneath it) into this builder.
    fn append_range(
        &mut self,
        t: &CompressedTensor,
        level: usize,
        start: usize,
        end: usize,
        key: &mut [u64],
    ) -> Result<(), FibertreeError> {
        let leaf = level + 1 == self.levels.len();
        let span = self.offsets[level]..self.offsets[level + 1];
        for p in start..end {
            t.levels[level].write_raw(p, &mut key[span.clone()]);
            if leaf {
                self.push_raw(key, t.value_at(p))?;
            } else {
                let (cs, ce) = t.child_range(level, p);
                self.append_range(t, level + 1, cs, ce, key)?;
            }
        }
        Ok(())
    }

    /// Closes the trailing fiber of each rank and yields the tensor.
    pub fn finish(mut self) -> CompressedTensor {
        let n = self.levels.len();
        if n == 0 {
            if self.values.is_empty() {
                self.values.push(0.0);
            }
            return CompressedTensor {
                name: self.name,
                rank_ids: self.rank_ids,
                rank_shapes: self.rank_shapes,
                levels: self.levels,
                values: self.values,
                content_hash: HashMemo::default(),
            };
        }
        // A rank below an empty parent has no fibers at all (mirroring
        // the owned tree, where only the root fiber exists in an empty
        // tensor), so its segment list stays `[0]`.
        for d in 0..n {
            let parents = if d == 0 { 1 } else { self.levels[d - 1].len() };
            if parents > 0 {
                let end = self.levels[d].len();
                self.levels[d].segs.push(end);
            }
        }
        CompressedTensor {
            name: self.name,
            rank_ids: self.rank_ids,
            rank_shapes: self.rank_shapes,
            levels: self.levels,
            values: self.values,
            content_hash: HashMemo::default(),
        }
    }
}

/// Materializes one rank's raw key back into a coordinate (for error
/// reporting).
fn raw_coord(key: &[u64]) -> Coord {
    match key {
        [p] => Coord::Point(*p),
        _ => Coord::Tuple(key.iter().map(|&c| Coord::Point(c)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedTensor;
    use crate::tensor::Tensor;

    fn shapes(ns: &[u64]) -> Vec<Shape> {
        ns.iter().map(|&n| Shape::Interval(n)).collect()
    }

    #[test]
    fn streaming_build_matches_from_entries() {
        let entries = vec![
            (vec![0, 2], 3.0),
            (vec![2, 0], 9.0),
            (vec![2, 1], 4.0),
            (vec![2, 2], 5.0),
        ];
        let mut b =
            CompressedBuilder::new("A", vec!["M".into(), "K".into()], shapes(&[4, 3])).unwrap();
        for (p, v) in &entries {
            b.push_point(p, *v).unwrap();
        }
        let c = b.finish();
        let reference = CompressedTensor::from_entries("A", &["M", "K"], &[4, 3], entries).unwrap();
        assert_eq!(c, reference);
    }

    #[test]
    fn explicit_zeros_survive_streaming_build() {
        let mut b = CompressedBuilder::new("P", vec!["V".into()], shapes(&[4])).unwrap();
        b.push_point(&[0], 0.0).unwrap();
        b.push_point(&[2], 7.0).unwrap();
        let c = b.finish();
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(&[0]), Some(0.0));
    }

    #[test]
    fn duplicates_sum_and_disorder_errors() {
        let mut b = CompressedBuilder::new("T", vec!["I".into()], shapes(&[8])).unwrap();
        b.push_point(&[3], 1.0).unwrap();
        b.push_point(&[3], 2.0).unwrap();
        let err = b.push_point(&[1], 1.0);
        assert!(matches!(err, Err(FibertreeError::Unsorted { .. })));
        let c = b.finish();
        assert_eq!(c.entries(), vec![(vec![3], 3.0)]);
    }

    #[test]
    fn pair_ranks_build_from_tuple_coords() {
        let mut b = CompressedBuilder::new(
            "F",
            vec!["MK".into()],
            vec![Shape::Tuple(vec![Shape::Interval(4), Shape::Interval(3)])],
        )
        .unwrap();
        b.push(&[Coord::pair(0, 2)], 3.0).unwrap();
        b.push(&[Coord::pair(2, 0)], 9.0).unwrap();
        let c = b.finish();
        let owned = crate::tensor::fig1_matrix_a();
        let flat = Tensor::from_entries("F", &["M", "K"], &[4, 3], vec![])
            .unwrap()
            .flatten_rank("M", "MK")
            .unwrap();
        assert_eq!(c.rank_shapes(), flat.rank_shapes());
        assert_eq!(c.nnz(), 2);
        assert_eq!(
            c.leaves()[1],
            (vec![Coord::pair(2, 0)], 9.0),
            "pair coordinates come back out"
        );
        drop(owned);
    }

    #[test]
    fn wrong_arity_and_shape_are_rejected() {
        let mut b = CompressedBuilder::new("T", vec!["I".into()], shapes(&[4])).unwrap();
        assert!(matches!(
            b.push_point(&[1, 2], 1.0),
            Err(FibertreeError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.push_point(&[9], 1.0),
            Err(FibertreeError::OutOfShape { .. })
        ));
        assert!(matches!(
            b.push(&[Coord::pair(0, 0)], 1.0),
            Err(FibertreeError::OutOfShape { .. })
        ));
    }

    #[test]
    fn empty_and_scalar_builders_finish() {
        let b = CompressedBuilder::new("E", vec!["I".into()], shapes(&[4])).unwrap();
        assert!(b.is_empty());
        let c = b.finish();
        assert_eq!(c.nnz(), 0);
        let mut s = CompressedBuilder::new("s", vec![], vec![]).unwrap();
        s.push(&[], 2.0).unwrap();
        s.push(&[], 1.5).unwrap();
        assert_eq!(s.len(), 1);
        let c = s.finish();
        assert_eq!(c.get(&[]), Some(3.5));
    }

    #[test]
    fn append_tensor_concatenation_matches_single_build() {
        let entries = vec![
            (vec![0, 2], 3.0),
            (vec![1, 0], 1.0),
            (vec![2, 0], 9.0),
            (vec![2, 1], 4.0),
            (vec![5, 2], 5.0),
        ];
        let reference =
            CompressedTensor::from_entries("Z", &["M", "K"], &[8, 3], entries.clone()).unwrap();
        // Split the sorted leaves at every boundary, build each half as
        // its own tensor, and replay both into one builder.
        for split in 0..=entries.len() {
            let halves = [&entries[..split], &entries[split..]];
            let mut merged =
                CompressedBuilder::new("Z", vec!["M".into(), "K".into()], shapes(&[8, 3])).unwrap();
            for half in halves {
                let t = CompressedTensor::from_entries("Z", &["M", "K"], &[8, 3], half.to_vec())
                    .unwrap();
                merged.append_tensor(&t).unwrap();
            }
            assert_eq!(merged.finish(), reference, "split={split}");
        }
    }

    #[test]
    fn append_tensor_rejects_mismatch_and_disorder() {
        let mut b =
            CompressedBuilder::new("Z", vec!["M".into(), "K".into()], shapes(&[8, 3])).unwrap();
        let wrong_order = CompressedTensor::from_entries("X", &["I"], &[8], vec![]).unwrap();
        assert!(matches!(
            b.append_tensor(&wrong_order),
            Err(FibertreeError::ArityMismatch { .. })
        ));
        let wrong_shape =
            CompressedTensor::from_entries("X", &["M", "K"], &[4, 3], vec![]).unwrap();
        assert!(matches!(
            b.append_tensor(&wrong_shape),
            Err(FibertreeError::NotCompressible { .. })
        ));
        b.push_point(&[5, 0], 1.0).unwrap();
        let behind =
            CompressedTensor::from_entries("X", &["M", "K"], &[8, 3], vec![(vec![2, 0], 1.0)])
                .unwrap();
        assert!(matches!(
            b.append_tensor(&behind),
            Err(FibertreeError::Unsorted { .. })
        ));
    }

    #[test]
    fn deep_tuple_shapes_build_and_nested_ones_are_rejected() {
        let deep = Shape::Tuple(vec![
            Shape::Interval(2),
            Shape::Interval(3),
            Shape::Interval(2),
        ]);
        let mut b = CompressedBuilder::new("T", vec!["ABC".into()], vec![deep]).unwrap();
        let triple =
            |a, b, c| Coord::Tuple(vec![Coord::Point(a), Coord::Point(b), Coord::Point(c)]);
        b.push(&[triple(0, 2, 1)], 1.0).unwrap();
        b.push(&[triple(1, 0, 0)], 2.0).unwrap();
        assert!(matches!(
            b.push(&[triple(0, 0, 0)], 3.0),
            Err(FibertreeError::Unsorted { .. })
        ));
        let c = b.finish();
        assert_eq!(
            c.leaves(),
            vec![(vec![triple(0, 2, 1)], 1.0), (vec![triple(1, 0, 0)], 2.0)]
        );
        let nested = Shape::Tuple(vec![
            Shape::Tuple(vec![Shape::Interval(2), Shape::Interval(2)]),
            Shape::Interval(2),
        ]);
        let err = CompressedBuilder::new("T", vec!["ABC".into()], vec![nested]);
        assert!(matches!(err, Err(FibertreeError::NotCompressible { .. })));
    }
}
