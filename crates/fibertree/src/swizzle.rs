//! Rank swizzling: reordering the levels of a fibertree (paper §3.2.2).
//!
//! Swizzles capture transposition (CSR→CSC), sorting, and merging: the
//! content (set of leaf values and their points) is unchanged, but the
//! coordinate system — and therefore the traversal order — changes.

use std::collections::BTreeMap;

use crate::builder::CompressedBuilder;
use crate::compressed::{key_offsets, CompressedTensor};
use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;

/// Computes the permutation mapping new rank positions to old ones.
///
/// # Errors
///
/// Returns [`FibertreeError::BadPermutation`] if `order` is not a
/// permutation of `rank_ids`.
pub fn permutation_of(rank_ids: &[String], order: &[&str]) -> Result<Vec<usize>, FibertreeError> {
    let bad = || FibertreeError::BadPermutation {
        requested: order.iter().map(|s| s.to_string()).collect(),
        have: rank_ids.to_vec(),
    };
    if order.len() != rank_ids.len() {
        return Err(bad());
    }
    let mut perm = Vec::with_capacity(order.len());
    for r in order {
        let idx = rank_ids.iter().position(|x| x == r).ok_or_else(bad)?;
        if perm.contains(&idx) {
            return Err(bad());
        }
        perm.push(idx);
    }
    Ok(perm)
}

impl Tensor {
    /// Returns a tensor with the same content and the given rank order.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::BadPermutation`] if `order` is not a
    /// permutation of this tensor's rank ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// let a = fig1_matrix_a(); // [M, K]
    /// let at = a.swizzle(&["K", "M"]).unwrap();
    /// assert_eq!(at.get(&[2, 0]), a.get(&[0, 2]));
    /// assert_eq!(at.nnz(), a.nnz());
    /// ```
    pub fn swizzle(&self, order: &[&str]) -> Result<Tensor, FibertreeError> {
        let perm = self.permutation_for(order)?;
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return Ok(self.clone());
        }
        let shapes: Vec<Shape> = perm
            .iter()
            .map(|&p| self.rank_shapes()[p].clone())
            .collect();
        let entries: Vec<(Vec<Coord>, f64)> = self
            .leaves()
            .into_iter()
            .map(|(path, v)| {
                let newp: Vec<Coord> = perm.iter().map(|&p| path[p].clone()).collect();
                (newp, v)
            })
            .collect();
        Ok(from_coord_entries(
            self.name(),
            order.iter().map(|s| s.to_string()).collect(),
            shapes,
            entries,
        ))
    }

    /// Computes the permutation mapping new rank positions to old ones.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::BadPermutation`] if `order` is not a
    /// permutation of the tensor's rank ids.
    pub fn permutation_for(&self, order: &[&str]) -> Result<Vec<usize>, FibertreeError> {
        permutation_of(self.rank_ids(), order)
    }
}

impl CompressedTensor {
    /// Returns a compressed tensor with the same content and the given
    /// rank order — the compressed-native counterpart of
    /// [`Tensor::swizzle`], and bit-identical to compressing its result.
    ///
    /// Runs entirely on the flat arrays: one pass gathers each leaf's
    /// coordinate path with the permutation applied, a sort re-orders the
    /// keys, and a [`CompressedBuilder`] appends the sorted stream — no
    /// owned tree is ever materialized.
    ///
    /// Pure transposes that pull one rank to the front while keeping the
    /// rest in order (CSR→CSC and its higher-rank analogues — every
    /// permutation of the form `[j, 0, 1, …, ĵ, …, n-1]`) skip the
    /// `O(nnz log nnz)` comparison sort: the gathered leaves are already
    /// in the old lexicographic order, so a stable counting bucket-sort
    /// keyed on the new leading coordinate alone fully sorts them (ties
    /// on the leading coordinate compare by the remaining slots, whose
    /// relative old order is exactly the new order — stability preserves
    /// it). The counting array is only used when the leading coordinate
    /// range is within `4·nnz + 4096`, so degenerate shapes fall back to
    /// the comparison sort rather than allocating a huge histogram.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::BadPermutation`] if `order` is not a
    /// permutation of this tensor's rank ids.
    pub fn swizzle(&self, order: &[&str]) -> Result<CompressedTensor, FibertreeError> {
        let perm = permutation_of(self.rank_ids(), order)?;
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return Ok(self.clone());
        }
        let shapes: Vec<Shape> = perm
            .iter()
            .map(|&p| self.rank_shapes()[p].clone())
            .collect();
        // Gather every nonzero leaf as its permuted raw key (mirroring
        // Tensor::swizzle, which rebuilds from `leaves()` and therefore
        // drops explicit zeros). Keys live in one flat buffer, one slot
        // per tuple component per leaf, and an index sort avoids a
        // per-leaf allocation.
        let offsets = key_offsets(&self.levels);
        let width = offsets[self.order()];
        let spans: Vec<std::ops::Range<usize>> =
            perm.iter().map(|&i| offsets[i]..offsets[i + 1]).collect();
        let mut keys: Vec<u64> = Vec::with_capacity(width * self.nnz());
        let mut vals: Vec<f64> = Vec::with_capacity(self.nnz());
        let mut path = vec![0u64; width];
        self.gather_raw(
            0,
            0,
            self.level_len(0),
            (&offsets, &spans),
            &mut path,
            &mut keys,
            &mut vals,
        );
        let idx = sort_permuted_keys(&keys, vals.len(), width, &perm, &shapes);
        let mut b = CompressedBuilder::new(
            self.name(),
            order.iter().map(|s| s.to_string()).collect(),
            shapes,
        )?;
        for &i in &idx {
            b.push_raw(&keys[i * width..(i + 1) * width], vals[i])?;
        }
        Ok(b.finish())
    }

    /// Gathers the nonzero leaves under elements `[start, end)` of
    /// `level`: `path` holds the flat raw key so far (rank `d` at
    /// `offsets[d]..offsets[d + 1]`), and each leaf's key is appended to
    /// `keys` rank by rank in the permuted order `spans`.
    #[allow(clippy::too_many_arguments)] // internal recursion carrying cursors
    fn gather_raw(
        &self,
        level: usize,
        start: usize,
        end: usize,
        layout: (&[usize], &[std::ops::Range<usize>]),
        path: &mut [u64],
        keys: &mut Vec<u64>,
        vals: &mut Vec<f64>,
    ) {
        let (offsets, spans) = layout;
        let leaf = level + 1 == self.order();
        for p in start..end {
            self.levels[level].write_raw(p, &mut path[offsets[level]..offsets[level + 1]]);
            if leaf {
                let v = self.value_at(p);
                if v != 0.0 {
                    for span in spans {
                        keys.extend_from_slice(&path[span.clone()]);
                    }
                    vals.push(v);
                }
            } else {
                let (cs, ce) = self.child_range(level, p);
                self.gather_raw(level + 1, cs, ce, layout, path, keys, vals);
            }
        }
    }
}

/// Orders the gathered (already permuted) raw keys: returns the index
/// permutation that sorts `keys` lexicographically.
///
/// `keys` holds `nnz` keys of `width` slots each, gathered in the *old*
/// lexicographic order. When the permutation pulls one point rank to the
/// front and keeps the rest in order, a stable counting bucket-sort on
/// the new leading coordinate is a full sort in `O(nnz + max_coord)`;
/// otherwise a comparison sort on the whole key runs.
fn sort_permuted_keys(
    keys: &[u64],
    nnz: usize,
    width: usize,
    perm: &[usize],
    shapes: &[Shape],
) -> Vec<usize> {
    let n = perm.len();
    let pull_to_front = !perm.is_empty()
        && perm[1..]
            .iter()
            .copied()
            .eq((0..n).filter(|&i| i != perm[0]));
    let leading_is_point = shapes
        .first()
        .is_some_and(|s| !matches!(s, Shape::Tuple(_)));
    if pull_to_front && leading_is_point && nnz > 0 {
        let max_lead = (0..nnz).map(|i| keys[i * width]).max().unwrap_or(0);
        if let Ok(buckets) = usize::try_from(max_lead) {
            if buckets < 4 * nnz + 4096 {
                // Counting sort: histogram, exclusive prefix sum, then a
                // stable scatter of the old-order indices.
                let mut count = vec![0usize; buckets + 2];
                for i in 0..nnz {
                    count[keys[i * width] as usize + 1] += 1;
                }
                for b in 1..count.len() {
                    count[b] += count[b - 1];
                }
                let mut idx = vec![0usize; nnz];
                for i in 0..nnz {
                    let b = keys[i * width] as usize;
                    idx[count[b]] = i;
                    count[b] += 1;
                }
                return idx;
            }
        }
    }
    let mut idx: Vec<usize> = (0..nnz).collect();
    idx.sort_unstable_by(|&a, &b| {
        keys[a * width..(a + 1) * width].cmp(&keys[b * width..(b + 1) * width])
    });
    idx
}

/// Rebuilds a tensor from per-leaf coordinate paths (one coordinate per
/// rank, possibly tuples on flattened ranks).
///
/// Entries are sorted and grouped into a tree; duplicate paths keep the last
/// value.
pub fn from_coord_entries(
    name: &str,
    rank_ids: Vec<String>,
    rank_shapes: Vec<Shape>,
    entries: Vec<(Vec<Coord>, f64)>,
) -> Tensor {
    if rank_ids.is_empty() {
        let v = entries.last().map_or(0.0, |(_, v)| *v);
        return Tensor::from_parts(name, rank_ids, rank_shapes, Payload::Val(v));
    }
    let mut sorted: BTreeMap<Vec<Coord>, f64> = BTreeMap::new();
    for (p, v) in entries {
        sorted.insert(p, v);
    }
    let items: Vec<(Vec<Coord>, f64)> = sorted.into_iter().collect();
    let root = build_fiber(&items, 0, &rank_shapes);
    Tensor::from_parts(name, rank_ids, rank_shapes, Payload::Fiber(root))
}

fn build_fiber(items: &[(Vec<Coord>, f64)], depth: usize, shapes: &[Shape]) -> Fiber {
    let mut fiber = Fiber::new(shapes[depth].clone());
    let is_leaf = depth + 1 == shapes.len();
    let mut i = 0usize;
    while i < items.len() {
        let c = items[i].0[depth].clone();
        let mut j = i;
        while j < items.len() && items[j].0[depth] == c {
            j += 1;
        }
        let payload = if is_leaf {
            Payload::Val(items[j - 1].1)
        } else {
            Payload::Fiber(build_fiber(&items[i..j], depth + 1, shapes))
        };
        fiber
            .append(c, payload)
            .expect("grouped coordinates are strictly increasing");
        i = j;
    }
    fiber
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{fig1_matrix_a, TensorBuilder};

    #[test]
    fn swizzle_transposes_fig1_matrix() {
        // Fig. 4: A is swizzled offline to [K, M] for the outer-product
        // multiply phase.
        let a = fig1_matrix_a();
        let at = a.swizzle(&["K", "M"]).unwrap();
        assert_eq!(at.rank_ids(), &["K".to_string(), "M".to_string()]);
        // K fiber now has coordinates {0, 1, 2}.
        let root = at.root_fiber().unwrap();
        let ks: Vec<u64> = root.iter().map(|e| e.coord.as_point().unwrap()).collect();
        assert_eq!(ks, vec![0, 1, 2]);
        assert_eq!(at.get(&[2, 0]), Some(3.0));
        assert_eq!(at.get(&[0, 2]), Some(9.0));
    }

    #[test]
    fn swizzle_is_content_preserving() {
        let a = fig1_matrix_a();
        let back = a
            .swizzle(&["K", "M"])
            .unwrap()
            .swizzle(&["M", "K"])
            .unwrap();
        assert_eq!(back.max_abs_diff(&a), 0.0);
        assert_eq!(back.rank_shapes(), a.rank_shapes());
    }

    #[test]
    fn identity_swizzle_is_cheap_clone() {
        let a = fig1_matrix_a();
        let same = a.swizzle(&["M", "K"]).unwrap();
        assert_eq!(same, a);
    }

    #[test]
    fn bad_permutations_are_rejected() {
        let a = fig1_matrix_a();
        assert!(a.swizzle(&["M"]).is_err());
        assert!(a.swizzle(&["M", "M"]).is_err());
        assert!(a.swizzle(&["M", "Q"]).is_err());
    }

    #[test]
    fn three_rank_swizzle_permutes_points() {
        let t = TensorBuilder::new("T", &["M", "K", "N"], &[4, 4, 4])
            .entry(&[1, 2, 3], 5.0)
            .entry(&[0, 1, 2], 7.0)
            .build()
            .unwrap();
        let s = t.swizzle(&["N", "M", "K"]).unwrap();
        assert_eq!(s.get(&[3, 1, 2]), Some(5.0));
        assert_eq!(s.get(&[2, 0, 1]), Some(7.0));
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn from_coord_entries_builds_sorted_tree() {
        let t = from_coord_entries(
            "X",
            vec!["I".into(), "J".into()],
            vec![Shape::Interval(4), Shape::Interval(4)],
            vec![
                (vec![Coord::Point(3), Coord::Point(0)], 1.0),
                (vec![Coord::Point(0), Coord::Point(2)], 2.0),
                (vec![Coord::Point(0), Coord::Point(1)], 3.0),
            ],
        );
        assert_eq!(t.get(&[0, 1]), Some(3.0));
        assert_eq!(t.get(&[0, 2]), Some(2.0));
        assert_eq!(t.get(&[3, 0]), Some(1.0));
    }
}
