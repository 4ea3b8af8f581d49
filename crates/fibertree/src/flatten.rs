//! Rank flattening and unflattening (Fig. 2 of the paper).
//!
//! Flattening combines two adjacent ranks into one whose coordinates are
//! tuples of the original coordinates. Combined with occupancy partitioning
//! it is the paper's tool for globally load-balancing irregular fibers
//! (§3.2.1): flatten first, then re-partition so every partition holds the
//! same number of values.

use crate::compressed::{CompressedTensor, HashMemo, Level};
use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;

impl Tensor {
    /// Flattens rank `upper` with the rank immediately below it, producing a
    /// single rank named `new_name` with tuple coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::UnknownRank`] if `upper` is missing or is
    /// the bottom rank (there is nothing below to flatten with).
    ///
    /// # Examples
    ///
    /// ```
    /// use teaal_fibertree::tensor::fig1_matrix_a;
    /// use teaal_fibertree::Coord;
    /// let a = fig1_matrix_a(); // [M, K], 4 nonzeros
    /// let flat = a.flatten_rank("M", "MK").unwrap();
    /// assert_eq!(flat.rank_ids(), &["MK".to_string()]);
    /// assert_eq!(flat.root_fiber().unwrap().occupancy(), 4);
    /// assert_eq!(
    ///     flat.root_fiber().unwrap().get(&Coord::pair(0, 2)).and_then(|p| p.as_val()),
    ///     Some(3.0),
    /// );
    /// ```
    pub fn flatten_rank(&self, upper: &str, new_name: &str) -> Result<Tensor, FibertreeError> {
        let d = self.rank_index(upper)?;
        if d + 1 >= self.order() {
            return Err(FibertreeError::UnknownRank {
                rank: format!("{upper} (no rank below to flatten with)"),
                have: self.rank_ids().to_vec(),
            });
        }
        let mut rank_ids = self.rank_ids().to_vec();
        let mut shapes = self.rank_shapes().to_vec();
        let flat_shape = shapes[d].flattened_with(&shapes[d + 1]);
        rank_ids.splice(d..=d + 1, [new_name.to_string()]);
        shapes.splice(d..=d + 1, [flat_shape.clone()]);

        let root = match self.root() {
            Payload::Val(v) => Payload::Val(*v),
            Payload::Fiber(f) => Payload::Fiber(flatten_at(f, d, &flat_shape)),
        };
        Ok(Tensor::from_parts(self.name(), rank_ids, shapes, root))
    }

    /// Splits a flattened rank back into its components.
    ///
    /// `names` gives the new rank names top-to-bottom and must have one
    /// entry per tuple component; `shapes` likewise. This is the inverse of
    /// [`Tensor::flatten_rank`] for two components.
    ///
    /// # Errors
    ///
    /// Returns an error if `rank` is missing or its coordinates are not
    /// tuples of arity `names.len()`.
    pub fn unflatten_rank(
        &self,
        rank: &str,
        names: &[&str],
        shapes: &[Shape],
    ) -> Result<Tensor, FibertreeError> {
        let d = self.rank_index(rank)?;
        let mut rank_ids = self.rank_ids().to_vec();
        let mut rank_shapes = self.rank_shapes().to_vec();
        rank_ids.splice(d..=d, names.iter().map(|s| s.to_string()));
        rank_shapes.splice(d..=d, shapes.iter().cloned());

        let root = match self.root() {
            Payload::Val(v) => Payload::Val(*v),
            Payload::Fiber(f) => Payload::Fiber(unflatten_at(f, d, names.len(), shapes)?),
        };
        Ok(Tensor::from_parts(self.name(), rank_ids, rank_shapes, root))
    }
}

impl CompressedTensor {
    /// Flattens rank `upper` with the rank immediately below it into a
    /// tuple-coordinate rank — the compressed-native counterpart of
    /// [`Tensor::flatten_rank`], bit-identical to compressing its result
    /// at any flatten depth.
    ///
    /// Runs as pure segment fusion: the fused level's trailing components
    /// *are* the old lower level's component stores (reused as-is), the
    /// leading components are the old upper level's stores expanded by
    /// child count, and the fused segment list is the upper segment list
    /// composed through the lower one. Everything below — and the value
    /// arena — is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::UnknownRank`] if `upper` is missing or is
    /// the bottom rank.
    pub fn flatten_rank(
        &self,
        upper: &str,
        new_name: &str,
    ) -> Result<CompressedTensor, FibertreeError> {
        let d = self.rank_index(upper)?;
        if d + 1 >= self.order() {
            return Err(FibertreeError::UnknownRank {
                rank: format!("{upper} (no rank below to flatten with)"),
                have: self.rank_ids().to_vec(),
            });
        }
        let (lu, ll) = (&self.levels[d], &self.levels[d + 1]);
        let mut rank_ids = self.rank_ids().to_vec();
        let mut shapes = self.rank_shapes().to_vec();
        let flat_shape = shapes[d].flattened_with(&shapes[d + 1]);
        rank_ids.splice(d..=d + 1, [new_name.to_string()]);
        shapes.splice(d..=d + 1, [flat_shape]);

        // The upper level's components, expanded per child count, lead;
        // the lower level's component stores follow unchanged.
        let mut upper_stores = Vec::with_capacity(lu.arity() + ll.upper.len());
        for store in lu.upper.iter().chain([&lu.coords]) {
            let mut expanded = store.new_like();
            for p in 0..lu.len() {
                let c = store.get(p);
                for _ in ll.segs[p]..ll.segs[p + 1] {
                    expanded.push(c);
                }
            }
            upper_stores.push(expanded);
        }
        upper_stores.extend(ll.upper.iter().cloned());
        // Fused fiber boundaries: the upper segment list composed through
        // the lower one.
        let segs: Vec<usize> = lu.segs.iter().map(|&f| ll.segs[f]).collect();
        let fused = Level {
            segs,
            upper: upper_stores,
            coords: ll.coords.clone(),
        };
        let mut levels = self.levels.clone();
        levels.splice(d..=d + 1, [fused]);
        Ok(CompressedTensor {
            name: self.name.clone(),
            rank_ids,
            rank_shapes: shapes,
            levels,
            values: self.values.clone(),
            content_hash: HashMemo::default(),
        })
    }
}

fn flatten_at(f: &Fiber, depth: usize, flat_shape: &Shape) -> Fiber {
    if depth == 0 {
        let mut out = Fiber::new(flat_shape.clone());
        for e in f.iter() {
            let child = e
                .payload
                .as_fiber()
                .expect("flattening requires a fiber payload below the upper rank");
            for inner in child.iter() {
                let c = e.coord.flattened_with(&inner.coord);
                out.append(c, inner.payload.clone())
                    .expect("depth-first traversal yields sorted tuple coordinates");
            }
        }
        out
    } else {
        let mut out = Fiber::new(f.shape().clone());
        for e in f.iter() {
            let child = e.payload.as_fiber().expect("interior payloads are fibers");
            out.append(e.coord.clone(), flatten_at(child, depth - 1, flat_shape))
                .expect("coordinate order unchanged above the flattened rank");
        }
        out
    }
}

fn unflatten_at(
    f: &Fiber,
    depth: usize,
    arity: usize,
    shapes: &[Shape],
) -> Result<Fiber, FibertreeError> {
    if depth == 0 {
        unflatten_fiber(f, arity, shapes)
    } else {
        let mut out = Fiber::new(f.shape().clone());
        for e in f.iter() {
            let child = e.payload.as_fiber().expect("interior payloads are fibers");
            out.append(
                e.coord.clone(),
                unflatten_at(child, depth - 1, arity, shapes)?,
            )
            .expect("coordinate order unchanged above the unflattened rank");
        }
        Ok(out)
    }
}

fn unflatten_fiber(f: &Fiber, arity: usize, shapes: &[Shape]) -> Result<Fiber, FibertreeError> {
    let mut out = Fiber::new(shapes[0].clone());
    for e in f.iter() {
        let comps = e.coord.components();
        if comps.len() < arity {
            return Err(FibertreeError::ArityMismatch {
                expected: arity,
                got: comps.len(),
            });
        }
        // Group the leading component; re-tuple the remainder.
        let first = comps[0].clone();
        let rest: Coord = if comps.len() == arity && arity == 2 {
            comps[1].clone()
        } else {
            Coord::Tuple(comps[1..].to_vec())
        };
        let child_shapes = &shapes[1..];
        let child = out.get_or_insert_with(&first, || {
            Payload::Fiber(Fiber::new(child_shapes[0].clone()))
        });
        let child = child.as_fiber_mut().expect("just inserted a fiber payload");
        if arity == 2 {
            child
                .append(rest, e.payload.clone())
                .expect("lexicographic order preserves per-group order");
        } else {
            // Recursive unflatten for arity > 2: insert under nested tuples.
            let tail = child.get_or_insert_with(&rest, || e.payload.clone());
            *tail = e.payload.clone();
        }
    }
    if arity > 2 {
        // Recursively unflatten the tail rank.
        let mut fixed = Fiber::new(shapes[0].clone());
        for e in out.iter() {
            let child = e.payload.as_fiber().expect("children are fibers");
            fixed
                .append(
                    e.coord.clone(),
                    unflatten_fiber(child, arity - 1, &shapes[1..])?,
                )
                .expect("order preserved");
        }
        return Ok(fixed);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{fig1_matrix_a, TensorBuilder};

    #[test]
    fn flatten_matches_fig2() {
        // Fig. 2 flattens ranks M, K of the Fig. 1 matrix: coordinates
        // become (0,2), (2,0), (2,1), (2,2).
        let a = fig1_matrix_a();
        let flat = a.flatten_rank("M", "MK").unwrap();
        let coords: Vec<Coord> = flat
            .root_fiber()
            .unwrap()
            .iter()
            .map(|e| e.coord.clone())
            .collect();
        assert_eq!(
            coords,
            vec![
                Coord::pair(0, 2),
                Coord::pair(2, 0),
                Coord::pair(2, 1),
                Coord::pair(2, 2)
            ]
        );
    }

    #[test]
    fn flatten_preserves_leaf_count_and_values() {
        let a = fig1_matrix_a();
        let flat = a.flatten_rank("M", "MK").unwrap();
        assert_eq!(flat.nnz(), a.nnz());
        let vals: Vec<f64> = flat.leaves().into_iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![3.0, 9.0, 4.0, 5.0]);
    }

    #[test]
    fn unflatten_inverts_flatten() {
        let a = fig1_matrix_a();
        let flat = a.flatten_rank("M", "MK").unwrap();
        let back = flat
            .unflatten_rank("MK", &["M", "K"], &[Shape::Interval(4), Shape::Interval(3)])
            .unwrap();
        assert_eq!(back.max_abs_diff(&a), 0.0);
        assert_eq!(back.rank_ids(), a.rank_ids());
    }

    #[test]
    fn flatten_below_top_rank() {
        let t = TensorBuilder::new("T", &["M", "K", "N"], &[2, 2, 2])
            .entry(&[0, 1, 0], 1.0)
            .entry(&[1, 0, 1], 2.0)
            .build()
            .unwrap();
        let flat = t.flatten_rank("K", "KN").unwrap();
        assert_eq!(flat.rank_ids(), &["M".to_string(), "KN".to_string()]);
        assert_eq!(flat.nnz(), 2);
        let back = flat
            .unflatten_rank("KN", &["K", "N"], &[Shape::Interval(2), Shape::Interval(2)])
            .unwrap();
        assert_eq!(back.max_abs_diff(&t), 0.0);
    }

    #[test]
    fn flatten_bottom_rank_is_an_error() {
        let a = fig1_matrix_a();
        assert!(a.flatten_rank("K", "KX").is_err());
        assert!(a.flatten_rank("Q", "QX").is_err());
    }

    #[test]
    fn flatten_shape_is_tuple_of_components() {
        let a = fig1_matrix_a();
        let flat = a.flatten_rank("M", "MK").unwrap();
        assert_eq!(
            flat.rank_shapes()[0],
            Shape::Tuple(vec![Shape::Interval(4), Shape::Interval(3)])
        );
    }
}
