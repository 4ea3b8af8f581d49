//! Fibers: the coordinate/payload lists that make up a fibertree level.

use std::fmt;

use crate::coord::{Coord, Shape};
use crate::error::FibertreeError;

/// The payload of a fiber element: a scalar at the leaves, a child fiber at
/// intermediate levels.
#[derive(Clone, PartialEq, Debug)]
pub enum Payload {
    /// A scalar value (leaf of the fibertree).
    Val(f64),
    /// A reference to the fiber one rank below.
    Fiber(Fiber),
}

impl Payload {
    /// Returns the scalar value if this is a leaf payload.
    pub fn as_val(&self) -> Option<f64> {
        match self {
            Payload::Val(v) => Some(*v),
            Payload::Fiber(_) => None,
        }
    }

    /// Returns the child fiber if this is an intermediate payload.
    pub fn as_fiber(&self) -> Option<&Fiber> {
        match self {
            Payload::Val(_) => None,
            Payload::Fiber(f) => Some(f),
        }
    }

    /// Mutable access to the child fiber if this is an intermediate payload.
    pub fn as_fiber_mut(&mut self) -> Option<&mut Fiber> {
        match self {
            Payload::Val(_) => None,
            Payload::Fiber(f) => Some(f),
        }
    }

    /// Whether the payload is empty w.r.t. `zero`: a scalar equal to `zero`
    /// or a fiber with no elements.
    pub fn is_empty(&self, zero: f64) -> bool {
        match self {
            Payload::Val(v) => *v == zero,
            Payload::Fiber(f) => f.is_empty(),
        }
    }

    /// Number of scalar leaves reachable from this payload.
    pub fn leaf_count(&self) -> usize {
        match self {
            Payload::Val(_) => 1,
            Payload::Fiber(f) => f.iter().map(|e| e.payload.leaf_count()).sum(),
        }
    }
}

impl From<f64> for Payload {
    fn from(v: f64) -> Self {
        Payload::Val(v)
    }
}

impl From<Fiber> for Payload {
    fn from(f: Fiber) -> Self {
        Payload::Fiber(f)
    }
}

/// One coordinate/payload pair within a fiber.
#[derive(Clone, PartialEq, Debug)]
pub struct Element {
    /// The coordinate of this element within its fiber.
    pub coord: Coord,
    /// The value (leaf) or child fiber (intermediate) at that coordinate.
    pub payload: Payload,
}

impl Element {
    /// Creates an element from a coordinate and payload.
    pub fn new(coord: impl Into<Coord>, payload: impl Into<Payload>) -> Self {
        Element {
            coord: coord.into(),
            payload: payload.into(),
        }
    }
}

/// A fiber: the set of elements sharing all coordinates in all higher levels
/// of the fibertree (Sze et al. terminology, paper §2.1).
///
/// Elements are kept sorted by coordinate with no duplicates, which is what
/// makes concordant traversal (paper §3.2.2) a plain sequential walk and
/// two-finger intersection linear.
///
/// # Examples
///
/// ```
/// use teaal_fibertree::{Fiber, Shape};
/// let mut f = Fiber::new(Shape::Interval(6));
/// f.append(1u64, 2.0).unwrap();
/// f.append(5u64, 6.0).unwrap();
/// assert_eq!(f.occupancy(), 2);
/// assert_eq!(f.get(&1u64.into()).and_then(|p| p.as_val()), Some(2.0));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Fiber {
    shape: Shape,
    elems: Vec<Element>,
}

impl Fiber {
    /// Creates an empty fiber with the given shape.
    pub fn new(shape: impl Into<Shape>) -> Self {
        Fiber {
            shape: shape.into(),
            elems: Vec::new(),
        }
    }

    /// Builds a fiber from pre-sorted elements.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::Unsorted`] if coordinates are not strictly
    /// increasing, or [`FibertreeError::OutOfShape`] if any coordinate falls
    /// outside `shape`.
    pub fn from_sorted(
        shape: impl Into<Shape>,
        elems: Vec<Element>,
    ) -> Result<Self, FibertreeError> {
        let shape = shape.into();
        for w in elems.windows(2) {
            if w[0].coord >= w[1].coord {
                return Err(FibertreeError::Unsorted {
                    prev: w[0].coord.clone(),
                    next: w[1].coord.clone(),
                });
            }
        }
        if let Some(e) = elems.iter().find(|e| !shape.contains(&e.coord)) {
            return Err(FibertreeError::OutOfShape {
                coord: e.coord.clone(),
                shape,
            });
        }
        Ok(Fiber { shape, elems })
    }

    /// Builds a leaf fiber from `(coordinate, value)` pairs, sorting them.
    ///
    /// # Errors
    ///
    /// Returns an error if a coordinate is duplicated or out of shape.
    pub fn from_pairs(
        shape: impl Into<Shape>,
        pairs: impl IntoIterator<Item = (u64, f64)>,
    ) -> Result<Self, FibertreeError> {
        let mut elems: Vec<Element> = pairs.into_iter().map(|(c, v)| Element::new(c, v)).collect();
        elems.sort_by(|a, b| a.coord.cmp(&b.coord));
        Self::from_sorted(shape, elems)
    }

    /// The shape (legal coordinate space) of this fiber.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Replaces the shape of this fiber (used by transforms that change the
    /// coordinate system but not the content).
    pub fn set_shape(&mut self, shape: Shape) {
        self.shape = shape;
    }

    /// Number of (present) elements in the fiber.
    pub fn occupancy(&self) -> usize {
        self.elems.len()
    }

    /// Whether the fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Iterates over the elements in coordinate order.
    pub fn iter(&self) -> std::slice::Iter<'_, Element> {
        self.elems.iter()
    }

    /// Mutable iteration over the elements in coordinate order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Element> {
        self.elems.iter_mut()
    }

    /// The elements as a slice.
    pub fn elements(&self) -> &[Element] {
        &self.elems
    }

    /// Consumes the fiber, returning its elements.
    pub fn into_elements(self) -> Vec<Element> {
        self.elems
    }

    /// Binary-searches for `coord`, returning its payload if present.
    pub fn get(&self, coord: &Coord) -> Option<&Payload> {
        self.position(coord).map(|i| &self.elems[i].payload)
    }

    /// Mutable payload lookup by coordinate.
    pub fn get_mut(&mut self, coord: &Coord) -> Option<&mut Payload> {
        match self.elems.binary_search_by(|e| e.coord.cmp(coord)) {
            Ok(i) => Some(&mut self.elems[i].payload),
            Err(_) => None,
        }
    }

    /// The position (index) of `coord` within the fiber, if present.
    pub fn position(&self, coord: &Coord) -> Option<usize> {
        self.elems.binary_search_by(|e| e.coord.cmp(coord)).ok()
    }

    /// Appends an element whose coordinate must exceed all existing ones.
    ///
    /// This is the concordant-write path: outputs built in loop order only
    /// ever append.
    ///
    /// # Errors
    ///
    /// Returns [`FibertreeError::Unsorted`] if `coord` is not strictly
    /// greater than the last coordinate.
    pub fn append(
        &mut self,
        coord: impl Into<Coord>,
        payload: impl Into<Payload>,
    ) -> Result<(), FibertreeError> {
        let coord = coord.into();
        if let Some(last) = self.elems.last() {
            if last.coord >= coord {
                return Err(FibertreeError::Unsorted {
                    prev: last.coord.clone(),
                    next: coord,
                });
            }
        }
        self.elems.push(Element {
            coord,
            payload: payload.into(),
        });
        Ok(())
    }

    /// Gets the payload at `coord`, inserting `default()` if absent.
    ///
    /// This is the fibertree `getPayloadRef` / populate primitive: output
    /// fibers grow on demand as the loop nest discovers nonzero results.
    pub fn get_or_insert_with(
        &mut self,
        coord: &Coord,
        default: impl FnOnce() -> Payload,
    ) -> &mut Payload {
        match self.elems.binary_search_by(|e| e.coord.cmp(coord)) {
            Ok(i) => &mut self.elems[i].payload,
            Err(i) => {
                self.elems.insert(
                    i,
                    Element {
                        coord: coord.clone(),
                        payload: default(),
                    },
                );
                &mut self.elems[i].payload
            }
        }
    }

    /// Removes elements whose payload is empty w.r.t. `zero`, recursively.
    ///
    /// Sparse fibertrees omit empty payloads (paper §2.1); this restores
    /// that invariant after in-place updates.
    pub fn prune(&mut self, zero: f64) {
        for e in &mut self.elems {
            if let Payload::Fiber(f) = &mut e.payload {
                f.prune(zero);
            }
        }
        self.elems.retain(|e| !e.payload.is_empty(zero));
    }

    /// Total number of scalar leaves beneath this fiber.
    pub fn leaf_count(&self) -> usize {
        self.elems.iter().map(|e| e.payload.leaf_count()).sum()
    }

    /// Per-level statistics: `(fiber count, total occupancy)` for each level
    /// of the subtree rooted at this fiber, starting with this fiber's level.
    pub fn level_stats(&self) -> Vec<(usize, usize)> {
        let mut stats: Vec<(usize, usize)> = Vec::new();
        fn walk(f: &Fiber, depth: usize, stats: &mut Vec<(usize, usize)>) {
            if stats.len() <= depth {
                stats.resize(depth + 1, (0, 0));
            }
            stats[depth].0 += 1;
            stats[depth].1 += f.occupancy();
            for e in f.iter() {
                if let Payload::Fiber(child) = &e.payload {
                    walk(child, depth + 1, stats);
                }
            }
        }
        walk(self, 0, &mut stats);
        stats
    }
}

impl fmt::Display for Fiber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &e.payload {
                Payload::Val(v) => write!(f, "{}: {v}", e.coord)?,
                Payload::Fiber(inner) => write!(f, "{}: {inner}", e.coord)?,
            }
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Fiber {
    type Item = &'a Element;
    type IntoIter = std::slice::Iter<'a, Element>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(pairs: &[(u64, f64)]) -> Fiber {
        Fiber::from_pairs(Shape::Interval(100), pairs.iter().copied()).expect("valid fiber")
    }

    #[test]
    fn from_pairs_sorts_and_validates() {
        let f = leaf(&[(5, 1.0), (1, 2.0)]);
        let coords: Vec<u64> = f.iter().map(|e| e.coord.as_point().unwrap()).collect();
        assert_eq!(coords, vec![1, 5]);
    }

    #[test]
    fn duplicate_coordinates_are_rejected() {
        let err = Fiber::from_pairs(Shape::Interval(10), [(1, 1.0), (1, 2.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn out_of_shape_is_rejected() {
        let err = Fiber::from_pairs(Shape::Interval(4), [(7, 1.0)]);
        assert!(matches!(err, Err(FibertreeError::OutOfShape { .. })));
    }

    #[test]
    fn get_uses_binary_search() {
        let f = leaf(&[(1, 2.0), (5, 6.0), (9, 10.0)]);
        assert_eq!(f.get(&5u64.into()).and_then(Payload::as_val), Some(6.0));
        assert_eq!(f.get(&4u64.into()), None);
        assert_eq!(f.position(&9u64.into()), Some(2));
    }

    #[test]
    fn append_enforces_order() {
        let mut f = Fiber::new(Shape::Interval(10));
        f.append(3u64, 1.0).unwrap();
        assert!(f.append(3u64, 2.0).is_err());
        assert!(f.append(2u64, 2.0).is_err());
        f.append(7u64, 2.0).unwrap();
        assert_eq!(f.occupancy(), 2);
    }

    #[test]
    fn get_or_insert_keeps_sorted() {
        let mut f = leaf(&[(2, 1.0), (8, 2.0)]);
        let p = f.get_or_insert_with(&5u64.into(), || Payload::Val(0.0));
        *p = Payload::Val(42.0);
        let coords: Vec<u64> = f.iter().map(|e| e.coord.as_point().unwrap()).collect();
        assert_eq!(coords, vec![2, 5, 8]);
        assert_eq!(f.get(&5u64.into()).and_then(Payload::as_val), Some(42.0));
    }

    #[test]
    fn prune_removes_empty_payloads_recursively() {
        let inner_empty = Fiber::new(Shape::Interval(4));
        let inner_zero = leaf(&[(0, 0.0)]);
        let inner_ok = leaf(&[(1, 3.0)]);
        let mut root = Fiber::from_sorted(
            Shape::Interval(8),
            vec![
                Element::new(0u64, inner_empty),
                Element::new(1u64, inner_zero),
                Element::new(2u64, inner_ok),
            ],
        )
        .unwrap();
        root.prune(0.0);
        assert_eq!(root.occupancy(), 1);
        assert_eq!(root.iter().next().unwrap().coord, Coord::Point(2));
    }

    #[test]
    fn level_stats_counts_fibers_and_occupancy() {
        let row0 = leaf(&[(0, 1.0), (2, 2.0)]);
        let row1 = leaf(&[(1, 3.0)]);
        let root = Fiber::from_sorted(
            Shape::Interval(4),
            vec![Element::new(0u64, row0), Element::new(3u64, row1)],
        )
        .unwrap();
        let stats = root.level_stats();
        assert_eq!(stats, vec![(1, 2), (2, 3)]);
        assert_eq!(root.leaf_count(), 3);
    }

    #[test]
    fn display_matches_fibertree_notation() {
        let f = leaf(&[(1, 2.0), (3, 4.0)]);
        assert_eq!(f.to_string(), "[1: 2, 3: 4]");
    }
}
