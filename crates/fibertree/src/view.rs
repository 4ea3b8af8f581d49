//! Read-only cursors over fibertree storage: [`FiberView`],
//! [`PayloadView`], and the representation-erasing [`TensorData`].
//!
//! A `FiberView` is a cheap `Copy` cursor onto one fiber, regardless of
//! whether that fiber lives in an owned [`Fiber`] tree or in a
//! [`CompressedTensor`]'s flat arrays. The streaming co-iteration layer
//! ([`crate::iterate`]) and the simulator's engine drive these cursors
//! end-to-end, so the hot path neither clones subtrees nor cares which
//! representation a tensor arrived in.

use std::cmp::Ordering;

use crate::compressed::CompressedTensor;
use crate::coord::{Coord, Shape};
use crate::fiber::{Fiber, Payload};
use crate::tensor::Tensor;

/// A read-only cursor onto one fiber of either representation.
///
/// Positions index the fiber's elements in coordinate order, exactly like
/// [`Fiber::elements`]. All accessors are `O(1)` or a binary search
/// (except [`FiberView::leaf_count`] — see its docs); none allocate
/// except [`FiberView::coord_at`] on tuple coordinates.
#[derive(Clone, Copy, Debug)]
pub enum FiberView<'a> {
    /// A fiber of an owned tree.
    Owned(&'a Fiber),
    /// A fiber of a compressed tensor: the elements
    /// `coords[level][start..end]`.
    Compressed {
        /// The backing compressed tensor.
        tree: &'a CompressedTensor,
        /// The rank (level) this fiber sits at.
        level: usize,
        /// First element position (inclusive) in the level's flat arrays.
        start: usize,
        /// Last element position (exclusive).
        end: usize,
    },
}

/// What a fiber element holds: a scalar leaf or the fiber one rank below.
#[derive(Clone, Copy, Debug)]
pub enum PayloadView<'a> {
    /// A scalar value (leaf).
    Val(f64),
    /// The child fiber.
    Fiber(FiberView<'a>),
}

/// A borrowed-or-inline coordinate, for comparisons that must not
/// allocate: owned fibers lend `&Coord` (possibly a tuple), compressed
/// fibers produce inline points, or borrow a flattened rank's tuple in
/// place.
#[derive(Clone, Copy, Debug)]
pub enum CoordKey<'a> {
    /// A coordinate borrowed from an owned fiber.
    Borrowed(&'a Coord),
    /// An inline point coordinate from a compressed fiber.
    Point(u64),
    /// A tuple coordinate of a compressed flattened rank, of any arity:
    /// element `pos` of rank `level` in `tree`, read in place.
    Tuple {
        /// The backing compressed tensor.
        tree: &'a CompressedTensor,
        /// The flattened rank (level).
        level: usize,
        /// The element's position in the level's flat arrays.
        pos: usize,
    },
}

impl CoordKey<'_> {
    /// Total order, agreeing with [`Coord`]'s `Ord` (points before
    /// tuples, tuples lexicographic).
    #[inline]
    pub fn cmp_key(&self, other: &CoordKey<'_>) -> Ordering {
        match (self, other) {
            (CoordKey::Point(a), CoordKey::Point(b)) => a.cmp(b),
            (CoordKey::Tuple { tree, level, pos }, _) => tree.cmp_key_at(*level, *pos, other),
            (_, CoordKey::Tuple { tree, level, pos }) => {
                tree.cmp_key_at(*level, *pos, self).reverse()
            }
            (CoordKey::Borrowed(a), _) => other.cmp_coord(a).reverse(),
            (_, CoordKey::Borrowed(b)) => self.cmp_coord(b),
        }
    }

    /// Comparison against a materialized coordinate.
    #[inline]
    pub fn cmp_coord(&self, other: &Coord) -> Ordering {
        match self {
            CoordKey::Borrowed(a) => (*a).cmp(other),
            CoordKey::Point(a) => Coord::Point(*a).cmp(other),
            CoordKey::Tuple { tree, level, pos } => {
                tree.cmp_key_at(*level, *pos, &CoordKey::Borrowed(other))
            }
        }
    }

    /// Materializes the coordinate (clones tuples, copies points).
    #[inline]
    pub fn to_coord(&self) -> Coord {
        match self {
            CoordKey::Borrowed(c) => (*c).clone(),
            CoordKey::Point(p) => Coord::Point(*p),
            CoordKey::Tuple { tree, level, pos } => tree.coord_at_level(*level, *pos),
        }
    }
}

impl<'a> FiberView<'a> {
    /// A cursor onto a compressed tensor's root fiber (`None` for
    /// scalars).
    pub fn of_compressed(tree: &'a CompressedTensor) -> Option<FiberView<'a>> {
        if tree.order() == 0 {
            None
        } else {
            Some(FiberView::Compressed {
                tree,
                level: 0,
                start: 0,
                end: tree.level_len(0),
            })
        }
    }

    /// Number of (present) elements in the fiber.
    #[inline]
    pub fn occupancy(&self) -> usize {
        match self {
            FiberView::Owned(f) => f.occupancy(),
            FiberView::Compressed { start, end, .. } => end - start,
        }
    }

    /// Whether the fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// The fiber's shape (legal coordinate space).
    pub fn shape(&self) -> Shape {
        match self {
            FiberView::Owned(f) => f.shape().clone(),
            FiberView::Compressed { tree, level, .. } => tree.rank_shapes()[*level].clone(),
        }
    }

    /// The coordinate at `pos`, materialized.
    pub fn coord_at(&self, pos: usize) -> Coord {
        self.coord_key_at(pos).to_coord()
    }

    /// The coordinate at `pos` as an allocation-free comparison key.
    #[inline]
    pub fn coord_key_at(&self, pos: usize) -> CoordKey<'a> {
        match self {
            FiberView::Owned(f) => CoordKey::Borrowed(&f.elements()[pos].coord),
            FiberView::Compressed {
                tree, level, start, ..
            } => tree.coord_key(*level, start + pos),
        }
    }

    /// The payload at `pos`.
    #[inline]
    pub fn payload_at(&self, pos: usize) -> PayloadView<'a> {
        match self {
            FiberView::Owned(f) => PayloadView::of(&f.elements()[pos].payload),
            FiberView::Compressed {
                tree, level, start, ..
            } => {
                let p = start + pos;
                if level + 1 == tree.order() {
                    PayloadView::Val(tree.value_at(p))
                } else {
                    let (cs, ce) = tree.child_range(*level, p);
                    PayloadView::Fiber(FiberView::Compressed {
                        tree,
                        level: level + 1,
                        start: cs,
                        end: ce,
                    })
                }
            }
        }
    }

    /// A stable identity for the element at `pos`, unique within the
    /// backing storage for the lifetime of the borrow. The simulator's
    /// instrumentation uses this to deduplicate touches; the value itself
    /// carries no meaning.
    #[inline]
    pub fn payload_key(&self, pos: usize) -> usize {
        match self {
            FiberView::Owned(f) => &f.elements()[pos].payload as *const Payload as usize,
            FiberView::Compressed {
                tree, level, start, ..
            } => tree.payload_key(*level, start + pos),
        }
    }

    /// Binary-searches for `coord`, returning its position if present.
    pub fn position(&self, coord: &Coord) -> Option<usize> {
        match self {
            FiberView::Owned(f) => f.position(coord),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree
                .position_in(*level, *start, *end, &CoordKey::Borrowed(coord))
                .map(|p| p - start),
        }
    }

    /// Binary-searches for a comparison key, returning its position.
    pub fn position_of_key(&self, key: &CoordKey<'_>) -> Option<usize> {
        match self {
            FiberView::Owned(f) => f
                .elements()
                .binary_search_by(|e| key.cmp_coord(&e.coord).reverse())
                .ok(),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree
                .position_in(*level, *start, *end, key)
                .map(|p| p - start),
        }
    }

    /// Looks up the payload stored at `coord`.
    pub fn get(&self, coord: &Coord) -> Option<PayloadView<'a>> {
        self.position(coord).map(|p| self.payload_at(p))
    }

    /// Iterates `(coordinate, payload)` pairs in coordinate order.
    pub fn iter(&self) -> FiberViewIter<'a> {
        FiberViewIter {
            view: *self,
            pos: 0,
        }
    }

    /// Number of scalar leaves beneath this fiber (`O(subtree)` for
    /// owned trees, `O(depth)` for compressed storage — a range's
    /// children are a contiguous range, so each rank is two segment
    /// lookups).
    pub fn leaf_count(&self) -> usize {
        match self {
            FiberView::Owned(f) => f.leaf_count(),
            FiberView::Compressed {
                tree,
                level,
                start,
                end,
            } => tree.leaf_count_in(*level, *start, *end),
        }
    }
}

/// Iterator over a [`FiberView`]'s elements.
#[derive(Clone, Debug)]
pub struct FiberViewIter<'a> {
    view: FiberView<'a>,
    pos: usize,
}

impl<'a> Iterator for FiberViewIter<'a> {
    type Item = (Coord, PayloadView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.view.occupancy() {
            return None;
        }
        let item = (self.view.coord_at(self.pos), self.view.payload_at(self.pos));
        self.pos += 1;
        Some(item)
    }
}

impl<'a> PayloadView<'a> {
    /// Wraps a borrowed owned-tree payload.
    pub fn of(p: &'a Payload) -> Self {
        match p {
            Payload::Val(v) => PayloadView::Val(*v),
            Payload::Fiber(f) => PayloadView::Fiber(FiberView::Owned(f)),
        }
    }

    /// The scalar value if this is a leaf payload.
    pub fn as_val(&self) -> Option<f64> {
        match self {
            PayloadView::Val(v) => Some(*v),
            PayloadView::Fiber(_) => None,
        }
    }

    /// The child fiber view if this is an intermediate payload.
    pub fn as_fiber(&self) -> Option<FiberView<'a>> {
        match self {
            PayloadView::Val(_) => None,
            PayloadView::Fiber(f) => Some(*f),
        }
    }
}

/// A tensor in either representation, presented uniformly.
///
/// The simulator takes its inputs as `TensorData` in either
/// representation and streams them through [`TensorData::root_view`]
/// cursors; everything it transforms or produces is compressed storage.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorData {
    /// An owned fibertree.
    Owned(Tensor),
    /// Compressed (CSF) storage.
    Compressed(CompressedTensor),
}

impl TensorData {
    /// The tensor's name.
    pub fn name(&self) -> &str {
        match self {
            TensorData::Owned(t) => t.name(),
            TensorData::Compressed(c) => c.name(),
        }
    }

    /// The labelled ranks, top-to-bottom.
    pub fn rank_ids(&self) -> &[String] {
        match self {
            TensorData::Owned(t) => t.rank_ids(),
            TensorData::Compressed(c) => c.rank_ids(),
        }
    }

    /// The per-rank shapes, in rank order.
    pub fn rank_shapes(&self) -> &[Shape] {
        match self {
            TensorData::Owned(t) => t.rank_shapes(),
            TensorData::Compressed(c) => c.rank_shapes(),
        }
    }

    /// Number of ranks.
    pub fn order(&self) -> usize {
        self.rank_ids().len()
    }

    /// Number of stored leaves.
    pub fn nnz(&self) -> usize {
        match self {
            TensorData::Owned(t) => t.nnz(),
            TensorData::Compressed(c) => c.nnz(),
        }
    }

    /// Per-rank `(fiber count, total occupancy)` statistics.
    pub fn rank_stats(&self) -> Vec<(usize, usize)> {
        match self {
            TensorData::Owned(t) => t.rank_stats(),
            TensorData::Compressed(c) => c.rank_stats(),
        }
    }

    /// A cursor onto the root payload.
    pub fn root_view(&self) -> PayloadView<'_> {
        match self {
            TensorData::Owned(t) => PayloadView::of(t.root()),
            TensorData::Compressed(c) => {
                if c.order() == 0 {
                    PayloadView::Val(c.values()[0])
                } else {
                    PayloadView::Fiber(FiberView::Compressed {
                        tree: c,
                        level: 0,
                        start: 0,
                        end: c.level_len(0),
                    })
                }
            }
        }
    }

    /// The root fiber view, if this is not a scalar.
    pub fn root_fiber_view(&self) -> Option<FiberView<'_>> {
        self.root_view().as_fiber()
    }

    /// Looks up the value at a point, in either representation.
    pub fn get(&self, point: &[u64]) -> Option<f64> {
        match self {
            TensorData::Owned(t) => t.get(point),
            TensorData::Compressed(c) => c.get(point),
        }
    }

    /// Enumerates `(path, value)` for every nonzero leaf (coordinates may
    /// be tuples on flattened ranks), in lexicographic order.
    pub fn leaves(&self) -> Vec<(Vec<Coord>, f64)> {
        match self {
            TensorData::Owned(t) => t.leaves(),
            TensorData::Compressed(c) => c.leaves(),
        }
    }

    /// Enumerates `(point, value)` for every nonzero leaf, in
    /// lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if a flattened (tuple-coordinate) rank is encountered.
    pub fn entries(&self) -> Vec<(Vec<u64>, f64)> {
        match self {
            TensorData::Owned(t) => t.entries(),
            TensorData::Compressed(c) => c.entries(),
        }
    }

    /// Maximum elementwise absolute difference against another tensor in
    /// either representation — convenience for functional validation,
    /// without decompressing either side.
    pub fn max_abs_diff(&self, other: &TensorData) -> f64 {
        let mut points: std::collections::BTreeMap<Vec<Coord>, (f64, f64)> =
            std::collections::BTreeMap::new();
        for (p, v) in self.leaves() {
            points.entry(p).or_insert((0.0, 0.0)).0 = v;
        }
        for (p, v) in other.leaves() {
            points.entry(p).or_insert((0.0, 0.0)).1 = v;
        }
        points
            .values()
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether this is the compressed representation.
    pub fn is_compressed(&self) -> bool {
        matches!(self, TensorData::Compressed(_))
    }

    /// Stable FNV-1a content hash: name, rank labels, shapes, and every
    /// nonzero leaf (coordinates tagged, values by bit pattern).
    ///
    /// The hash is representation-independent — an owned tensor and its
    /// compressed form hash equally — so it can key shared caches (the
    /// report, transform and statistics caches) no matter which storage
    /// a tensor arrived in.
    ///
    /// A compressed tensor memoizes its hash: the first call costs one
    /// full [`TensorData::leaves`] walk, every later call on the same
    /// tensor (or a clone of it) is O(1). An owned tensor is mutable, so
    /// it is walked on every call.
    pub fn content_hash(&self) -> u64 {
        match self {
            TensorData::Owned(_) => self.walk_content_hash(),
            TensorData::Compressed(c) => c.content_hash.get_or_init(|| self.walk_content_hash()),
        }
    }

    /// The one definition of [`TensorData::content_hash`]: FNV-1a over
    /// the `tensor-content-v1` byte stream.
    fn walk_content_hash(&self) -> u64 {
        fn absorb(state: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *state ^= u64::from(b);
                *state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn absorb_u64(state: &mut u64, v: u64) {
            absorb(state, &v.to_le_bytes());
        }
        fn absorb_str(state: &mut u64, s: &str) {
            absorb_u64(state, s.len() as u64);
            absorb(state, s.as_bytes());
        }
        fn absorb_shape(state: &mut u64, shape: &Shape) {
            match shape {
                Shape::Interval(n) => {
                    absorb_u64(state, 0);
                    absorb_u64(state, *n);
                }
                Shape::Tuple(parts) => {
                    absorb_u64(state, 1);
                    absorb_u64(state, parts.len() as u64);
                    for p in parts {
                        absorb_shape(state, p);
                    }
                }
            }
        }
        fn absorb_coord(state: &mut u64, coord: &Coord) {
            match coord {
                Coord::Point(p) => {
                    absorb_u64(state, 0);
                    absorb_u64(state, *p);
                }
                Coord::Tuple(parts) => {
                    absorb_u64(state, 1);
                    absorb_u64(state, parts.len() as u64);
                    for p in parts {
                        absorb_coord(state, p);
                    }
                }
            }
        }
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        absorb_str(&mut state, "tensor-content-v1");
        absorb_str(&mut state, self.name());
        absorb_u64(&mut state, self.order() as u64);
        for rank in self.rank_ids() {
            absorb_str(&mut state, rank);
        }
        for shape in self.rank_shapes() {
            absorb_shape(&mut state, shape);
        }
        let leaves = self.leaves();
        absorb_u64(&mut state, leaves.len() as u64);
        for (path, value) in &leaves {
            absorb_u64(&mut state, path.len() as u64);
            for coord in path {
                absorb_coord(&mut state, coord);
            }
            absorb_u64(&mut state, value.to_bits());
        }
        state
    }
}

/// Renders like [`Tensor`]'s `Display` (`Z[M, N] = [0: [1: 2.5]]`) in
/// either representation.
impl std::fmt::Display for TensorData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn fiber(f: &mut std::fmt::Formatter<'_>, v: FiberView<'_>) -> std::fmt::Result {
            write!(f, "[")?;
            for (i, (c, p)) in v.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}: ")?;
                match p {
                    PayloadView::Val(x) => write!(f, "{x}")?,
                    PayloadView::Fiber(child) => fiber(f, child)?,
                }
            }
            write!(f, "]")
        }
        write!(f, "{}[{}] = ", self.name(), self.rank_ids().join(", "))?;
        match self.root_view() {
            PayloadView::Val(v) => write!(f, "{v}"),
            PayloadView::Fiber(v) => fiber(f, v),
        }
    }
}

impl From<Tensor> for TensorData {
    fn from(t: Tensor) -> Self {
        TensorData::Owned(t)
    }
}

impl From<CompressedTensor> for TensorData {
    fn from(c: CompressedTensor) -> Self {
        TensorData::Compressed(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SplitKind;
    use crate::tensor::fig1_matrix_a;

    fn both_views() -> (TensorData, TensorData) {
        let t = fig1_matrix_a();
        let c = CompressedTensor::from_tensor(&t).unwrap();
        (TensorData::Owned(t), TensorData::Compressed(c))
    }

    #[test]
    fn views_agree_across_representations() {
        let (o, c) = both_views();
        let (fo, fc) = (o.root_fiber_view().unwrap(), c.root_fiber_view().unwrap());
        assert_eq!(fo.occupancy(), fc.occupancy());
        for pos in 0..fo.occupancy() {
            assert_eq!(fo.coord_at(pos), fc.coord_at(pos));
            let (po, pc) = (fo.payload_at(pos), fc.payload_at(pos));
            let (ko, kc) = (po.as_fiber().unwrap(), pc.as_fiber().unwrap());
            let leaves_o: Vec<(Coord, f64)> =
                ko.iter().map(|(c, p)| (c, p.as_val().unwrap())).collect();
            let leaves_c: Vec<(Coord, f64)> =
                kc.iter().map(|(c, p)| (c, p.as_val().unwrap())).collect();
            assert_eq!(leaves_o, leaves_c);
        }
    }

    #[test]
    fn position_and_get_binary_search_both_representations() {
        let (o, c) = both_views();
        for data in [&o, &c] {
            let root = data.root_fiber_view().unwrap();
            assert_eq!(root.position(&Coord::Point(2)), Some(1));
            assert_eq!(root.position(&Coord::Point(1)), None);
            let k = root.get(&Coord::Point(2)).unwrap().as_fiber().unwrap();
            assert_eq!(k.get(&Coord::Point(1)).unwrap().as_val(), Some(4.0));
        }
    }

    #[test]
    fn payload_keys_are_stable_and_distinct() {
        let (_, c) = both_views();
        let root = c.root_fiber_view().unwrap();
        let keys: Vec<usize> = (0..root.occupancy()).map(|p| root.payload_key(p)).collect();
        assert_eq!(
            keys,
            (0..root.occupancy())
                .map(|p| root.payload_key(p))
                .collect::<Vec<_>>()
        );
        let mut dedup = keys.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn coord_keys_order_like_coords() {
        let tuple = Coord::pair(1, 2);
        let key = CoordKey::Borrowed(&tuple);
        assert_eq!(
            key.cmp_key(&CoordKey::Point(9)),
            std::cmp::Ordering::Greater
        );
        assert_eq!(
            CoordKey::Point(3).cmp_key(&CoordKey::Point(7)),
            std::cmp::Ordering::Less
        );
        assert_eq!(CoordKey::Point(3).to_coord(), Coord::Point(3));

        // In-place tuple keys of pair and arity-3 ranks order exactly like
        // their materialized coordinates, against each other, points and
        // borrowed tuples.
        let t = crate::tensor::TensorBuilder::new("T", &["A", "B", "C"], &[3, 3, 3])
            .entries(
                (0..27)
                    .step_by(4)
                    .map(|i| (vec![i / 9, (i / 3) % 3, i % 3], 1.0)),
            )
            .build()
            .unwrap();
        let pair = CompressedTensor::from_tensor(&t.flatten_rank("B", "BC").unwrap()).unwrap();
        let flat = t.flatten_rank("A", "AB").unwrap().flatten_rank("AB", "ABC");
        let triple = CompressedTensor::from_tensor(&flat.unwrap()).unwrap();
        let keys: Vec<CoordKey<'_>> = [&pair, &triple]
            .iter()
            .flat_map(|c| {
                let level = c.order() - 1;
                (0..c.level_len(level)).map(move |p| c.coord_key(level, p))
            })
            .chain([CoordKey::Point(1), CoordKey::Borrowed(&tuple)])
            .collect();
        for a in &keys {
            for b in &keys {
                let want = a.to_coord().cmp(&b.to_coord());
                assert_eq!(a.cmp_key(b), want, "{} vs {}", a.to_coord(), b.to_coord());
                assert_eq!(a.cmp_coord(&b.to_coord()), want);
            }
        }
    }

    #[test]
    fn display_matches_the_owned_tree() {
        let (o, c) = both_views();
        assert_eq!(c.to_string(), fig1_matrix_a().to_string());
        assert_eq!(o.to_string(), c.to_string());
    }

    #[test]
    fn leaf_counts_match() {
        let (o, c) = both_views();
        assert_eq!(
            o.root_fiber_view().unwrap().leaf_count(),
            c.root_fiber_view().unwrap().leaf_count()
        );
        assert_eq!(o.nnz(), c.nnz());
    }

    #[test]
    fn content_hash_is_representation_independent() {
        let (o, c) = both_views();
        assert_eq!(o.content_hash(), c.content_hash());
        // And deterministic across calls.
        assert_eq!(o.content_hash(), o.content_hash());
    }

    /// A compressed tensor with its content-hash memo filled.
    fn hashed(c: CompressedTensor) -> TensorData {
        let data = TensorData::Compressed(c);
        data.content_hash();
        data
    }

    fn csf(data: &TensorData) -> &CompressedTensor {
        match data {
            TensorData::Compressed(c) => c,
            TensorData::Owned(_) => unreachable!("built compressed"),
        }
    }

    /// A 3-tensor with every rank holding several coordinates.
    fn cube(name: &str) -> CompressedTensor {
        let entries = (0..27u64)
            .step_by(4)
            .map(|i| (vec![i / 9, (i / 3) % 3, i % 3], i as f64 + 0.5))
            .collect();
        CompressedTensor::from_entries(name, &["A", "B", "C"], &[3, 3, 3], entries).unwrap()
    }

    #[test]
    fn hash_memo_takes_no_part_in_equality() {
        let (_, c) = both_views();
        let unhashed = c.clone();
        c.content_hash();
        assert_eq!(c, unhashed);
        assert_eq!(csf(&c), csf(&unhashed));
    }

    #[test]
    fn set_name_drops_the_memoized_hash() {
        let mut renamed = csf(&hashed(cube("T"))).clone();
        renamed.set_name("U");
        assert_eq!(
            TensorData::Compressed(renamed).content_hash(),
            TensorData::Compressed(cube("U")).content_hash()
        );
    }

    #[test]
    fn rebuilt_tensors_carry_no_memoized_hash() {
        let source = hashed(cube("T"));
        let src = csf(&source);
        let transposed = cube("T")
            .entries()
            .into_iter()
            .map(|(p, v)| (vec![p[2], p[0], p[1]], v))
            .collect();
        let swizzle_twin =
            CompressedTensor::from_entries("T", &["C", "A", "B"], &[3, 3, 3], transposed).unwrap();
        let split = |c: &CompressedTensor| {
            c.partition_rank("B", SplitKind::UniformShape(2), "B1", "B0")
                .unwrap()
        };
        let flat = |c: &CompressedTensor| c.flatten_rank("A", "AB").unwrap();
        let pairs = [
            (src.swizzle(&["C", "A", "B"]).unwrap(), swizzle_twin),
            (split(src), split(&cube("T"))),
            (flat(src), flat(&cube("T"))),
        ];
        for (out, twin) in pairs {
            let (out, twin) = (TensorData::Compressed(out), TensorData::Compressed(twin));
            assert_eq!(out.content_hash(), twin.content_hash());
            assert_ne!(out.content_hash(), source.content_hash());
        }
    }

    #[test]
    fn content_hash_golden_value() {
        // Pins the `tensor-content-v1` key format: report-, transform-
        // and statistics-cache keys are all derived from this hash.
        const GOLDEN: u64 = 8_877_461_766_953_318_293;
        let c = CompressedTensor::from_entries(
            "G",
            &["I", "J"],
            &[4, 4],
            vec![(vec![0, 1], 2.0), (vec![3, 2], -1.5)],
        )
        .unwrap();
        let owned = TensorData::Owned(
            Tensor::from_entries(
                "G",
                &["I", "J"],
                &[4, 4],
                vec![(vec![0, 1], 2.0), (vec![3, 2], -1.5)],
            )
            .unwrap(),
        );
        let compressed = TensorData::Compressed(c);
        assert_eq!(owned.content_hash(), GOLDEN);
        assert_eq!(compressed.content_hash(), GOLDEN);
        // Memoized, the value holds.
        assert_eq!(compressed.content_hash(), GOLDEN);
    }

    #[test]
    fn content_hash_is_content_sensitive() {
        use crate::tensor::TensorBuilder;
        let base = |name: &str, coord: u64, val: f64| {
            TensorData::Owned(
                TensorBuilder::new(name, &["I"], &[8])
                    .entry(&[coord], val)
                    .build()
                    .unwrap(),
            )
        };
        let t = base("T", 1, 2.0);
        assert_ne!(t.content_hash(), base("U", 1, 2.0).content_hash());
        assert_ne!(t.content_hash(), base("T", 2, 2.0).content_hash());
        assert_ne!(t.content_hash(), base("T", 1, 3.0).content_hash());
        // Values hash by bit pattern, so sign alone separates hashes.
        assert_ne!(
            base("T", 1, 2.0).content_hash(),
            base("T", 1, -2.0).content_hash()
        );
    }
}
