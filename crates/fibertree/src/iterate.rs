//! Co-iteration over fibers: streaming intersection, union, and
//! projection lookup.
//!
//! Sparse accelerators "sparsify" the iteration space (paper §2.4) by
//! co-iterating the operands of each loop rank. Multiplicative operands are
//! *intersected* (a point contributes only when all operands are present);
//! additive operands are *unioned*. The hardware that performs intersection
//! varies across designs, so the [`IntersectPolicy`] models the three unit
//! types of Table 3 — two-finger, leader-follower, and skip-ahead — and
//! reports the number of coordinate comparisons ("work") each would spend.
//!
//! Co-iteration is a *streaming dataflow of coordinate cursors* (in the
//! spirit of the Sparse Abstract Machine): [`intersect2_stream`],
//! [`intersect_stream`], and [`union_stream`] are lazy iterators over
//! [`FiberView`] cursors that emit one match at a time, never
//! materializing a match list. The matching eager functions
//! ([`intersect2`], [`intersect_many`], [`union_many`]) are thin wrappers
//! that drain a stream into a `Vec` — convenient for tests and small
//! fibers, while the simulator's engine consumes the streams directly.
//! Both report identical [`CoIterStats`].

use crate::coord::Coord;
use crate::fiber::Fiber;
use crate::view::{CoordKey, FiberView, PayloadView};

/// The intersection unit type (Table 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IntersectPolicy {
    /// Classic merge: two pointers advance one coordinate at a time.
    #[default]
    TwoFinger,
    /// The leader's coordinates are looked up in the followers; work is
    /// proportional to the leader's occupancy. `leader` is the operand
    /// index.
    LeaderFollower {
        /// Index of the leading operand.
        leader: usize,
    },
    /// Galloping/skip-ahead: pointers advance by exponentially probing,
    /// modelling ExTensor-style skip-ahead intersection.
    SkipAhead,
}

/// Result of co-iterating fibers: the work metric charged to the
/// intersection unit plus the number of emitted coordinates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoIterStats {
    /// Number of coordinate comparisons performed by the modelled unit.
    pub comparisons: u64,
    /// Number of coordinates emitted (i.e. matches for intersection).
    pub matches: u64,
}

// ---------------------------------------------------------------------------
// Two-input intersection.
// ---------------------------------------------------------------------------

/// Lazy two-input intersection over fiber cursors.
///
/// Yields `(coord, position in a, position in b)` one match at a time.
/// Comparisons accrue as the stream advances; [`Intersect2Stream::stats`]
/// is complete once the stream is drained.
#[derive(Clone, Debug)]
pub struct Intersect2Stream<'a> {
    a: FiberView<'a>,
    b: FiberView<'a>,
    i: usize,
    j: usize,
    policy: IntersectPolicy,
    stats: CoIterStats,
}

/// Starts a lazy intersection of two fiber cursors under `policy`.
///
/// Comparison charging per policy:
///
/// - two-finger: one comparison per pointer advance (≈ `|a| + |b|` worst
///   case, less when one side exhausts early),
/// - leader-follower: one probe per leader element,
/// - skip-ahead: galloping probes, `O(matches · log(skip))`.
pub fn intersect2_stream<'a>(
    a: FiberView<'a>,
    b: FiberView<'a>,
    policy: IntersectPolicy,
) -> Intersect2Stream<'a> {
    Intersect2Stream {
        a,
        b,
        i: 0,
        j: 0,
        policy,
        stats: CoIterStats::default(),
    }
}

impl Intersect2Stream<'_> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }
}

impl Iterator for Intersect2Stream<'_> {
    type Item = (Coord, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        match self.policy {
            IntersectPolicy::TwoFinger => self.next_two_finger(),
            IntersectPolicy::LeaderFollower { leader } => self.next_leader(leader == 1),
            IntersectPolicy::SkipAhead => self.next_skip_ahead(),
        }
    }
}

impl Intersect2Stream<'_> {
    fn next_two_finger(&mut self) -> Option<(Coord, usize, usize)> {
        while self.i < self.a.occupancy() && self.j < self.b.occupancy() {
            self.stats.comparisons += 1;
            let ka = self.a.coord_key_at(self.i);
            match ka.cmp_key(&self.b.coord_key_at(self.j)) {
                std::cmp::Ordering::Equal => {
                    let out = (ka.to_coord(), self.i, self.j);
                    self.stats.matches += 1;
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
            }
        }
        None
    }

    /// Leader-follower: the stream walks the leader (`a` unless `swap`)
    /// and probes the follower, charging one comparison per leader
    /// element. Output positions stay `(pos in a, pos in b)`.
    fn next_leader(&mut self, swap: bool) -> Option<(Coord, usize, usize)> {
        let (lead, follow) = if swap {
            (self.b, self.a)
        } else {
            (self.a, self.b)
        };
        while self.i < lead.occupancy() {
            self.stats.comparisons += 1;
            let key = lead.coord_key_at(self.i);
            let pl = self.i;
            self.i += 1;
            if let Some(pf) = follow.position_of_key(&key) {
                self.stats.matches += 1;
                let out = if swap { (pf, pl) } else { (pl, pf) };
                return Some((key.to_coord(), out.0, out.1));
            }
        }
        None
    }

    fn next_skip_ahead(&mut self) -> Option<(Coord, usize, usize)> {
        while self.i < self.a.occupancy() && self.j < self.b.occupancy() {
            self.stats.comparisons += 1;
            let ka = self.a.coord_key_at(self.i);
            let kb = self.b.coord_key_at(self.j);
            match ka.cmp_key(&kb) {
                std::cmp::Ordering::Equal => {
                    let out = (ka.to_coord(), self.i, self.j);
                    self.stats.matches += 1;
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
                std::cmp::Ordering::Less => {
                    let hint = skew_step(self.a.occupancy() - self.i, self.b.occupancy() - self.j);
                    let (ni, probes) = gallop(&self.a, self.i, &kb, hint);
                    self.stats.comparisons += probes;
                    self.i = ni;
                }
                std::cmp::Ordering::Greater => {
                    let hint = skew_step(self.b.occupancy() - self.j, self.a.occupancy() - self.i);
                    let (nj, probes) = gallop(&self.b, self.j, &ka, hint);
                    self.stats.comparisons += probes;
                    self.j = nj;
                }
            }
        }
        None
    }
}

/// The adaptive gallop seed: when the advancing side has `rem_self`
/// elements left against `rem_other` on the other side, the expected
/// skip distance is their ratio. Balanced inputs degrade to the classic
/// step of 1.
fn skew_step(rem_self: usize, rem_other: usize) -> usize {
    (rem_self / rem_other.max(1)).max(1)
}

/// Intersects two fibers eagerly, returning the positions of each match.
///
/// Each output tuple is `(coord, position in a, position in b)`. This is
/// [`intersect2_stream`] drained into a `Vec`.
pub fn intersect2(
    a: &Fiber,
    b: &Fiber,
    policy: IntersectPolicy,
) -> (Vec<(Coord, usize, usize)>, CoIterStats) {
    let mut s = intersect2_stream(FiberView::Owned(a), FiberView::Owned(b), policy);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

/// Gallops forward from `start` to the first position whose coordinate is
/// `>= target`, returning `(position, probes spent)`.
///
/// `first_step` seeds the exponential probe. A skip-ahead unit facing a
/// heavily skewed pair (a long fiber chasing a short one) expects jumps
/// around `|long| / |short|`, so seeding with that ratio reaches the
/// target in `O(log)` probes instead of warming up from 1 every time;
/// `first_step = 1` reproduces the classic gallop.
fn gallop(
    fiber: &FiberView<'_>,
    start: usize,
    target: &CoordKey<'_>,
    first_step: usize,
) -> (usize, u64) {
    let len = fiber.occupancy();
    let mut probes = 0u64;
    let mut step = first_step.max(1);
    let mut lo = start;
    let mut hi = start;
    // Exponential probe.
    while hi < len && fiber.coord_key_at(hi).cmp_key(target).is_lt() {
        probes += 1;
        lo = hi;
        hi = (hi + step).min(len);
        step *= 2;
    }
    // Binary search within (lo, hi].
    let mut left = lo;
    let mut right = hi;
    while left < right {
        probes += 1;
        let mid = (left + right) / 2;
        if fiber.coord_key_at(mid).cmp_key(target).is_lt() {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    (left, probes)
}

// ---------------------------------------------------------------------------
// Multi-input intersection: a lazy cascade of two-input stages.
// ---------------------------------------------------------------------------

/// Lazy multi-input intersection: yields, per matching coordinate, the
/// per-fiber positions.
///
/// Structured as a cascade of two-input stages — fiber 0 feeds stage 1,
/// whose output feeds stage 2, and so on — which is how multi-way
/// intersections are built from two-input units in hardware, and is also
/// exactly how comparisons are charged: each stage counts as if it merged
/// the *complete* output of the previous stage, so the totals equal the
/// eager pairwise composition even though nothing is materialized. (A
/// stage whose own fiber exhausts silently drains its upstream to keep
/// that equivalence.)
#[derive(Debug)]
pub struct IntersectStream<'a> {
    top: ManyNode<'a>,
    matches: u64,
}

#[derive(Debug)]
enum ManyNode<'a> {
    /// Fiber 0: emits every element with its position, charging nothing.
    /// With a `limit`, emission stops (uncharged) at the first coordinate
    /// `>= Point(limit)` — the shard boundary of a bounded stream.
    Source {
        fiber: FiberView<'a>,
        pos: usize,
        limit: Option<u64>,
    },
    /// One two-input unit merging the upstream match stream with a fiber.
    Stage(Box<ManyStage<'a>>),
}

#[derive(Debug)]
struct ManyStage<'a> {
    upstream: ManyNode<'a>,
    fiber: FiberView<'a>,
    j: usize,
    /// Leader-follower mode: probe instead of merge.
    probe: bool,
    comparisons: u64,
    left: Option<(Coord, Vec<usize>)>,
    primed: bool,
    done: bool,
}

impl<'a> ManyNode<'a> {
    fn next(&mut self) -> Option<(Coord, Vec<usize>)> {
        match self {
            ManyNode::Source { fiber, pos, limit } => {
                if *pos >= fiber.occupancy() {
                    return None;
                }
                let key = fiber.coord_key_at(*pos);
                if let Some(h) = limit {
                    if !key.cmp_key(&CoordKey::Point(*h)).is_lt() {
                        return None;
                    }
                }
                let item = (key.to_coord(), vec![*pos]);
                *pos += 1;
                Some(item)
            }
            ManyNode::Stage(s) => s.next(),
        }
    }

    fn comparisons(&self) -> u64 {
        match self {
            ManyNode::Source { .. } => 0,
            ManyNode::Stage(s) => s.comparisons + s.upstream.comparisons(),
        }
    }
}

impl ManyStage<'_> {
    fn next(&mut self) -> Option<(Coord, Vec<usize>)> {
        if self.done {
            return None;
        }
        if !self.primed {
            self.left = self.upstream.next();
            self.primed = true;
        }
        if self.probe {
            // Leader-follower: every upstream match costs one probe of
            // this fiber, whether or not it hits.
            while let Some((c, mut ps)) = self.left.take() {
                self.comparisons += 1;
                let hit = self.fiber.position(&c);
                self.left = self.upstream.next();
                if let Some(pf) = hit {
                    ps.push(pf);
                    return Some((c, ps));
                }
            }
            self.done = true;
            return None;
        }
        // Two-finger merge of the upstream stream against this fiber.
        loop {
            if self.left.is_none() {
                // Upstream exhausted (and, by induction, fully drained).
                self.done = true;
                return None;
            }
            if self.j >= self.fiber.occupancy() {
                // This fiber exhausted: the eager pairwise composition
                // still materializes the full upstream match list, so
                // drain it (charging its comparisons) without emitting.
                while self.upstream.next().is_some() {}
                self.left = None;
                self.done = true;
                return None;
            }
            self.comparisons += 1;
            let cmp = {
                let (c, _) = self.left.as_ref().expect("checked above");
                self.fiber.coord_key_at(self.j).cmp_coord(c).reverse()
            };
            match cmp {
                std::cmp::Ordering::Equal => {
                    let (c, mut ps) = self.left.take().expect("checked above");
                    ps.push(self.j);
                    self.j += 1;
                    self.left = self.upstream.next();
                    return Some((c, ps));
                }
                std::cmp::Ordering::Less => self.left = self.upstream.next(),
                std::cmp::Ordering::Greater => self.j += 1,
            }
        }
    }
}

/// Starts a lazy multi-input intersection of `fibers` under `policy`.
///
/// # Panics
///
/// Panics when `fibers` is empty.
pub fn intersect_stream<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
) -> IntersectStream<'a> {
    assert!(
        !fibers.is_empty(),
        "intersect_stream needs at least one fiber"
    );
    let mut top = ManyNode::Source {
        fiber: fibers[0],
        pos: 0,
        limit: None,
    };
    for &f in &fibers[1..] {
        top = ManyNode::Stage(Box::new(ManyStage {
            upstream: top,
            fiber: f,
            j: 0,
            probe: matches!(policy, IntersectPolicy::LeaderFollower { .. }),
            comparisons: 0,
            left: None,
            primed: false,
            done: false,
        }));
    }
    IntersectStream { top, matches: 0 }
}

/// Binary search for the first position in `fiber` whose coordinate is
/// `>= Point(c)` (the whole fiber must hold point coordinates).
fn lower_bound_point(fiber: &FiberView<'_>, c: u64) -> usize {
    let target = CoordKey::Point(c);
    let (mut lo, mut hi) = (0usize, fiber.occupancy());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fiber.coord_key_at(mid).cmp_key(&target).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Starts a *bounded* lazy intersection emitting only matches whose
/// coordinate lies in `[lo, hi)` — one shard of a partitioned
/// co-iteration.
///
/// Positions stay absolute (identical to the unbounded stream), and the
/// comparison charging is **shard-exact**: running the same intersection
/// over a partition of `[0, ∞)` into consecutive `[lo, hi)` windows and
/// summing the per-shard [`CoIterStats`] reproduces the unbounded totals
/// bit for bit. That holds because the leader starts at the first
/// coordinate `>= lo` and stops uncharged at the first `>= hi`, while the
/// follower cursor is pre-positioned exactly where the sequential merge
/// would have left it after consuming every leader element below `lo`.
///
/// Fibers must hold point coordinates.
///
/// # Panics
///
/// Panics unless `fibers` holds one or two fibers: deeper cascades drain
/// exhausted stages past the window boundary, which would break the
/// charge-partition guarantee.
pub fn intersect_stream_bounded<'a>(
    fibers: &[FiberView<'a>],
    policy: IntersectPolicy,
    lo: u64,
    hi: u64,
) -> IntersectStream<'a> {
    assert!(
        (1..=2).contains(&fibers.len()),
        "bounded intersection is shard-exact for one or two fibers only"
    );
    let start = lower_bound_point(&fibers[0], lo);
    let mut top = ManyNode::Source {
        fiber: fibers[0],
        pos: start,
        limit: Some(hi),
    };
    if let Some(&f) = fibers.get(1) {
        // Where the sequential two-finger merge leaves the follower after
        // consuming every leader element below `lo`: one past the last
        // follower coordinate `<=` the previous leader coordinate.
        let j = if start > 0 {
            let prev = fibers[0]
                .coord_key_at(start - 1)
                .to_coord()
                .as_point()
                .expect("bounded intersection requires point coordinates");
            lower_bound_point(&f, prev.saturating_add(1))
        } else {
            0
        };
        top = ManyNode::Stage(Box::new(ManyStage {
            upstream: top,
            fiber: f,
            j,
            probe: matches!(policy, IntersectPolicy::LeaderFollower { .. }),
            comparisons: 0,
            left: None,
            primed: false,
            done: false,
        }));
    }
    IntersectStream { top, matches: 0 }
}

impl IntersectStream<'_> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        CoIterStats {
            comparisons: self.top.comparisons(),
            matches: self.matches,
        }
    }
}

impl Iterator for IntersectStream<'_> {
    type Item = (Coord, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.top.next();
        if item.is_some() {
            self.matches += 1;
        }
        item
    }
}

/// Intersects any number of fibers eagerly, returning for each matching
/// coordinate the per-fiber positions. This is [`intersect_stream`]
/// drained into a `Vec`.
///
/// # Panics
///
/// Panics when `fibers` is empty.
pub fn intersect_many(
    fibers: &[&Fiber],
    policy: IntersectPolicy,
) -> (Vec<(Coord, Vec<usize>)>, CoIterStats) {
    let views: Vec<FiberView<'_>> = fibers.iter().map(|f| FiberView::Owned(f)).collect();
    let mut s = intersect_stream(&views, policy);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

// ---------------------------------------------------------------------------
// Union.
// ---------------------------------------------------------------------------

/// One union result row: a coordinate plus, per input fiber, the position
/// of that coordinate when the fiber holds it.
pub type UnionMatch = (Coord, Vec<Option<usize>>);

/// Lazy multi-input union over fiber cursors: yields every coordinate
/// present in at least one fiber, with the per-fiber position when
/// present. One comparison is charged per live fiber per emitted
/// coordinate (the min-finding work of the merging sequencer).
#[derive(Clone, Debug)]
pub struct UnionStream<'a> {
    fibers: Vec<FiberView<'a>>,
    cursors: Vec<usize>,
    stats: CoIterStats,
    limit: Option<u64>,
}

/// Starts a lazy union of `fibers`.
pub fn union_stream<'a>(fibers: &[FiberView<'a>]) -> UnionStream<'a> {
    UnionStream {
        cursors: vec![0; fibers.len()],
        fibers: fibers.to_vec(),
        stats: CoIterStats::default(),
        limit: None,
    }
}

/// Starts a *bounded* lazy union emitting only coordinates in `[lo, hi)`
/// — one shard of a partitioned co-iteration. Positions stay absolute,
/// and charging is **shard-exact** for any number of fibers: each
/// cursor starts at its fiber's first coordinate `>= lo`, and the
/// min-scan that would emit a coordinate `>= hi` charges nothing (the
/// next shard performs — and pays for — that scan itself). Fibers must
/// hold point coordinates.
pub fn union_stream_bounded<'a>(fibers: &[FiberView<'a>], lo: u64, hi: u64) -> UnionStream<'a> {
    UnionStream {
        cursors: fibers.iter().map(|f| lower_bound_point(f, lo)).collect(),
        fibers: fibers.to_vec(),
        stats: CoIterStats::default(),
        limit: Some(hi),
    }
}

impl UnionStream<'_> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }
}

impl Iterator for UnionStream<'_> {
    type Item = UnionMatch;

    fn next(&mut self) -> Option<Self::Item> {
        // Find the minimum current coordinate across all fibers. Scan
        // charges are tallied locally and only committed on emission:
        // a bounded stream's final scan — the one that discovers the
        // boundary coordinate — is performed again (and paid for) by
        // the shard that owns that coordinate, so per-shard stats sum
        // exactly to the sequential stream's.
        let mut min: Option<CoordKey<'_>> = None;
        let mut scanned = 0u64;
        for (f, &cur) in self.fibers.iter().zip(&self.cursors) {
            if cur < f.occupancy() {
                scanned += 1;
                let key = f.coord_key_at(cur);
                match &min {
                    None => min = Some(key),
                    Some(m) if key.cmp_key(m).is_lt() => min = Some(key),
                    _ => {}
                }
            }
        }
        let min = min?;
        if let Some(h) = self.limit {
            if !min.cmp_key(&CoordKey::Point(h)).is_lt() {
                return None;
            }
        }
        self.stats.comparisons += scanned;
        let m = min.to_coord();
        let mut row: Vec<Option<usize>> = Vec::with_capacity(self.fibers.len());
        for (idx, f) in self.fibers.iter().enumerate() {
            let cur = self.cursors[idx];
            if cur < f.occupancy() && f.coord_key_at(cur).cmp_coord(&m).is_eq() {
                row.push(Some(cur));
                self.cursors[idx] += 1;
            } else {
                row.push(None);
            }
        }
        self.stats.matches += 1;
        Some((m, row))
    }
}

/// Unions any number of fibers eagerly. This is [`union_stream`] drained
/// into a `Vec`.
pub fn union_many(fibers: &[&Fiber]) -> (Vec<UnionMatch>, CoIterStats) {
    let views: Vec<FiberView<'_>> = fibers.iter().map(|f| FiberView::Owned(f)).collect();
    let mut s = union_stream(&views);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

// ---------------------------------------------------------------------------
// Projection.
// ---------------------------------------------------------------------------

/// Looks up a coordinate in a fiber by *projection*: used when a loop rank
/// covers several root ranks (after flattening) but a tensor only carries a
/// subset of them, so the relevant tuple component is extracted and probed.
pub fn project_lookup<'f>(
    fiber: &FiberView<'f>,
    coord: &Coord,
    component: usize,
) -> Option<PayloadView<'f>> {
    let c = match coord {
        Coord::Point(_) => {
            debug_assert_eq!(component, 0, "points have a single component");
            coord.clone()
        }
        Coord::Tuple(cs) => cs.get(component)?.clone(),
    };
    fiber.get(&c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedTensor;
    use crate::coord::Shape;
    use crate::view::TensorData;

    fn fib(coords: &[u64]) -> Fiber {
        Fiber::from_pairs(
            Shape::Interval(1000),
            coords.iter().map(|&c| (c, c as f64 + 1.0)),
        )
        .expect("test fiber is valid")
    }

    fn compressed(coords: &[u64]) -> CompressedTensor {
        CompressedTensor::from_entries(
            "F",
            &["K"],
            &[1000],
            coords.iter().map(|&c| (vec![c], c as f64 + 1.0)).collect(),
        )
        .expect("test fiber is valid")
    }

    #[test]
    fn two_finger_finds_all_matches() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[2, 3, 7, 9]);
        let (m, s) = intersect2(&a, &b, IntersectPolicy::TwoFinger);
        let coords: Vec<u64> = m.iter().map(|(c, _, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![3, 7]);
        assert_eq!(s.matches, 2);
        assert!(s.comparisons >= 2 && s.comparisons <= 8);
    }

    #[test]
    fn all_policies_agree_on_matches() {
        let a = fib(&[0, 2, 4, 6, 8, 10, 50, 51, 52]);
        let b = fib(&[4, 5, 6, 52, 99]);
        let (m0, _) = intersect2(&a, &b, IntersectPolicy::TwoFinger);
        let (m1, _) = intersect2(&a, &b, IntersectPolicy::LeaderFollower { leader: 0 });
        let (m2, _) = intersect2(&a, &b, IntersectPolicy::LeaderFollower { leader: 1 });
        let (m3, _) = intersect2(&a, &b, IntersectPolicy::SkipAhead);
        assert_eq!(m0, m1);
        assert_eq!(m0, m2);
        assert_eq!(m0, m3);
    }

    #[test]
    fn leader_follower_work_tracks_leader_occupancy() {
        let small = fib(&[100, 200]);
        let big = fib(&(0..500).collect::<Vec<u64>>());
        let (_, s) = intersect2(&small, &big, IntersectPolicy::LeaderFollower { leader: 0 });
        assert_eq!(s.comparisons, 2);
        let (_, s) = intersect2(&small, &big, IntersectPolicy::LeaderFollower { leader: 1 });
        assert_eq!(s.comparisons, 500);
    }

    #[test]
    fn skip_ahead_beats_two_finger_on_skewed_inputs() {
        let sparse = fib(&[999]);
        let dense = fib(&(0..1000).collect::<Vec<u64>>());
        let (_, tf) = intersect2(&sparse, &dense, IntersectPolicy::TwoFinger);
        let (_, sa) = intersect2(&sparse, &dense, IntersectPolicy::SkipAhead);
        assert!(
            sa.comparisons < tf.comparisons / 10,
            "skip-ahead {} should be far below two-finger {}",
            sa.comparisons,
            tf.comparisons
        );
    }

    #[test]
    fn intersect_many_matches_pairwise_composition() {
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[2, 4, 6]);
        let c = fib(&[4, 5, 6]);
        let (m, _) = intersect_many(&[&a, &b, &c], IntersectPolicy::TwoFinger);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, Coord::Point(4));
        assert_eq!(m[0].1, vec![3, 1, 0]);
    }

    #[test]
    fn streams_are_lazy_but_stats_complete_on_drain() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[3, 7]);
        let mut s = intersect2_stream(
            FiberView::Owned(&a),
            FiberView::Owned(&b),
            IntersectPolicy::TwoFinger,
        );
        let first = s.next().unwrap();
        assert_eq!(first.0, Coord::Point(3));
        let partial = s.stats();
        assert_eq!(partial.matches, 1);
        let rest: Vec<_> = s.by_ref().collect();
        assert_eq!(rest.len(), 1);
        assert!(s.stats().comparisons > partial.comparisons);
    }

    #[test]
    fn streams_agree_across_representations() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99];
        let (oa, ob) = (fib(&coords_a), fib(&coords_b));
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        for policy in [
            IntersectPolicy::TwoFinger,
            IntersectPolicy::LeaderFollower { leader: 0 },
            IntersectPolicy::LeaderFollower { leader: 1 },
            IntersectPolicy::SkipAhead,
        ] {
            let (mo, so) = intersect2(&oa, &ob, policy);
            let mut s = intersect2_stream(
                da.root_fiber_view().unwrap(),
                db.root_fiber_view().unwrap(),
                policy,
            );
            let mc: Vec<_> = s.by_ref().collect();
            assert_eq!(mo, mc, "{policy:?}");
            assert_eq!(so, s.stats(), "{policy:?}");
        }
        let (uo, suo) = union_many(&[&oa, &ob]);
        let mut us = union_stream(&[da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap()]);
        let uc: Vec<_> = us.by_ref().collect();
        assert_eq!(uo, uc);
        assert_eq!(suo, us.stats());
    }

    #[test]
    fn cascade_drains_upstream_when_a_stage_exhausts() {
        // b exhausts immediately, but the a→b stage must still charge the
        // comparisons the eager composition would (full |a| materialized,
        // then the a∩b merge, then nothing at the c stage).
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[1]);
        let c = fib(&[9]);
        let (me, se) = intersect_many(&[&a, &b, &c], IntersectPolicy::TwoFinger);
        assert!(me.is_empty());
        let views = [&a, &b, &c].map(FiberView::Owned);
        let mut s = intersect_stream(&views, IntersectPolicy::TwoFinger);
        assert!(s.by_ref().next().is_none());
        assert_eq!(s.stats(), se);
    }

    #[test]
    fn union_yields_every_coordinate_once() {
        let a = fib(&[1, 3]);
        let b = fib(&[2, 3, 5]);
        let (u, s) = union_many(&[&a, &b]);
        let coords: Vec<u64> = u.iter().map(|(c, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![1, 2, 3, 5]);
        assert_eq!(u[2].1, vec![Some(1), Some(1)]);
        assert_eq!(u[0].1, vec![Some(0), None]);
        assert_eq!(s.matches, 4);
    }

    #[test]
    fn union_of_empty_fibers_is_empty() {
        let a = Fiber::new(Shape::Interval(5));
        let b = Fiber::new(Shape::Interval(5));
        let (u, _) = union_many(&[&a, &b]);
        assert!(u.is_empty());
    }

    /// Shard-exactness: for every split of the coordinate space into
    /// `[0,b)` and `[b,1000)`, the bounded streams' emissions concatenate
    /// to the unbounded stream's and their stats sum to its stats exactly.
    #[test]
    fn bounded_intersect_shards_partition_sequential_exactly() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52, 400, 401, 700];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99, 400, 700, 999];
        // Both representations: the engine shards owned and compressed
        // inputs alike, and their coordinate keys differ (Borrowed vs
        // inline Point).
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (fa, fb) = (fib(&coords_a), fib(&coords_b));
        let view_sets: [[FiberView<'_>; 2]; 2] = [
            [da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap()],
            [FiberView::Owned(&fa), FiberView::Owned(&fb)],
        ];
        for pair in &view_sets {
            for policy in [
                IntersectPolicy::TwoFinger,
                IntersectPolicy::LeaderFollower { leader: 0 },
                IntersectPolicy::LeaderFollower { leader: 1 },
                IntersectPolicy::SkipAhead,
            ] {
                for nf in [1usize, 2] {
                    let views: Vec<FiberView<'_>> = pair[..nf].to_vec();
                    let mut whole = intersect_stream(&views, policy);
                    let seq: Vec<_> = whole.by_ref().collect();
                    let seq_stats = whole.stats();
                    for split in [0u64, 1, 5, 52, 53, 399, 500, 999, 1000] {
                        let mut merged = Vec::new();
                        let mut comparisons = 0;
                        let mut matches = 0;
                        for (lo, hi) in [(0, split), (split, 1000)] {
                            let mut s = intersect_stream_bounded(&views, policy, lo, hi);
                            merged.extend(s.by_ref());
                            comparisons += s.stats().comparisons;
                            matches += s.stats().matches;
                        }
                        assert_eq!(seq, merged, "{policy:?} nf={nf} split={split}");
                        assert_eq!(
                            (seq_stats.comparisons, seq_stats.matches),
                            (comparisons, matches),
                            "{policy:?} nf={nf} split={split}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_union_shards_partition_sequential_exactly() {
        let coords_a: Vec<u64> = vec![1, 3, 40, 41, 800];
        let coords_b: Vec<u64> = vec![2, 3, 5, 41, 999];
        let coords_c: Vec<u64> = vec![0, 40, 900, 999];
        let tensors: Vec<TensorData> = [&coords_a, &coords_b, &coords_c]
            .iter()
            .map(|c| TensorData::Compressed(compressed(c)))
            .collect();
        let fibers: Vec<Fiber> = [&coords_a, &coords_b, &coords_c]
            .iter()
            .map(|c| fib(c))
            .collect();
        let view_sets: [Vec<FiberView<'_>>; 2] = [
            tensors
                .iter()
                .map(|t| t.root_fiber_view().unwrap())
                .collect(),
            fibers.iter().map(FiberView::Owned).collect(),
        ];
        for views in &view_sets {
            let mut whole = union_stream(views);
            let seq: Vec<_> = whole.by_ref().collect();
            let seq_stats = whole.stats();
            for splits in [vec![500], vec![0, 41], vec![3, 40, 900], vec![1000]] {
                let mut bounds = vec![0u64];
                bounds.extend(&splits);
                bounds.push(1000);
                let mut merged = Vec::new();
                let mut comparisons = 0;
                let mut matches = 0;
                for w in bounds.windows(2) {
                    let mut s = union_stream_bounded(views, w[0], w[1]);
                    merged.extend(s.by_ref());
                    comparisons += s.stats().comparisons;
                    matches += s.stats().matches;
                }
                assert_eq!(seq, merged, "splits={splits:?}");
                assert_eq!(
                    (seq_stats.comparisons, seq_stats.matches),
                    (comparisons, matches),
                    "splits={splits:?}"
                );
            }
        }
    }

    #[test]
    fn project_lookup_extracts_tuple_components() {
        let f = fib(&[7]);
        let v = FiberView::Owned(&f);
        let tuple = Coord::pair(7, 3);
        assert!(project_lookup(&v, &tuple, 0).is_some());
        assert!(project_lookup(&v, &tuple, 1).is_none());
        assert!(project_lookup(&v, &Coord::Point(7), 0).is_some());
    }
}
