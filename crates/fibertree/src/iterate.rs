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
//! spirit of the Sparse Abstract Machine's single intersecter primitive):
//! [`intersect_stream`] and [`union_stream`] are lazy streams over
//! [`FiberView`] cursors that emit one match at a time, never
//! materializing a match list. [`IntersectStream::next_into`] and
//! [`UnionStream::next_into`] write each match's positions into a buffer
//! the caller owns, so a drained stream allocates nothing per element;
//! the `Iterator` impls wrap them for tests and small fibers.

use crate::coord::Coord;
use crate::view::{CoordKey, FiberView, PayloadView};

/// The intersection unit type (Table 3 of the paper), and what each
/// charges per two-input stage of an [`intersect_stream`] cascade.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IntersectPolicy {
    /// Classic merge: the two heads are compared and the smaller one
    /// advances by one element. One comparison per head-to-head
    /// comparison (at most `|a| + |b| − 1`).
    #[default]
    TwoFinger,
    /// The leader walks its fiber and looks each coordinate up in the
    /// other operands: one comparison per probe, so a two-input stage
    /// charges exactly the leader's occupancy. `leader` is the operand
    /// index; an out-of-range index leads with operand 0.
    LeaderFollower {
        /// Index of the leading operand.
        leader: usize,
    },
    /// Skip-ahead (ExTensor): one comparison per head-to-head
    /// comparison, after which the lagging side jumps straight to its
    /// first coordinate `>=` the other head without further charge. A
    /// stage skips only inside fibers it reads directly; a lagging
    /// upstream stage advances one match at a time. Never charges more
    /// than two-finger on the same fibers.
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

/// The first position at or after `from` whose coordinate is `>= target`,
/// found by galloping (doubling steps, then a binary search). Seeking is
/// cursor movement, never charged as comparisons.
fn seek(fiber: &FiberView<'_>, from: usize, target: &CoordKey<'_>) -> usize {
    let len = fiber.occupancy();
    let below = |p: usize| fiber.coord_key_at(p).cmp_key(target).is_lt();
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < len && below(hi) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let mut hi = hi.min(len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The first position in `fiber` whose coordinate is `>= Point(c)` (the
/// whole fiber must hold point coordinates).
fn lower_bound_point(fiber: &FiberView<'_>, c: u64) -> usize {
    seek(fiber, 0, &CoordKey::Point(c))
}

// ---------------------------------------------------------------------------
// Intersection: a lazy cascade of two-input stages.
// ---------------------------------------------------------------------------

/// Lazy intersection of any number of fibers: yields, per matching
/// coordinate, the per-fiber positions (in input order).
///
/// Structured as a cascade of two-input stages — the leading fiber feeds
/// stage 1, whose output feeds stage 2, and so on — which is how
/// multi-way intersections are built from two-input units in hardware.
/// Each stage charges what its unit would spend on the *complete* output
/// of the previous stage (see [`IntersectPolicy`]): a stage whose own
/// fiber exhausts drains its upstream stage, charging it, without
/// emitting.
#[derive(Clone, Debug)]
pub struct IntersectStream<'a> {
    /// Stage 0 is the leading fiber; stage `k >= 1` intersects the
    /// upstream match stream with its own fiber.
    stages: Vec<Stage<'a>>,
    policy: IntersectPolicy,
    /// Shard boundary of a bounded stream: the leading fiber stops,
    /// uncharged, at its first coordinate `>= Point(limit)`.
    limit: Option<u64>,
    stats: CoIterStats,
}

#[derive(Clone, Debug)]
struct Stage<'a> {
    fiber: FiberView<'a>,
    /// The input slot this fiber's positions are reported in.
    input: usize,
    /// The next unread position.
    cursor: usize,
    /// The position of the stage's latest match.
    hit: usize,
    /// The upstream match is consumed: fetch the next one before
    /// comparing again (stages `>= 1`).
    stale: bool,
    done: bool,
}

/// Starts a lazy intersection of `fibers` under `policy`.
///
/// Two-finger and skip-ahead cascades lead with fiber 0; leader-follower
/// leads with the declared leader and probes the other fibers in input
/// order.
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
    let lead = match policy {
        IntersectPolicy::LeaderFollower { leader } if leader < fibers.len() => leader,
        _ => 0,
    };
    let stages = std::iter::once(lead)
        .chain((0..fibers.len()).filter(|&i| i != lead))
        .map(|input| Stage {
            fiber: fibers[input],
            input,
            cursor: 0,
            hit: 0,
            stale: true,
            done: false,
        })
        .collect();
    IntersectStream {
        stages,
        policy,
        limit: None,
        stats: CoIterStats::default(),
    }
}

/// Starts a *bounded* lazy intersection emitting only matches whose
/// coordinate lies in `[lo, hi)` — one shard of a partitioned
/// co-iteration.
///
/// Positions stay absolute (identical to the unbounded stream), and the
/// comparison charging is **shard-exact** under every policy: running the
/// same intersection over a partition of `[0, ∞)` into consecutive
/// `[lo, hi)` windows and summing the per-shard [`CoIterStats`]
/// reproduces the unbounded totals bit for bit. Each comparison belongs
/// to the shard holding the leading fiber's coordinate: the leader starts
/// at its first coordinate `>= lo` and stops uncharged at the first
/// `>= hi`, while the other fiber's cursor starts exactly where the
/// unbounded stream has it when the leader first reaches `lo`. For a
/// merge that is one past the last coordinate `<=` the leader's previous
/// coordinate; skip-ahead additionally lets the leader jump past that
/// coordinate unless the previous one matched.
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
    let mut s = intersect_stream(fibers, policy);
    s.limit = Some(hi);
    let start = lower_bound_point(&s.stages[0].fiber, lo);
    s.stages[0].cursor = start;
    if let [lead, other] = &mut s.stages[..] {
        // A leader-follower probe has no cursor on the other fiber.
        if start > 0 && !matches!(policy, IntersectPolicy::LeaderFollower { .. }) {
            let prev = lead
                .fiber
                .coord_at(start - 1)
                .as_point()
                .expect("bounded intersection requires point coordinates");
            other.cursor = lower_bound_point(&other.fiber, prev.saturating_add(1));
            let matched_prev =
                other.cursor > 0 && other.fiber.coord_at(other.cursor - 1).as_point() == Some(prev);
            if policy == IntersectPolicy::SkipAhead
                && !matched_prev
                && other.cursor < other.fiber.occupancy()
            {
                let target = other.fiber.coord_key_at(other.cursor);
                lead.cursor = seek(&lead.fiber, start, &target);
            }
        }
    }
    s
}

impl<'a> IntersectStream<'a> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }

    /// Advances to the next match, writing `Some(position)` for every
    /// input fiber into `positions[input]`, and returns its coordinate.
    /// Nothing is allocated unless the coordinate is a tuple.
    ///
    /// # Panics
    ///
    /// Panics when `positions` has fewer slots than the stream has fibers.
    pub fn next_into(&mut self, positions: &mut [Option<usize>]) -> Option<Coord> {
        if !self.pull(self.stages.len() - 1) {
            return None;
        }
        self.stats.matches += 1;
        for s in &self.stages {
            positions[s.input] = Some(s.hit);
        }
        let lead = &self.stages[0];
        Some(lead.fiber.coord_at(lead.hit))
    }

    /// Emits the leading fiber's next element within the limit.
    fn pull_lead(&mut self) -> bool {
        let lead = &mut self.stages[0];
        if lead.cursor >= lead.fiber.occupancy() {
            return false;
        }
        if let Some(h) = self.limit {
            if !lead
                .fiber
                .coord_key_at(lead.cursor)
                .cmp_key(&CoordKey::Point(h))
                .is_lt()
            {
                return false;
            }
        }
        lead.hit = lead.cursor;
        lead.cursor += 1;
        true
    }

    /// Advances stage `k` to its next match; `hit` of stages `0..=k`
    /// then holds the match's positions.
    fn pull(&mut self, k: usize) -> bool {
        if k == 0 {
            return self.pull_lead();
        }
        let skip = self.policy == IntersectPolicy::SkipAhead;
        loop {
            if self.stages[k].done {
                return false;
            }
            if self.stages[k].stale {
                if !self.pull(k - 1) {
                    self.stages[k].done = true;
                    return false;
                }
                self.stages[k].stale = false;
            }
            // Every upstream fiber holds the upstream match's coordinate.
            let head = self.stages[0].fiber.coord_key_at(self.stages[0].hit);
            let s = &mut self.stages[k];
            if let IntersectPolicy::LeaderFollower { .. } = self.policy {
                self.stats.comparisons += 1;
                s.stale = true;
                if let Some(p) = s.fiber.position_of_key(&head) {
                    s.hit = p;
                    return true;
                }
                continue;
            }
            if s.cursor >= s.fiber.occupancy() {
                // The pairwise composition still materializes the full
                // upstream match list, so drain it (charging its
                // comparisons) without emitting. The leading fiber
                // charges nothing to drain.
                s.done = true;
                if k > 1 {
                    while self.pull(k - 1) {}
                }
                return false;
            }
            self.stats.comparisons += 1;
            match s.fiber.coord_key_at(s.cursor).cmp_key(&head) {
                std::cmp::Ordering::Equal => {
                    s.hit = s.cursor;
                    s.cursor += 1;
                    s.stale = true;
                    return true;
                }
                // This fiber lags: skip-ahead jumps it, uncharged.
                std::cmp::Ordering::Less if skip => s.cursor = seek(&s.fiber, s.cursor + 1, &head),
                std::cmp::Ordering::Less => s.cursor += 1,
                // The upstream lags. Skip-ahead can jump only the leading
                // fiber (stage 1 reads it directly); an upstream stage
                // advances one match at a time.
                std::cmp::Ordering::Greater => {
                    s.stale = true;
                    if skip && k == 1 {
                        let target = s.fiber.coord_key_at(s.cursor);
                        let lead = &mut self.stages[0];
                        lead.cursor = seek(&lead.fiber, lead.cursor, &target);
                    }
                }
            }
        }
    }
}

impl Iterator for IntersectStream<'_> {
    type Item = (Coord, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let mut positions = vec![None; self.stages.len()];
        let c = self.next_into(&mut positions)?;
        Some((c, positions.into_iter().flatten().collect()))
    }
}

// ---------------------------------------------------------------------------
// Union.
// ---------------------------------------------------------------------------

/// One union result row: a coordinate plus, per input slot, the position
/// of that coordinate when the slot's fiber holds it.
pub type UnionMatch = (Coord, Vec<Option<usize>>);

/// Lazy multi-input union over fiber cursors: yields every coordinate
/// present in at least one fiber, with the per-fiber position when
/// present. An absent slot (`None`) never holds a coordinate. One
/// comparison is charged per unexhausted fiber per emitted coordinate
/// (the min-finding work of the merging sequencer).
#[derive(Clone, Debug)]
pub struct UnionStream<'a> {
    fibers: Vec<Option<FiberView<'a>>>,
    cursors: Vec<usize>,
    stats: CoIterStats,
    limit: Option<u64>,
}

/// Starts a lazy union of `fibers`, one slot per input.
pub fn union_stream<'a>(fibers: &[Option<FiberView<'a>>]) -> UnionStream<'a> {
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
pub fn union_stream_bounded<'a>(
    fibers: &[Option<FiberView<'a>>],
    lo: u64,
    hi: u64,
) -> UnionStream<'a> {
    UnionStream {
        cursors: fibers
            .iter()
            .map(|f| f.map_or(0, |f| lower_bound_point(&f, lo)))
            .collect(),
        fibers: fibers.to_vec(),
        stats: CoIterStats::default(),
        limit: Some(hi),
    }
}

impl<'a> UnionStream<'a> {
    /// The statistics accrued so far (complete after draining).
    pub fn stats(&self) -> CoIterStats {
        self.stats.clone()
    }

    /// Advances to the next coordinate, writing each slot's position (or
    /// `None`) into `positions`, and returns the coordinate. Nothing is
    /// allocated unless the coordinate is a tuple.
    ///
    /// # Panics
    ///
    /// Panics when `positions` has fewer slots than the stream.
    pub fn next_into(&mut self, positions: &mut [Option<usize>]) -> Option<Coord> {
        // Find the minimum current coordinate across all fibers. Scan
        // charges are tallied locally and only committed on emission:
        // a bounded stream's final scan — the one that discovers the
        // boundary coordinate — is performed again (and paid for) by
        // the shard that owns that coordinate, so per-shard stats sum
        // exactly to the sequential stream's.
        let mut min: Option<CoordKey<'a>> = None;
        let mut scanned = 0u64;
        for (f, &cur) in self.fibers.iter().zip(&self.cursors) {
            if let Some(f) = f.filter(|f| cur < f.occupancy()) {
                scanned += 1;
                let key = f.coord_key_at(cur);
                if min.map_or(true, |m| key.cmp_key(&m).is_lt()) {
                    min = Some(key);
                }
            }
        }
        let min = min?;
        if let Some(h) = self.limit {
            if !min.cmp_key(&CoordKey::Point(h)).is_lt() {
                return None;
            }
        }
        for ((f, cur), slot) in self.fibers.iter().zip(&mut self.cursors).zip(positions) {
            let here = f.is_some_and(|f| {
                *cur < f.occupancy() && f.coord_key_at(*cur).cmp_key(&min).is_eq()
            });
            *slot = here.then_some(*cur);
            *cur += usize::from(here);
        }
        self.stats.comparisons += scanned;
        self.stats.matches += 1;
        Some(min.to_coord())
    }
}

impl Iterator for UnionStream<'_> {
    type Item = UnionMatch;

    fn next(&mut self) -> Option<Self::Item> {
        let mut positions = vec![None; self.fibers.len()];
        let c = self.next_into(&mut positions)?;
        Some((c, positions))
    }
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
    use crate::fiber::Fiber;
    use crate::view::TensorData;

    const POLICIES: [IntersectPolicy; 4] = [
        IntersectPolicy::TwoFinger,
        IntersectPolicy::LeaderFollower { leader: 0 },
        IntersectPolicy::LeaderFollower { leader: 1 },
        IntersectPolicy::SkipAhead,
    ];

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

    /// Drains an intersection of owned fibers.
    fn intersect(
        fibers: &[&Fiber],
        policy: IntersectPolicy,
    ) -> (Vec<(Coord, Vec<usize>)>, CoIterStats) {
        let views: Vec<FiberView<'_>> = fibers.iter().map(|f| FiberView::Owned(f)).collect();
        let mut s = intersect_stream(&views, policy);
        let out: Vec<_> = s.by_ref().collect();
        (out, s.stats())
    }

    /// Drains a union of owned fibers.
    fn union(fibers: &[&Fiber]) -> (Vec<UnionMatch>, CoIterStats) {
        let views: Vec<_> = fibers.iter().map(|f| Some(FiberView::Owned(f))).collect();
        let mut s = union_stream(&views);
        let out: Vec<_> = s.by_ref().collect();
        (out, s.stats())
    }

    #[test]
    fn two_finger_finds_all_matches() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[2, 3, 7, 9]);
        let (m, s) = intersect(&[&a, &b], IntersectPolicy::TwoFinger);
        let coords: Vec<u64> = m.iter().map(|(c, _)| c.as_point().unwrap()).collect();
        assert_eq!(coords, vec![3, 7]);
        assert_eq!(m[1].1, vec![3, 2]);
        assert_eq!(s.matches, 2);
        // 1<2, 2<3, 3=3, 5<7, 7=7, then `a` is exhausted.
        assert_eq!(s.comparisons, 5);
    }

    #[test]
    fn all_policies_agree_on_matches() {
        let a = fib(&[0, 2, 4, 6, 8, 10, 50, 51, 52]);
        let b = fib(&[4, 5, 6, 52, 99]);
        let (m0, _) = intersect(&[&a, &b], IntersectPolicy::TwoFinger);
        for policy in POLICIES {
            assert_eq!(intersect(&[&a, &b], policy).0, m0, "{policy:?}");
            assert_eq!(intersect(&[&b, &a], policy).0.len(), m0.len(), "{policy:?}");
        }
    }

    #[test]
    fn leader_follower_work_tracks_leader_occupancy() {
        let small = fib(&[100, 200]);
        let big = fib(&(0..500).collect::<Vec<u64>>());
        let (m, s) = intersect(
            &[&small, &big],
            IntersectPolicy::LeaderFollower { leader: 0 },
        );
        assert_eq!(s.comparisons, 2);
        let (m1, s) = intersect(
            &[&small, &big],
            IntersectPolicy::LeaderFollower { leader: 1 },
        );
        assert_eq!(s.comparisons, 500);
        // Positions stay in input order whichever fiber leads.
        assert_eq!(m, m1);
        assert_eq!(m[0].1, vec![0, 100]);
        // An out-of-range leader leads with fiber 0.
        let (_, s) = intersect(
            &[&small, &big],
            IntersectPolicy::LeaderFollower { leader: 7 },
        );
        assert_eq!(s.comparisons, 2);
    }

    #[test]
    fn skip_ahead_beats_two_finger_on_skewed_inputs() {
        let sparse = fib(&[999]);
        let dense = fib(&(0..1000).collect::<Vec<u64>>());
        let (_, tf) = intersect(&[&sparse, &dense], IntersectPolicy::TwoFinger);
        let (_, sa) = intersect(&[&sparse, &dense], IntersectPolicy::SkipAhead);
        assert_eq!(tf.comparisons, 1000);
        // 999 > 0: `dense` jumps to 999 uncharged; 999 = 999.
        assert_eq!(sa.comparisons, 2);
    }

    #[test]
    fn skip_ahead_charges_each_head_comparison_once() {
        // 1<4: a jumps to 5; 5>4: b jumps to 6; 5<6: a jumps to 8;
        // 8>6: b jumps to 9; 8<9: a jumps to 9; 9=9; a exhausted.
        let a = fib(&[1, 2, 3, 5, 8, 9]);
        let b = fib(&[4, 6, 9]);
        let (m, sa) = intersect(&[&a, &b], IntersectPolicy::SkipAhead);
        assert_eq!(m, vec![(Coord::Point(9), vec![5, 2])]);
        assert_eq!(sa.comparisons, 6);
        let (_, tf) = intersect(&[&a, &b], IntersectPolicy::TwoFinger);
        assert_eq!(tf.comparisons, 8);
    }

    #[test]
    fn three_way_cascade_matches_pairwise_composition() {
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[2, 4, 6]);
        let c = fib(&[4, 5, 6]);
        for policy in POLICIES {
            let (m, _) = intersect(&[&a, &b, &c], policy);
            assert_eq!(m, vec![(Coord::Point(4), vec![3, 1, 0])], "{policy:?}");
        }
        // Leader-follower from `c`: probe `a` for each of c's 3
        // coordinates (4 and 5 hit), then `b` for each of those 2.
        let (_, s) = intersect(&[&a, &b, &c], IntersectPolicy::LeaderFollower { leader: 2 });
        assert_eq!(s.comparisons, 3 + 2);
    }

    #[test]
    fn streams_are_lazy_but_stats_complete_on_drain() {
        let a = fib(&[1, 3, 5, 7]);
        let b = fib(&[3, 7]);
        let mut s = intersect_stream(
            &[FiberView::Owned(&a), FiberView::Owned(&b)],
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
    fn next_into_fills_one_slot_per_input() {
        let a = fib(&[1, 3]);
        let b = fib(&[3, 4]);
        let mut slots = [None, None, Some(9)];
        let mut s = intersect_stream(
            &[FiberView::Owned(&a), FiberView::Owned(&b)],
            IntersectPolicy::LeaderFollower { leader: 1 },
        );
        assert_eq!(s.next_into(&mut slots), Some(Coord::Point(3)));
        assert_eq!(slots, [Some(1), Some(0), Some(9)]);
        assert_eq!(s.next_into(&mut slots), None);
        let mut u = union_stream(&[Some(FiberView::Owned(&a)), None, Some(FiberView::Owned(&b))]);
        assert_eq!(u.next_into(&mut slots), Some(Coord::Point(1)));
        assert_eq!(slots, [Some(0), None, None]);
        assert_eq!(u.next_into(&mut slots), Some(Coord::Point(3)));
        assert_eq!(slots, [Some(1), None, Some(0)]);
    }

    #[test]
    fn streams_agree_across_representations() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99];
        let (oa, ob) = (fib(&coords_a), fib(&coords_b));
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (va, vb) = (da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap());
        for policy in POLICIES {
            let (mo, so) = intersect(&[&oa, &ob], policy);
            let mut s = intersect_stream(&[va, vb], policy);
            let mc: Vec<_> = s.by_ref().collect();
            assert_eq!(mo, mc, "{policy:?}");
            assert_eq!(so, s.stats(), "{policy:?}");
        }
        let (uo, suo) = union(&[&oa, &ob]);
        let mut us = union_stream(&[Some(va), Some(vb)]);
        let uc: Vec<_> = us.by_ref().collect();
        assert_eq!(uo, uc);
        assert_eq!(suo, us.stats());
    }

    #[test]
    fn cascade_drains_upstream_when_a_stage_exhausts() {
        // b exhausts after one match, but the a→b stage must still charge
        // the comparisons the pairwise composition would: the a∩b stage
        // matches 1 (one comparison) and then exhausts; the c stage
        // compares that match against 9 (one comparison) and ends.
        let a = fib(&[1, 2, 3, 4, 5]);
        let b = fib(&[1]);
        let c = fib(&[9]);
        let (m, s) = intersect(&[&a, &b, &c], IntersectPolicy::TwoFinger);
        assert!(m.is_empty());
        assert_eq!((s.comparisons, s.matches), (2, 0));
        // A three-stage cascade whose last fiber is empty drains a∩b.
        let empty = fib(&[]);
        let (_, s) = intersect(&[&a, &b, &empty], IntersectPolicy::TwoFinger);
        assert_eq!((s.comparisons, s.matches), (1, 0));
    }

    #[test]
    fn union_yields_every_coordinate_once() {
        let a = fib(&[1, 3]);
        let b = fib(&[2, 3, 5]);
        let (u, s) = union(&[&a, &b]);
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
        let (u, _) = union(&[&a, &b]);
        assert!(u.is_empty());
    }

    /// Shard-exactness: for every split of the coordinate space into
    /// `[0,b)` and `[b,1000)`, the bounded streams' emissions concatenate
    /// to the unbounded stream's and their stats sum to its stats exactly.
    #[test]
    fn bounded_intersect_shards_partition_sequential_exactly() {
        let coords_a: Vec<u64> = vec![0, 2, 4, 6, 8, 10, 50, 51, 52, 400, 401, 700];
        let coords_b: Vec<u64> = vec![4, 5, 6, 52, 99, 400, 700, 999];
        // Both representations: their coordinate keys differ (Borrowed
        // vs inline Point).
        let (ca, cb) = (compressed(&coords_a), compressed(&coords_b));
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (fa, fb) = (fib(&coords_a), fib(&coords_b));
        let view_sets: [[FiberView<'_>; 2]; 2] = [
            [da.root_fiber_view().unwrap(), db.root_fiber_view().unwrap()],
            [FiberView::Owned(&fa), FiberView::Owned(&fb)],
        ];
        for pair in &view_sets {
            for policy in POLICIES {
                for views in [&pair[..1], &pair[..], &[pair[1], pair[0]]] {
                    let nf = views.len();
                    let mut whole = intersect_stream(views, policy);
                    let seq: Vec<_> = whole.by_ref().collect();
                    let seq_stats = whole.stats();
                    for split in [0u64, 1, 5, 7, 52, 53, 399, 500, 999, 1000] {
                        let mut merged = Vec::new();
                        let mut comparisons = 0;
                        let mut matches = 0;
                        for (lo, hi) in [(0, split), (split, 1000)] {
                            let mut s = intersect_stream_bounded(views, policy, lo, hi);
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
        let view_sets: [Vec<Option<FiberView<'_>>>; 2] = [
            tensors.iter().map(|t| t.root_fiber_view()).collect(),
            fibers.iter().map(|f| Some(FiberView::Owned(f))).collect(),
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
