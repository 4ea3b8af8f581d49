//! Property-based tests for the dual storage representations: owned
//! fibertrees and compressed (CSF) storage must be observationally
//! identical — same entries after a round-trip, same match streams, and
//! the same [`CoIterStats`] under every intersection policy — and the
//! bounded co-iteration streams must partition the unbounded ones.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_fibertree::iterate::{
    intersect_stream, intersect_stream_bounded, union_stream, CoIterStats,
};
use teaal_fibertree::{CompressedTensor, Coord, FiberView, IntersectPolicy, Tensor, TensorData};

/// Up to 50 entries in an 8×8×8 3-tensor, as raw COO.
fn arb_coo3() -> impl Strategy<Value = Vec<(Vec<u64>, f64)>> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            m.into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect()
        },
    )
}

/// A sparse coordinate set for one fiber, as a 1-rank tensor in both
/// representations (same content, independent constructions).
fn arb_vector_pair() -> impl Strategy<Value = (Tensor, CompressedTensor)> {
    proptest::collection::btree_set(0u64..200, 0..50).prop_map(|coords| {
        let entries: Vec<(Vec<u64>, f64)> = coords
            .into_iter()
            .map(|c| (vec![c], c as f64 + 1.0))
            .collect();
        let t = Tensor::from_entries("F", &["K"], &[200], entries.clone()).expect("in shape");
        let c = CompressedTensor::from_entries("F", &["K"], &[200], entries).expect("in shape");
        (t, c)
    })
}

const POLICIES: [IntersectPolicy; 4] = [
    IntersectPolicy::TwoFinger,
    IntersectPolicy::LeaderFollower { leader: 0 },
    IntersectPolicy::LeaderFollower { leader: 1 },
    IntersectPolicy::SkipAhead,
];

/// Drains an intersection stream: matches and stats.
#[allow(clippy::type_complexity)]
fn drain(
    fibers: &[FiberView<'_>],
    policy: IntersectPolicy,
) -> (Vec<(Coord, Vec<usize>)>, CoIterStats) {
    let mut s = intersect_stream(fibers, policy);
    let out: Vec<_> = s.by_ref().collect();
    (out, s.stats())
}

proptest! {
    /// `from_entries → compress → iterate` returns the same entries as
    /// the owned construction, and decompression is lossless.
    #[test]
    fn owned_compressed_roundtrip_equality(entries in arb_coo3()) {
        let t = Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries.clone())
            .expect("in shape");
        let c = CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
            .expect("in shape");
        prop_assert_eq!(c.entries(), t.entries());
        prop_assert_eq!(c.nnz(), t.nnz());
        prop_assert_eq!(c.rank_stats(), t.rank_stats());
        prop_assert_eq!(&c.to_tensor(), &t);
        // Compressing the owned tree lands on the identical arrays.
        prop_assert_eq!(&CompressedTensor::from_tensor(&t).expect("points only"), &c);
    }

    /// Two-input intersection: match stream and stats agree across
    /// representations (and mixed pairs) for every policy.
    #[test]
    fn intersect2_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let (va, vb) = (
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        );
        let owned_a = FiberView::Owned(oa.root_fiber().expect("1-tensor"));
        let owned_b = FiberView::Owned(ob.root_fiber().expect("1-tensor"));
        for policy in POLICIES {
            let (mo, so) = drain(&[owned_a, owned_b], policy);
            // Compressed × compressed.
            let (mc, sc) = drain(&[va, vb], policy);
            prop_assert_eq!(&mc, &mo, "{:?}", policy);
            prop_assert_eq!(sc, so.clone(), "{:?}", policy);
            // Mixed: owned first fiber, compressed second.
            let (mm, sm) = drain(&[owned_a, vb], policy);
            prop_assert_eq!(&mm, &mo, "mixed {:?}", policy);
            prop_assert_eq!(sm, so, "mixed {:?}", policy);
        }
    }

    /// Three-input intersection cascades charge identical stats in both
    /// representations.
    #[test]
    fn three_way_intersection_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
        (oc, cc) in arb_vector_pair(),
    ) {
        let datas = [
            TensorData::Compressed(ca),
            TensorData::Compressed(cb),
            TensorData::Compressed(cc),
        ];
        let views: Vec<FiberView<'_>> = datas
            .iter()
            .map(|d| d.root_fiber_view().expect("1-tensor"))
            .collect();
        let owned: Vec<FiberView<'_>> = [&oa, &ob, &oc]
            .iter()
            .map(|t| FiberView::Owned(t.root_fiber().expect("1-tensor")))
            .collect();
        for policy in POLICIES {
            prop_assert_eq!(drain(&views, policy), drain(&owned, policy), "{:?}", policy);
        }
    }

    /// Shard exactness: at arity 1 and 2, for every policy and any split
    /// of the top range into three windows, the bounded streams' matches
    /// concatenate to the unbounded stream's and their stats sum to its
    /// stats.
    #[test]
    fn bounded_streams_partition_the_unbounded_stream(
        (_, ca) in arb_vector_pair(),
        (_, cb) in arb_vector_pair(),
        s1 in 0u64..210,
        s2 in 0u64..210,
    ) {
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let pair = [
            da.root_fiber_view().expect("1-tensor"),
            db.root_fiber_view().expect("1-tensor"),
        ];
        let (s1, s2) = (s1.min(s2), s1.max(s2));
        for policy in POLICIES {
            for views in [&pair[..1], &pair[..]] {
                let (whole, stats) = drain(views, policy);
                let mut merged = Vec::new();
                let mut sum = CoIterStats::default();
                for (lo, hi) in [(0, s1), (s1, s2), (s2, u64::MAX)] {
                    let mut s = intersect_stream_bounded(views, policy, lo, hi);
                    merged.extend(s.by_ref());
                    sum.comparisons += s.stats().comparisons;
                    sum.matches += s.stats().matches;
                }
                prop_assert_eq!(&merged, &whole, "{:?} arity {}", policy, views.len());
                prop_assert_eq!(&sum, &stats, "{:?} arity {}", policy, views.len());
            }
        }
    }

    /// Union: rows and stats agree across representations.
    #[test]
    fn union_is_representation_independent(
        (oa, ca) in arb_vector_pair(),
        (ob, cb) in arb_vector_pair(),
    ) {
        let mut so = union_stream(&[
            Some(FiberView::Owned(oa.root_fiber().expect("1-tensor"))),
            Some(FiberView::Owned(ob.root_fiber().expect("1-tensor"))),
        ]);
        let uo: Vec<_> = so.by_ref().collect();
        let (da, db) = (TensorData::Compressed(ca), TensorData::Compressed(cb));
        let mut s = union_stream(&[da.root_fiber_view(), db.root_fiber_view()]);
        let uc: Vec<_> = s.by_ref().collect();
        prop_assert_eq!(uc, uo);
        prop_assert_eq!(s.stats(), so.stats());
    }

    /// Hierarchical cursors: walking a 3-tensor leaf-by-leaf through
    /// views visits identical coordinates and values either way.
    #[test]
    fn hierarchical_view_walks_agree(entries in arb_coo3()) {
        let t = Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries.clone())
            .expect("in shape");
        let c = CompressedTensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
            .expect("in shape");
        let (dt, dc) = (TensorData::Owned(t), TensorData::Compressed(c));
        fn leaves(d: &TensorData) -> BTreeMap<Vec<u64>, f64> {
            let mut out = BTreeMap::new();
            fn walk(v: FiberView<'_>, path: &mut Vec<u64>, out: &mut BTreeMap<Vec<u64>, f64>) {
                for pos in 0..v.occupancy() {
                    path.push(v.coord_at(pos).as_point().expect("points"));
                    match v.payload_at(pos) {
                        teaal_fibertree::PayloadView::Val(x) => {
                            out.insert(path.clone(), x);
                        }
                        teaal_fibertree::PayloadView::Fiber(child) => walk(child, path, out),
                    }
                    path.pop();
                }
            }
            if let Some(root) = d.root_fiber_view() {
                walk(root, &mut Vec::new(), &mut out);
            }
            out
        }
        prop_assert_eq!(leaves(&dt), leaves(&dc));
    }
}

/// `LeaderFollower { leader: 1 }` walks the second fiber but reports
/// positions in input order; pin it with plain cases in both
/// representations.
#[test]
fn leader_one_swaps_positions_identically() {
    let entries_a: Vec<(Vec<u64>, f64)> =
        [1u64, 4, 9, 30].iter().map(|&c| (vec![c], 1.0)).collect();
    let entries_b: Vec<(Vec<u64>, f64)> = [4u64, 9, 10].iter().map(|&c| (vec![c], 2.0)).collect();
    let oa = Tensor::from_entries("A", &["K"], &[64], entries_a.clone()).unwrap();
    let ob = Tensor::from_entries("B", &["K"], &[64], entries_b.clone()).unwrap();
    let ca = TensorData::Compressed(
        CompressedTensor::from_entries("A", &["K"], &[64], entries_a).unwrap(),
    );
    let cb = TensorData::Compressed(
        CompressedTensor::from_entries("B", &["K"], &[64], entries_b).unwrap(),
    );
    let policy = IntersectPolicy::LeaderFollower { leader: 1 };
    let owned = [
        FiberView::Owned(oa.root_fiber().unwrap()),
        FiberView::Owned(ob.root_fiber().unwrap()),
    ];
    let (mo, so) = drain(&owned, policy);
    let (mc, sc) = drain(
        &[ca.root_fiber_view().unwrap(), cb.root_fiber_view().unwrap()],
        policy,
    );
    assert_eq!(mc, mo);
    assert_eq!(sc, so);
    assert_eq!(
        mo,
        vec![(Coord::Point(4), vec![1, 0]), (Coord::Point(9), vec![2, 1])]
    );
    assert_eq!(so.comparisons, 3, "one probe per element of the leader");
}
