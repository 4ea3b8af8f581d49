//! Property tests: the compressed-native transform primitives (swizzle /
//! partition / flatten) must be *bit-identical* to the owned-path oracle —
//! transforming compressed storage directly lands on exactly the tensor
//! that compressing the owned transform's result produces (same narrowed
//! stores, same segments, same value arena), and the errors match too.

use proptest::prelude::*;
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{CompressedTensor, FibertreeError, Tensor};

fn arb_matrix() -> impl Strategy<Value = Tensor> {
    proptest::collection::btree_map((0u64..16, 0u64..12), 1.0f64..100.0, 0..40).prop_map(|m| {
        let entries: Vec<(Vec<u64>, f64)> =
            m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
        Tensor::from_entries("A", &["M", "K"], &[16, 12], entries).expect("entries in shape")
    })
}

fn arb_3tensor() -> impl Strategy<Value = Tensor> {
    proptest::collection::btree_map((0u64..8, 0u64..8, 0u64..8), 1.0f64..100.0, 0..50).prop_map(
        |m| {
            let entries: Vec<(Vec<u64>, f64)> = m
                .into_iter()
                .map(|((a, b, c), v)| (vec![a, b, c], v))
                .collect();
            Tensor::from_entries("T", &["M", "K", "N"], &[8, 8, 8], entries)
                .expect("entries in shape")
        },
    )
}

/// The contract under test: applying `owned` to the tree and `comp` to
/// its compressed form must land on identical compressed tensors.
fn assert_oracle(
    t: &Tensor,
    owned: impl Fn(&Tensor) -> Result<Tensor, FibertreeError>,
    comp: impl Fn(&CompressedTensor) -> Result<CompressedTensor, FibertreeError>,
) -> Result<(), TestCaseError> {
    let c = CompressedTensor::from_tensor(t).expect("point tensors compress");
    let want = CompressedTensor::from_tensor(&owned(t).expect("owned transform"))
        .expect("owned result compresses");
    let got = comp(&c).expect("compressed transform");
    prop_assert_eq!(want, got);
    Ok(())
}

proptest! {
    #[test]
    fn swizzle_matches_owned_oracle(t in arb_3tensor()) {
        for order in [["N", "M", "K"], ["K", "N", "M"], ["M", "N", "K"]] {
            assert_oracle(
                &t,
                |t| t.swizzle(&order),
                |c| c.swizzle(&order),
            )?;
        }
    }

    #[test]
    fn transpose_matches_owned_oracle(t in arb_matrix()) {
        // CSR→CSC: the pull-to-front bucket-sort fast path must stay
        // bit-identical to the comparison-sorted owned oracle.
        assert_oracle(
            &t,
            |t| t.swizzle(&["K", "M"]),
            |c| c.swizzle(&["K", "M"]),
        )?;
    }

    #[test]
    fn shape_partition_matches_owned_oracle(t in arb_matrix(), chunk in 1u64..20) {
        for rank in ["M", "K"] {
            assert_oracle(
                &t,
                |t| t.partition_rank(rank, SplitKind::UniformShape(chunk), "U", "L"),
                |c| c.partition_rank(rank, SplitKind::UniformShape(chunk), "U", "L"),
            )?;
        }
    }

    #[test]
    fn occupancy_partition_matches_owned_oracle(t in arb_matrix(), size in 1usize..10) {
        for rank in ["M", "K"] {
            assert_oracle(
                &t,
                |t| t.partition_rank(rank, SplitKind::UniformOccupancy(size), "U", "L"),
                |c| c.partition_rank(rank, SplitKind::UniformOccupancy(size), "U", "L"),
            )?;
        }
    }

    #[test]
    fn flatten_matches_owned_oracle(t in arb_3tensor()) {
        for rank in ["M", "K"] {
            assert_oracle(
                &t,
                |t| t.flatten_rank(rank, "F"),
                |c| c.flatten_rank(rank, "F"),
            )?;
        }
        // Arity 3, fused from either side: a pair rank absorbing the
        // point rank below it, and a point rank absorbing a pair below.
        assert_oracle(
            &t,
            |t| t.flatten_rank("M", "MK")?.flatten_rank("MK", "MKN"),
            |c| c.flatten_rank("M", "MK")?.flatten_rank("MK", "MKN"),
        )?;
        assert_oracle(
            &t,
            |t| t.flatten_rank("K", "KN")?.flatten_rank("M", "MKN"),
            |c| c.flatten_rank("K", "KN")?.flatten_rank("M", "MKN"),
        )?;
    }

    #[test]
    fn flatten_then_occupancy_partition_matches_owned_oracle(
        t in arb_3tensor(),
        size in 1usize..8,
    ) {
        // Fig. 2 end-to-end on pair coordinates: flatten, then split the
        // fused rank by occupancy (upper coordinates become pairs).
        assert_oracle(
            &t,
            |t| {
                t.flatten_rank("M", "MK")?
                    .partition_rank("MK", SplitKind::UniformOccupancy(size), "MK1", "MK0")
            },
            |c| {
                c.flatten_rank("M", "MK")?
                    .partition_rank("MK", SplitKind::UniformOccupancy(size), "MK1", "MK0")
            },
        )?;
        // The same on an arity-3 rank, swizzled back out of the split.
        assert_oracle(
            &t,
            |t| {
                t.flatten_rank("K", "KN")?
                    .flatten_rank("M", "MKN")?
                    .partition_rank("MKN", SplitKind::UniformOccupancy(size), "P1", "P0")?
                    .swizzle(&["P0", "P1"])
            },
            |c| {
                c.flatten_rank("K", "KN")?
                    .flatten_rank("M", "MKN")?
                    .partition_rank("MKN", SplitKind::UniformOccupancy(size), "P1", "P0")?
                    .swizzle(&["P0", "P1"])
            },
        )?;
    }

    #[test]
    fn leader_follower_boundaries_match_owned_oracle(
        leader in arb_matrix(),
        follower in arb_matrix(),
        size in 1usize..8,
    ) {
        // The leader publishes per-path boundaries; both representations
        // must publish the same map, and followers of either
        // representation must split identically under it.
        let cl = CompressedTensor::from_tensor(&leader).expect("compresses");
        let owned_bounds = leader.occupancy_boundaries_by_path("K", size).expect("bounds");
        let comp_bounds = cl.occupancy_boundaries_by_path("K", size).expect("bounds");
        prop_assert_eq!(&owned_bounds, &comp_bounds);

        assert_oracle(
            &follower,
            |t| {
                t.partition_rank(
                    "K",
                    SplitKind::BoundariesByPath(owned_bounds.clone()),
                    "K1",
                    "K0",
                )
            },
            |c| {
                c.partition_rank(
                    "K",
                    SplitKind::BoundariesByPath(comp_bounds.clone()),
                    "K1",
                    "K0",
                )
            },
        )?;
    }

    #[test]
    fn two_level_shape_partition_matches_owned_oracle(
        t in arb_matrix(),
        c1 in 2u64..16,
        c0 in 1u64..8,
    ) {
        // ExTensor-style double split of one rank.
        assert_oracle(
            &t,
            |t| {
                t.partition_rank("K", SplitKind::UniformShape(c1), "K2", "Kx")?
                    .partition_rank("Kx", SplitKind::UniformShape(c0), "K1", "K0")
            },
            |c| {
                c.partition_rank("K", SplitKind::UniformShape(c1), "K2", "Kx")?
                    .partition_rank("Kx", SplitKind::UniformShape(c0), "K1", "K0")
            },
        )?;
    }
}

#[test]
fn error_paths_match_the_owned_transforms() {
    let t = Tensor::from_entries("A", &["M", "K"], &[8, 8], vec![(vec![1, 2], 1.0)]).unwrap();
    let c = CompressedTensor::from_tensor(&t).unwrap();
    // Bad permutations.
    assert!(matches!(
        c.swizzle(&["M"]),
        Err(FibertreeError::BadPermutation { .. })
    ));
    assert!(matches!(
        c.swizzle(&["M", "Q"]),
        Err(FibertreeError::BadPermutation { .. })
    ));
    // Zero split sizes.
    assert!(matches!(
        c.partition_rank("K", SplitKind::UniformShape(0), "U", "L"),
        Err(FibertreeError::ZeroPartition)
    ));
    assert!(matches!(
        c.partition_rank("K", SplitKind::UniformOccupancy(0), "U", "L"),
        Err(FibertreeError::ZeroPartition)
    ));
    assert!(matches!(
        c.occupancy_boundaries_by_path("K", 0),
        Err(FibertreeError::ZeroPartition)
    ));
    // Unknown ranks.
    assert!(matches!(
        c.partition_rank("Q", SplitKind::UniformShape(2), "U", "L"),
        Err(FibertreeError::UnknownRank { .. })
    ));
    assert!(matches!(
        c.flatten_rank("Q", "F"),
        Err(FibertreeError::UnknownRank { .. })
    ));
    // Bottom rank cannot flatten.
    assert!(matches!(
        c.flatten_rank("K", "F"),
        Err(FibertreeError::UnknownRank { .. })
    ));
    // Shape-splitting a pair rank fails like the owned NotAnInterval.
    let flat = c.flatten_rank("M", "MK").unwrap();
    assert!(matches!(
        flat.partition_rank("MK", SplitKind::UniformShape(2), "U", "L"),
        Err(FibertreeError::NotAnInterval { .. })
    ));
    // A second flatten stays compressed and lands on the owned result.
    let t3 = Tensor::from_entries(
        "T",
        &["A", "B", "C"],
        &[4, 4, 4],
        vec![(vec![1, 2, 3], 1.0)],
    )
    .unwrap();
    let c3 = CompressedTensor::from_tensor(&t3).unwrap();
    let once = c3.flatten_rank("A", "AB").unwrap();
    let owned = t3
        .flatten_rank("A", "AB")
        .unwrap()
        .flatten_rank("AB", "ABC")
        .unwrap();
    assert_eq!(
        once.flatten_rank("AB", "ABC").unwrap(),
        CompressedTensor::from_tensor(&owned).unwrap()
    );
    // Shape-splitting an arity-3 rank fails like the owned NotAnInterval.
    assert!(matches!(
        once.flatten_rank("AB", "ABC").unwrap().partition_rank(
            "ABC",
            SplitKind::UniformShape(2),
            "U",
            "L"
        ),
        Err(FibertreeError::NotAnInterval { .. })
    ));
}

#[test]
fn empty_tensors_transform_in_both_representations() {
    let t = Tensor::empty("E", &["M", "K"], &[8, 8]);
    let c = CompressedTensor::from_tensor(&t).unwrap();
    for (owned, comp) in [
        (
            t.swizzle(&["K", "M"]).unwrap(),
            c.swizzle(&["K", "M"]).unwrap(),
        ),
        (
            t.partition_rank("M", SplitKind::UniformOccupancy(2), "U", "L")
                .unwrap(),
            c.partition_rank("M", SplitKind::UniformOccupancy(2), "U", "L")
                .unwrap(),
        ),
        (
            t.flatten_rank("M", "MK").unwrap(),
            c.flatten_rank("M", "MK").unwrap(),
        ),
    ] {
        assert_eq!(CompressedTensor::from_tensor(&owned).unwrap(), comp);
    }
}
