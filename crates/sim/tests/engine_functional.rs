//! Functional validation of the engine: every mapping style the paper
//! evaluates must compute the same answer as a dense reference.

use std::collections::BTreeMap;

use teaal_core::TeaalSpec;
use teaal_fibertree::{Tensor, TensorData};
use teaal_sim::{OpTable, Simulator};

/// Dense SpMSpM reference: `Z[m, n] = Σ_k A[k, m] · B[k, n]`.
fn dense_spmspm(a: &Tensor, b: &Tensor) -> BTreeMap<(u64, u64), f64> {
    let mut out = BTreeMap::new();
    for (pa, va) in a.entries() {
        let (k, m) = (pa[0], pa[1]);
        for (pb, vb) in b.entries() {
            if pb[0] == k {
                *out.entry((m, pb[1])).or_insert(0.0) += va * vb;
            }
        }
    }
    out.retain(|_, v| *v != 0.0);
    out
}

fn check_matches_reference(z: &TensorData, reference: &BTreeMap<(u64, u64), f64>) {
    let mut got = BTreeMap::new();
    for (p, v) in z.entries() {
        got.insert((p[0], p[1]), v);
    }
    assert_eq!(got.len(), reference.len(), "nnz mismatch");
    for (k, v) in reference {
        let g = got
            .get(k)
            .unwrap_or_else(|| panic!("missing output point {k:?}"));
        assert!((g - v).abs() < 1e-9, "value mismatch at {k:?}: {g} vs {v}");
    }
}

fn matrix_a() -> Tensor {
    // [K, M] layout, 6x5.
    Tensor::from_entries(
        "A",
        &["K", "M"],
        &[6, 5],
        vec![
            (vec![0, 0], 1.0),
            (vec![0, 3], 2.0),
            (vec![1, 1], 3.0),
            (vec![2, 0], 4.0),
            (vec![2, 2], -1.0),
            (vec![3, 4], 5.0),
            (vec![5, 0], 2.5),
            (vec![5, 4], -2.0),
        ],
    )
    .unwrap()
}

fn matrix_b() -> Tensor {
    // [K, N] layout, 6x4.
    Tensor::from_entries(
        "B",
        &["K", "N"],
        &[6, 4],
        vec![
            (vec![0, 1], 1.5),
            (vec![1, 0], 2.0),
            (vec![1, 3], -1.0),
            (vec![2, 2], 3.0),
            (vec![3, 1], 0.5),
            (vec![4, 0], 9.0),
            (vec![5, 3], 1.0),
        ],
    )
    .unwrap()
}

// The catalog specs come from the shared fixtures crate — the same bytes
// `teaal-accel` embeds (sim cannot depend on accel without a cycle).
const OUTERSPACE: &str = teaal_fixtures::OUTERSPACE_EM;
const GAMMA: &str = teaal_fixtures::GAMMA_EM;
const EXTENSOR: &str = teaal_fixtures::EXTENSOR_EM;
const SIGMA: &str = teaal_fixtures::SIGMA_EM;

#[test]
fn plain_matmul_matches_reference() {
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    ))
    .unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    check_matches_reference(
        report.final_output().unwrap(),
        &dense_spmspm(&matrix_a(), &matrix_b()),
    );
}

#[test]
fn outerspace_mapping_matches_reference() {
    let spec = TeaalSpec::parse(OUTERSPACE).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    check_matches_reference(
        report.final_output().unwrap(),
        &dense_spmspm(&matrix_a(), &matrix_b()),
    );
    // Two einsums, two blocks (OuterSPACE does not fuse).
    assert_eq!(report.einsums.len(), 2);
    assert_eq!(report.blocks.len(), 2);
    // T is produced in [K, M, N] order but stored [M, K, N]: an online
    // swizzle (merge) must have been recorded.
    assert!(
        report.einsums.iter().any(|e| !e.merges.is_empty()),
        "outerspace must sort its partial products"
    );
}

#[test]
fn gamma_mapping_matches_reference() {
    let spec = TeaalSpec::parse(GAMMA).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    check_matches_reference(
        report.final_output().unwrap(),
        &dense_spmspm(&matrix_a(), &matrix_b()),
    );
    // Gamma's two einsums fuse into one block (paper §5).
    assert_eq!(report.blocks.len(), 1);
}

#[test]
fn extensor_mapping_matches_reference() {
    let spec = TeaalSpec::parse(EXTENSOR).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    check_matches_reference(
        report.final_output().unwrap(),
        &dense_spmspm(&matrix_a(), &matrix_b()),
    );
    // Hierarchical (tiled) intersection happens at the K tile ranks.
    assert!(report.einsums[0].intersections > 0);
}

#[test]
fn sigma_mapping_matches_reference() {
    let spec = TeaalSpec::parse(SIGMA).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    check_matches_reference(
        report.final_output().unwrap(),
        &dense_spmspm(&matrix_a(), &matrix_b()),
    );
    assert_eq!(report.einsums.len(), 3); // S, T, Z
}

#[test]
fn all_four_accelerators_agree() {
    let mut answers = Vec::new();
    for src in [OUTERSPACE, GAMMA, EXTENSOR, SIGMA] {
        let spec = TeaalSpec::parse(src).unwrap();
        let sim = Simulator::new(spec).unwrap();
        let report = sim
            .run_data(&[&matrix_a().into(), &matrix_b().into()])
            .unwrap();
        let z = report.final_output().unwrap().clone();
        answers.push(z);
    }
    for w in answers.windows(2) {
        assert_eq!(w[0].max_abs_diff(&w[1]), 0.0);
    }
}

#[test]
fn direct_convolution_matches_reference() {
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - O[q] = I[q + s] * F[s]\n",
    ))
    .unwrap();
    let i = Tensor::from_entries(
        "I",
        &["W"],
        &[6],
        vec![
            (vec![0], 1.0),
            (vec![1], 2.0),
            (vec![2], 3.0),
            (vec![3], 4.0),
            (vec![4], 5.0),
            (vec![5], 6.0),
        ],
    )
    .unwrap();
    let f = Tensor::from_entries("F", &["S"], &[2], vec![(vec![0], 1.0), (vec![1], 10.0)]).unwrap();
    let sim = Simulator::new(spec).unwrap().with_rank_extent("Q", 5);
    let report = sim.run_data(&[&i.into(), &f.into()]).unwrap();
    let o = report.final_output().unwrap();
    // O[q] = I[q]·1 + I[q+1]·10.
    assert_eq!(o.get(&[0]), Some(21.0));
    assert_eq!(o.get(&[1]), Some(32.0));
    assert_eq!(o.get(&[4]), Some(65.0));
}

#[test]
fn toeplitz_cascade_matches_direct_convolution() {
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    T: [Q, S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - T[q, s] = I[q + s]\n",
        "    - O[q] = T[q, s] * F[s]\n",
    ))
    .unwrap();
    let i = Tensor::from_entries(
        "I",
        &["W"],
        &[6],
        vec![
            (vec![0], 1.0),
            (vec![1], 2.0),
            (vec![2], 3.0),
            (vec![3], 4.0),
            (vec![4], 5.0),
            (vec![5], 6.0),
        ],
    )
    .unwrap();
    let f = Tensor::from_entries("F", &["S"], &[2], vec![(vec![0], 1.0), (vec![1], 10.0)]).unwrap();
    let sim = Simulator::new(spec)
        .unwrap()
        .with_rank_extent("Q", 5)
        .with_rank_extent("S", 2);
    let report = sim.run_data(&[&i.into(), &f.into()]).unwrap();
    let o = report.final_output().unwrap();
    assert_eq!(o.get(&[0]), Some(21.0));
    assert_eq!(o.get(&[4]), Some(65.0));
}

#[test]
fn union_and_subtraction_semantics() {
    // Y[k] = E[k] + T[k]; M[k] = Y[k] - E[k].
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    E: [K]\n",
        "    T: [K]\n",
        "    Y: [K]\n",
        "    M: [K]\n",
        "  expressions:\n",
        "    - Y[k] = E[k] + T[k]\n",
        "    - M[k] = Y[k] - E[k]\n",
    ))
    .unwrap();
    let e = Tensor::from_entries("E", &["K"], &[6], vec![(vec![0], 1.0), (vec![2], 2.0)]).unwrap();
    let t = Tensor::from_entries("T", &["K"], &[6], vec![(vec![2], 5.0), (vec![4], 7.0)]).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim.run_data(&[&e.into(), &t.into()]).unwrap();
    let y = report.outputs.get("Y").unwrap();
    assert_eq!(y.get(&[0]), Some(1.0));
    assert_eq!(y.get(&[2]), Some(7.0));
    assert_eq!(y.get(&[4]), Some(7.0));
    let m = report.outputs.get("M").unwrap();
    assert_eq!(m.get(&[0]), None); // 1 - 1 = 0 → pruned
    assert_eq!(m.get(&[2]), Some(5.0));
    assert_eq!(m.get(&[4]), Some(7.0));
}

#[test]
fn take_operator_filters_like_gamma() {
    // T[k, m, n] = take(A[k, m], B[k, n], 1): copies B where A is present.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    T: [K, M, N]\n",
        "  expressions:\n",
        "    - T[k, m, n] = take(A[k, m], B[k, n], 1)\n",
    ))
    .unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    let t = report.final_output().unwrap();
    // A[0, 0] and B[0, 1] both exist → T[0, 0, 1] = B[0, 1] = 1.5.
    assert_eq!(t.get(&[0, 0, 1]), Some(1.5));
    // k = 4 has no A entries → nothing copied at k = 4.
    assert_eq!(t.get(&[4, 0, 0]), None);
}

#[test]
fn min_plus_semiring_relaxation() {
    // R[d] = G[d, s] * P[s] over min-plus: single-step SSSP relaxation.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    G: [D, S]\n",
        "    P: [S]\n",
        "    R: [D]\n",
        "  expressions:\n",
        "    - R[d] = G[d, s] * P[s]\n",
    ))
    .unwrap();
    let g = Tensor::from_entries(
        "G",
        &["D", "S"],
        &[3, 3],
        vec![(vec![1, 0], 4.0), (vec![2, 0], 9.0), (vec![2, 1], 1.0)],
    )
    .unwrap();
    let p = Tensor::from_entries("P", &["S"], &[3], vec![(vec![0], 0.5), (vec![1], 2.0)]).unwrap();
    let sim = Simulator::new(spec).unwrap().with_ops(OpTable::sssp());
    let report = sim.run_data(&[&g.into(), &p.into()]).unwrap();
    let r = report.final_output().unwrap();
    assert_eq!(r.get(&[1]), Some(4.5)); // 4 + 0.5
    assert_eq!(r.get(&[2]), Some(3.0)); // min(9 + 0.5, 1 + 2)
}

#[test]
fn empty_inputs_produce_empty_outputs() {
    let spec = TeaalSpec::parse(OUTERSPACE).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let a = Tensor::empty("A", &["K", "M"], &[6, 5]);
    let report = sim.run_data(&[&a.into(), &matrix_b().into()]).unwrap();
    assert_eq!(report.final_output().unwrap().nnz(), 0);
    assert_eq!(report.einsums[1].muls, 0);
}

#[test]
fn traffic_is_nonzero_and_energy_positive() {
    let spec = TeaalSpec::parse(GAMMA).unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim
        .run_data(&[&matrix_a().into(), &matrix_b().into()])
        .unwrap();
    assert!(report.dram_bytes() > 0);
    assert!(report.energy_joules > 0.0);
    assert!(report.seconds > 0.0);
    assert!(report.dram_bytes_of("A") > 0);
    assert!(report.dram_bytes_of("B") > 0);
}
