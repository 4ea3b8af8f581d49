//! Representation independence: the four catalog SpMSpM specs must
//! produce bit-identical instrument counters and output tensors whether
//! their inputs arrive as owned fibertrees or compressed (CSF) storage.
//!
//! This is the contract that lets callers pick a representation purely on
//! performance grounds — the model's answers (traffic, compute, visits,
//! intersections, outputs) never depend on the choice. Outputs are
//! compressed (CSF) storage either way.

use teaal_core::TeaalSpec;
use teaal_fibertree::{CompressedTensor, Tensor, TensorData};
use teaal_sim::Simulator;
use teaal_workloads::genmat;

fn matrix_a() -> Tensor {
    // [K, M] layout, 6x5 — same fixture as the functional suite.
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

/// Runs one spec with owned and with compressed inputs and asserts the
/// reports agree bit for bit.
fn assert_representation_independent(label: &str, yaml: &str, a: &Tensor, b: &Tensor) {
    let spec = TeaalSpec::parse(yaml).unwrap_or_else(|e| panic!("{label}: parse failed: {e}"));
    let sim = Simulator::new(spec).unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));

    let owned = sim
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap_or_else(|e| panic!("{label}: owned run failed: {e}"));

    let ca = TensorData::Compressed(CompressedTensor::from_tensor(a).unwrap());
    let cb = TensorData::Compressed(CompressedTensor::from_tensor(b).unwrap());
    let compressed = sim
        .run_data(&[&ca, &cb])
        .unwrap_or_else(|e| panic!("{label}: compressed run failed: {e}"));

    // Every Instruments-derived counter: traffic (fills, buffer reads,
    // touches), output writes/updates/partials, compute, load imbalance,
    // intersections, merges, loop visits.
    assert_eq!(
        owned.einsums, compressed.einsums,
        "{label}: instrument counters diverge across representations"
    );
    // Output tensors, bit for bit (exact f64 equality via PartialEq).
    assert_eq!(
        owned.outputs, compressed.outputs,
        "{label}: output tensors diverge across representations"
    );
    // Derived analyses follow from the above, but pin them anyway.
    assert_eq!(
        owned.seconds, compressed.seconds,
        "{label}: time model diverges"
    );
    assert_eq!(
        owned.energy_joules, compressed.energy_joules,
        "{label}: energy model diverges"
    );

    // Both legs assemble every output (and intermediate) in CSF storage.
    for (name, o) in &owned.outputs {
        let c = compressed
            .outputs
            .get(name)
            .unwrap_or_else(|| panic!("{label}: compressed run lost output {name}"));
        assert!(
            o.is_compressed() && c.is_compressed(),
            "{label}/{name}: outputs must be compressed"
        );
        assert_eq!(
            o.leaves(),
            c.leaves(),
            "{label}/{name}: output content diverges"
        );
    }
}

#[test]
fn catalog_specs_are_representation_independent_on_the_fixture_matrices() {
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        assert_representation_independent(label, yaml, &matrix_a(), &matrix_b());
    }
}

#[test]
fn catalog_specs_are_representation_independent_on_generated_matrices() {
    // A denser generated pair exercises multi-element intersections,
    // occupancy partitions with several boundaries, and cache behavior.
    let a = genmat::uniform("A", &["K", "M"], 60, 50, 700, 11);
    let b = genmat::uniform("B", &["K", "N"], 60, 40, 600, 12);
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        assert_representation_independent(label, yaml, &a, &b);
    }
}

#[test]
fn compressed_inputs_can_come_straight_from_coo() {
    // uniform_compressed builds CSF directly from the COO stream; the
    // same seed must land on the same model results as the owned path.
    let (rows, cols, nnz, seed) = (40, 40, 300, 5);
    let a = genmat::uniform("A", &["K", "M"], rows, cols, nnz, seed);
    let b = genmat::uniform("B", &["K", "N"], rows, cols, nnz, seed + 1);
    let ca = TensorData::Compressed(genmat::uniform_compressed(
        "A",
        &["K", "M"],
        rows,
        cols,
        nnz,
        seed,
    ));
    let cb = TensorData::Compressed(genmat::uniform_compressed(
        "B",
        &["K", "N"],
        rows,
        cols,
        nnz,
        seed + 1,
    ));
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let spec = TeaalSpec::parse(yaml).unwrap();
        let sim = Simulator::new(spec).unwrap();
        let owned = sim
            .run_data(&[&a.clone().into(), &b.clone().into()])
            .unwrap();
        let compressed = sim.run_data(&[&ca, &cb]).unwrap();
        assert_eq!(owned.einsums, compressed.einsums, "{label}");
        assert_eq!(owned.outputs, compressed.outputs, "{label}");
    }
}
