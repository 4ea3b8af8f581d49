//! The compressed path stays compressed end-to-end.
//!
//! `Simulator::run_data` with compressed inputs must (a) never decompress
//! on the hot path — every catalog SpMSpM spec's transform pipeline
//! (swizzles, shape/occupancy partitions, flattens) and output assembly
//! runs on CSF arrays, pinned by the process-wide
//! [`teaal_fibertree::telemetry::decompress_count`] — and (b) produce
//! reports bit-identical to the owned-input oracle: instrument counters,
//! time, energy, and output content all agree.
//!
//! This file holds a single test so nothing else in the process touches
//! the decompression counter between the snapshots.

use teaal_core::TeaalSpec;
use teaal_fibertree::{telemetry, CompressedTensor, TensorData};
use teaal_sim::Simulator;
use teaal_workloads::genmat;

#[test]
fn catalog_specs_run_compressed_native_with_zero_decompressions() {
    // Dense enough to exercise multi-boundary occupancy partitions,
    // flattening, and caches in every catalog spec.
    let a = genmat::uniform("A", &["K", "M"], 60, 50, 700, 21);
    let b = genmat::uniform("B", &["K", "N"], 60, 40, 600, 22);
    let ca = TensorData::Compressed(CompressedTensor::from_tensor(&a).unwrap());
    let cb = TensorData::Compressed(CompressedTensor::from_tensor(&b).unwrap());

    // The owned-input oracle runs first: untransformed inputs stream
    // through owned-tree cursors, transformed ones are compressed once.
    let (oa, ob) = (TensorData::Owned(a), TensorData::Owned(b));
    let mut oracles = Vec::new();
    for (label, yaml) in teaal_fixtures::spmspm_specs() {
        let sim = Simulator::new(TeaalSpec::parse(yaml).unwrap()).unwrap();
        oracles.push((label, sim.run_data(&[&oa, &ob]).unwrap()));
    }

    let before = telemetry::decompress_count();
    let mut compressed_reports = Vec::new();
    for (_, yaml) in teaal_fixtures::spmspm_specs() {
        let sim = Simulator::new(TeaalSpec::parse(yaml).unwrap()).unwrap();
        compressed_reports.push(sim.run_data(&[&ca, &cb]).unwrap());
    }
    assert_eq!(
        telemetry::decompress_count(),
        before,
        "the compressed path must never call to_tensor()"
    );

    for ((label, owned), compressed) in oracles.iter().zip(&compressed_reports) {
        // Every Instruments-derived counter, bit for bit.
        assert_eq!(
            owned.einsums, compressed.einsums,
            "{label}: instrument counters diverge on the compressed-native path"
        );
        assert_eq!(owned.seconds, compressed.seconds, "{label}: time diverges");
        assert_eq!(
            owned.energy_joules, compressed.energy_joules,
            "{label}: energy diverges"
        );
        // Outputs: same names, same CSF storage, same content.
        assert_eq!(
            owned.outputs.keys().collect::<Vec<_>>(),
            compressed.outputs.keys().collect::<Vec<_>>(),
            "{label}: output sets diverge"
        );
        for (name, o) in &owned.outputs {
            let c = &compressed.outputs[name];
            assert!(c.is_compressed(), "{label}/{name}: fast path is compressed");
            assert_eq!(o, c, "{label}/{name}: output storage diverges");
            assert_eq!(
                o.leaves(),
                c.leaves(),
                "{label}/{name}: output content diverges"
            );
            assert_eq!(o.nnz(), c.nnz(), "{label}/{name}: nnz diverges");
            assert_eq!(
                o.rank_stats(),
                c.rank_stats(),
                "{label}/{name}: structure diverges"
            );
        }
    }
}
