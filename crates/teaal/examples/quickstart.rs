//! Quickstart: describe an accelerator declaratively, generate its
//! simulator, run it on a real sparse tensor, and read the model's
//! outputs.
//!
//! Run with: `cargo run --example quickstart`

use teaal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A TeAAL specification is a cascade of Einsums plus a mapping.
    // This one is a plain sparse matrix multiply with a K-tiled loop
    // order — a ~20-line accelerator description.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
        "mapping:\n",
        "  rank-order:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  partitioning:\n",
        "    Z:\n",
        "      K: [uniform_shape(4)]\n",
        "  loop-order:\n",
        "    Z: [K1, M, K0, N]\n",
        "  spacetime:\n",
        "    Z:\n",
        "      space: [M]\n",
        "      time: [K1, K0, N]\n",
    ))?;

    let sim = Simulator::new(spec)?;

    // Real tensors, built from coordinate/value entries straight into
    // compressed (CSF) storage.
    let a = TensorData::from(CompressedTensor::from_entries(
        "A",
        &["K", "M"],
        &[8, 8],
        vec![
            (vec![0, 0], 1.0),
            (vec![0, 5], 2.0),
            (vec![3, 2], 3.0),
            (vec![7, 0], 4.0),
            (vec![7, 5], 5.0),
        ],
    )?);
    let b = TensorData::from(CompressedTensor::from_entries(
        "B",
        &["K", "N"],
        &[8, 8],
        vec![(vec![0, 1], 10.0), (vec![3, 3], 20.0), (vec![7, 1], 30.0)],
    )?);

    let report = sim.run_data(&[&a, &b])?;

    let z = report.final_output().expect("cascade produced Z");
    println!("Z = {z}");
    println!("\n{report}");
    println!("muls performed: {}", report.einsums[0].muls);
    println!("DRAM traffic:   {} bytes", report.dram_bytes());
    println!("model time:     {:.3e} s", report.seconds);
    println!("model energy:   {:.3e} J", report.energy_joules);
    Ok(())
}
