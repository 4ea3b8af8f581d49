//! TeAAL as a design tool: sweep a mapping parameter (the occupancy
//! partition size — how many nonzeros each PE group owns) and watch the
//! model trade load balance against partitioning overhead. Only the
//! *mapping* changes; the Einsum, formats, and architecture stay fixed.
//!
//! Run with: `cargo run --release --example design_space`

use teaal::prelude::*;
use teaal::workloads::genmat;

fn spec_with_partition(size: usize) -> String {
    format!(
        concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [K, M, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - T[k, m, n] = A[k, m] * B[k, n]\n",
            "    - Z[m, n] = T[k, m, n]\n",
            "mapping:\n",
            "  rank-order:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [M, K, N]\n",
            "    Z: [M, N]\n",
            "  partitioning:\n",
            "    T:\n",
            "      (K, M): [flatten()]\n",
            "      KM: [uniform_occupancy(A.{size})]\n",
            "  loop-order:\n",
            "    T: [KM1, KM0, N]\n",
            "    Z: [M, N, K]\n",
            "  spacetime:\n",
            "    T:\n",
            "      space: [KM0]\n",
            "      time: [KM1, N]\n",
            "    Z:\n",
            "      space: []\n",
            "      time: [M, N, K]\n",
        ),
        size = size
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = genmat::power_law("A", &["K", "M"], 512, 512, 4096, 1.8, 256, 7);
    let b = genmat::power_law("B", &["K", "N"], 512, 512, 4096, 1.8, 256, 8);
    let a = TensorData::from(CompressedTensor::from_tensor(&a)?);
    let b = TensorData::from(CompressedTensor::from_tensor(&b)?);
    println!("sweeping occupancy partition size (outer-product multiply phase)\n");
    println!(
        "{:>10}{:>12}{:>14}{:>14}{:>12}",
        "size", "PEs used", "max PE ops", "total ops", "time (s)"
    );
    for size in [8, 16, 32, 64, 128, 256] {
        let spec = TeaalSpec::parse(&spec_with_partition(size))?;
        let sim = Simulator::new(spec)?;
        let report = sim.run_data(&[&a, &b])?;
        let t = &report.einsums[0];
        println!(
            "{:>10}{:>12}{:>14}{:>14}{:>12.3e}",
            size, t.spaces, t.max_pe_ops, t.muls, report.seconds
        );
    }
    println!("\nsmaller partitions spread work across more PEs (lower max-PE ops)");
    println!("until partition bookkeeping and the serial merge dominate.");
    Ok(())
}
