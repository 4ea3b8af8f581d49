//! SpMSpM shootout: run all four state-of-the-art accelerators from the
//! paper on the same (scaled) wiki-Vote-like matrix and compare the
//! models — functional agreement, DRAM traffic, time, and energy.
//!
//! Run with: `cargo run --release --example spmspm_shootout`

use teaal::prelude::*;
use teaal::workloads::by_tag;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = by_tag("wi").expect("wiki-Vote is registered");
    let scale = 16;
    let a = TensorData::from(CompressedTensor::from_tensor(&ds.matrix_named(
        "A",
        &["K", "M"],
        scale,
    ))?);
    let b = TensorData::from(CompressedTensor::from_tensor(&ds.matrix_named(
        "B",
        &["K", "N"],
        scale,
    ))?);
    println!(
        "workload: {} at 1/{scale} scale ({} x {}, {} nnz), kernel Z = A^T A\n",
        ds.name,
        a.rank_shapes()[0].extent(),
        a.rank_shapes()[1].extent(),
        a.nnz()
    );

    println!(
        "{:<12}{:>10}{:>14}{:>14}{:>14}{:>10}",
        "accelerator", "nnz(Z)", "DRAM (B)", "time (s)", "energy (J)", "blocks"
    );
    let mut reference: Option<TensorData> = None;
    for accel in SpmspmAccel::all() {
        let sim = accel.simulator()?;
        let report = sim.run_data(&[&a, &b])?;
        let z = report.final_output().expect("Z produced").clone();
        if let Some(r) = &reference {
            assert_eq!(r.max_abs_diff(&z), 0.0, "accelerators must agree");
        }
        println!(
            "{:<12}{:>10}{:>14}{:>14.3e}{:>14.3e}{:>10}",
            accel.label(),
            z.nnz(),
            report.dram_bytes(),
            report.seconds,
            report.energy_joules,
            report.blocks.len()
        );
        reference = Some(z);
    }
    println!("\nall four designs computed identical results from the same Einsum cascade");
    Ok(())
}
