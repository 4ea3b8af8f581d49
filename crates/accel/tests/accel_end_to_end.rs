//! End-to-end runs of every built-in accelerator on a (scaled) Table 4
//! matrix: all four must agree functionally and produce sane models.

use teaal_accel::SpmspmAccel;
use teaal_fibertree::Tensor;
use teaal_workloads::by_tag;

fn inputs() -> (Tensor, Tensor) {
    // Heavily scaled wiki-Vote substitute: the validation kernel is
    // Z = AᵀA (both operands the same matrix, as in the original papers).
    let ds = by_tag("wi").expect("wi is registered");
    let a = ds.matrix_named("A", &["K", "M"], 64);
    let b = ds.matrix_named("B", &["K", "N"], 64);
    (a, b)
}

#[test]
fn all_accelerators_run_and_agree_on_wi() {
    let (a, b) = inputs();
    let mut outputs = Vec::new();
    for accel in SpmspmAccel::all() {
        let sim = accel.simulator().expect("lowers");
        let report = sim
            .run_data(&[&a.clone().into(), &b.clone().into()])
            .unwrap_or_else(|e| panic!("{} failed: {e}", accel.label()));
        assert!(report.dram_bytes() > 0, "{} must move data", accel.label());
        assert!(report.seconds > 0.0, "{} must take time", accel.label());
        assert!(
            report.energy_joules > 0.0,
            "{} must burn energy",
            accel.label()
        );
        outputs.push((accel.label(), report.final_output().unwrap().clone()));
    }
    for w in outputs.windows(2) {
        assert_eq!(
            w[0].1.max_abs_diff(&w[1].1),
            0.0,
            "{} and {} disagree",
            w[0].0,
            w[1].0
        );
    }
}

#[test]
fn gamma_avoids_intermediate_traffic_outerspace_pays_it() {
    let (a, b) = inputs();
    let gamma = SpmspmAccel::Gamma.simulator().unwrap();
    let outer = SpmspmAccel::OuterSpace.simulator().unwrap();
    let gr = gamma
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap();
    let or = outer.run_data(&[&a.into(), &b.into()]).unwrap();
    // Gamma fuses: T stays on chip. OuterSPACE writes and re-reads the
    // partial-product linked lists.
    assert_eq!(gr.dram_bytes_of("T"), 0, "Gamma's T must stay on chip");
    assert!(or.dram_bytes_of("T") > 0, "OuterSPACE's T must hit DRAM");
    // That is the core reason Gamma moves less data overall.
    assert!(
        gr.dram_bytes() < or.dram_bytes(),
        "Gamma {} should beat OuterSPACE {}",
        gr.dram_bytes(),
        or.dram_bytes()
    );
}

#[test]
fn extensor_reports_partial_output_traffic() {
    let (a, b) = inputs();
    let sim = SpmspmAccel::ExTensor.simulator().unwrap();
    let report = sim.run_data(&[&a.into(), &b.into()]).unwrap();
    // The K2 tile loop revisits output tiles: Fig. 9a's PO component.
    let z = &report.einsums[0];
    assert!(
        z.output_partial_bytes > 0,
        "ExTensor should drain partial outputs"
    );
}

#[test]
fn sigma_prefilter_reduces_stationary_traffic() {
    let (a, b) = inputs();
    let sim = SpmspmAccel::Sigma.simulator().unwrap();
    let report = sim.run_data(&[&a.clone().into(), &b.into()]).unwrap();
    // T (the filtered stationary matrix) is never larger than A.
    let t = report.outputs.get("T").unwrap();
    assert!(t.nnz() <= a.nnz());
    assert_eq!(report.einsums.len(), 3);
}
