//! Fig. 11 — ExTensor energy on the validation matrices (mJ), with the
//! arithmetic mean the figure appends.
//!
//! Usage: `fig11_energy [--scale N]`

use teaal_accel::SpmspmAccel;
use teaal_bench::{
    arg_scale, arithmetic_mean, pct_error, print_table, reported, simulate, spmspm_pair_by_tag,
    DEFAULT_MATRIX_SCALE,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", DEFAULT_MATRIX_SCALE);
    let sim = SpmspmAccel::ExTensor.simulator().expect("lowers");

    let mut rows = Vec::new();
    let mut measured = Vec::new();
    let mut errors = Vec::new();
    // Scaled inputs shrink energy quadratically-ish; report both the raw
    // millijoules and values rescaled by the nnz ratio for comparability.
    for (i, tag) in reported::VALIDATION_TAGS.iter().enumerate() {
        let (a, b) = spmspm_pair_by_tag(tag, scale);
        let report = simulate(&sim, &[&a, &b]);
        let mj = report.energy_joules * 1e3;
        let rep = reported::FIG11_EXTENSOR_ENERGY_MJ[i];
        measured.push(mj);
        errors.push(pct_error(mj * (scale * scale) as f64, rep));
        rows.push((tag.to_string(), vec![rep, mj, mj * (scale * scale) as f64]));
    }
    rows.push((
        "AM".to_string(),
        vec![
            arithmetic_mean(&reported::FIG11_EXTENSOR_ENERGY_MJ),
            arithmetic_mean(&measured),
            arithmetic_mean(&measured) * (scale * scale) as f64,
        ],
    ));
    print_table(
        &format!("Fig. 11: ExTensor energy (scale 1/{scale})"),
        &["reported (mJ)", "TeAAL (mJ)", "rescaled (mJ)"],
        &rows,
    );
    println!(
        "mean |error| after rescale: {:.1}% (paper: 7.8%)",
        arithmetic_mean(&errors)
    );
}
