//! Fig. 10b — Gamma speedup over MKL on the validation matrices.
//!
//! Usage: `fig10b_gamma [--scale N]`

use teaal_accel::SpmspmAccel;
use teaal_bench::{
    arg_scale, arithmetic_mean, pct_error, print_table, reported, simulate, spmspm_pair_by_tag,
    DEFAULT_MATRIX_SCALE,
};
use teaal_workloads::baselines::{spgemm_cpu_bytes, spmspm_multiplies, CpuBaseline};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", DEFAULT_MATRIX_SCALE);
    let sim = SpmspmAccel::Gamma.simulator().expect("lowers");
    let cpu = CpuBaseline::default();

    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (i, tag) in reported::VALIDATION_TAGS.iter().enumerate() {
        let (a, b) = spmspm_pair_by_tag(tag, scale);
        let report = simulate(&sim, &[&a, &b]);
        let flops = 2.0 * spmspm_multiplies(&a, &b) as f64;
        let nnz_z = report.final_output().map_or(0, |z| z.nnz()) as u64;
        let mkl = cpu.spgemm_seconds(flops, spgemm_cpu_bytes(&a, &b, nnz_z));
        let speedup = mkl / report.seconds;
        let rep = reported::FIG10B_GAMMA_SPEEDUP[i];
        errors.push(pct_error(speedup, rep));
        rows.push((tag.to_string(), vec![rep, speedup]));
    }
    print_table(
        &format!("Fig. 10b: Gamma speedup over MKL (scale 1/{scale})"),
        &["reported", "TeAAL"],
        &rows,
    );
    println!(
        "mean |error|: {:.1}% (paper: 6.6%)",
        arithmetic_mean(&errors)
    );
}
