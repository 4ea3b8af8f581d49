//! Fig. 10a — ExTensor speedup over MKL, with the Sparseloop-like
//! analytical estimate alongside (its error demonstrates why data-driven
//! modeling matters).
//!
//! Usage: `fig10a_extensor [--scale N]`

use teaal_accel::SpmspmAccel;
use teaal_bench::{
    arg_scale, arithmetic_mean, pct_error, print_table, reported, simulate, spmspm_pair_by_tag,
    DEFAULT_MATRIX_SCALE,
};
use teaal_workloads::baselines::{
    spgemm_cpu_bytes, spmspm_multiplies, CpuBaseline, SparseloopLike,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", DEFAULT_MATRIX_SCALE);
    let sim = SpmspmAccel::ExTensor.simulator().expect("lowers");
    let cpu = CpuBaseline::default();
    let sloop = SparseloopLike::default();

    let mut rows = Vec::new();
    let (mut teaal_err, mut sloop_err) = (Vec::new(), Vec::new());
    for (i, tag) in reported::VALIDATION_TAGS.iter().enumerate() {
        let (a, b) = spmspm_pair_by_tag(tag, scale);
        let report = simulate(&sim, &[&a, &b]);
        let flops = 2.0 * spmspm_multiplies(&a, &b) as f64;
        let nnz_z = report.final_output().map_or(0, |z| z.nnz()) as u64;
        let mkl = cpu.spgemm_seconds(flops, spgemm_cpu_bytes(&a, &b, nnz_z));
        let teaal_speedup = mkl / report.seconds;
        let sloop_speedup = mkl / sloop.spmspm_seconds_from(&a, &b);
        let rep = reported::FIG10A_EXTENSOR_SPEEDUP[i];
        teaal_err.push(pct_error(teaal_speedup, rep));
        sloop_err.push(pct_error(sloop_speedup, rep));
        rows.push((tag.to_string(), vec![rep, teaal_speedup, sloop_speedup]));
    }
    print_table(
        &format!("Fig. 10a: ExTensor speedup over MKL (scale 1/{scale})"),
        &["reported", "TeAAL", "Sparseloop"],
        &rows,
    );
    println!(
        "mean |error|: TeAAL {:.1}%, Sparseloop-like {:.1}% (paper: 9.0% vs 187%)",
        arithmetic_mean(&teaal_err),
        arithmetic_mean(&sloop_err)
    );
}
