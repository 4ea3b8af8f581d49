//! Fig. 9 — memory traffic of ExTensor (9a), Gamma (9b), and
//! OuterSPACE (9c) on the five validation matrices, normalized to the
//! algorithmic minimum and broken down by tensor.
//!
//! Usage: `fig09_traffic [extensor|gamma|outerspace|all] [--scale N]`

use teaal_accel::SpmspmAccel;
use teaal_bench::{
    algorithmic_min_bytes, arg_scale, arithmetic_mean, compressed, pct_error, print_table,
    reported, spmspm_pair_by_tag, DEFAULT_MATRIX_SCALE,
};

fn run_accel(accel: SpmspmAccel, scale: u64) {
    let (fig, reported_totals): (&str, &[f64; 5]) = match accel {
        SpmspmAccel::ExTensor => ("Fig. 9a", &reported::FIG9A_EXTENSOR_TRAFFIC),
        SpmspmAccel::Gamma => ("Fig. 9b", &reported::FIG9B_GAMMA_TRAFFIC),
        SpmspmAccel::OuterSpace => ("Fig. 9c", &reported::FIG9C_OUTERSPACE_TRAFFIC),
        SpmspmAccel::Sigma => {
            println!("(SIGMA has no published traffic baseline — §7)");
            return;
        }
    };
    let sim = accel.simulator().expect("embedded spec lowers");
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for (i, tag) in reported::VALIDATION_TAGS.iter().enumerate() {
        let (a, b) = spmspm_pair_by_tag(tag, scale);
        let (a, b) = (compressed(&a), compressed(&b));
        let report = sim.run_data(&[&a, &b]).expect("simulation runs");
        let amin = algorithmic_min_bytes(sim.spec(), &a, &b, &report).max(1) as f64;
        let norm = |bytes: u64| bytes as f64 / amin;
        let a_t = norm(report.dram_bytes_of("A"));
        let b_t = norm(report.dram_bytes_of("B"));
        let z_t = norm(
            report
                .einsums
                .last()
                .map(|e| e.output_write_bytes)
                .unwrap_or(0),
        );
        let po_t = norm(
            report
                .einsums
                .iter()
                .map(|e| e.output_partial_bytes)
                .sum::<u64>(),
        );
        let t_t = norm(report.dram_bytes_of("T"));
        let total = norm(report.dram_bytes());
        let rep = reported_totals[i];
        errors.push(pct_error(total, rep));
        rows.push((
            tag.to_string(),
            vec![a_t, b_t, z_t, po_t, t_t, total, rep, pct_error(total, rep)],
        ));
    }
    print_table(
        &format!(
            "{fig}: {} normalized memory traffic (scale 1/{scale})",
            accel.label()
        ),
        &["A", "B", "Z", "PO", "T", "total", "reported", "err %"],
        &rows,
    );
    println!(
        "mean |error| vs digitized reported bars: {:.1}%",
        arithmetic_mean(&errors)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", DEFAULT_MATRIX_SCALE);
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let accels: Vec<SpmspmAccel> = match which {
        "extensor" => vec![SpmspmAccel::ExTensor],
        "gamma" => vec![SpmspmAccel::Gamma],
        "outerspace" => vec![SpmspmAccel::OuterSpace],
        _ => vec![
            SpmspmAccel::ExTensor,
            SpmspmAccel::Gamma,
            SpmspmAccel::OuterSpace,
        ],
    };
    for accel in accels {
        run_accel(accel, scale);
    }
}
