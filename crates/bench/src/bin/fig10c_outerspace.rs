//! Fig. 10c — OuterSPACE execution time on uniform-random synthetic
//! matrices (the paper's dimension/density sweep).
//!
//! Usage: `fig10c_outerspace [--scale N]` — scale divides the sweep's
//! dimensions (and multiplies density to keep nnz per row constant).

use teaal_accel::SpmspmAccel;
use teaal_bench::{arg_scale, print_table, reported, simulate};
use teaal_workloads::genmat;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_scale(&args, "--scale", 8);
    let sim = SpmspmAccel::OuterSpace.simulator().expect("lowers");

    let mut rows = Vec::new();
    for (i, (dim, density)) in reported::FIG10C_SWEEP.iter().enumerate() {
        let d = dim / scale;
        let dens = density * scale as f64;
        let a = genmat::uniform_density("A", &["K", "M"], d, d, dens, 100 + i as u64);
        let b = genmat::uniform_density("B", &["K", "N"], d, d, dens, 200 + i as u64);
        let report = simulate(&sim, &[&a, &b]);
        rows.push((
            format!("{dim}/{density:.1e}"),
            vec![reported::FIG10C_OUTERSPACE_SECONDS[i], report.seconds],
        ));
    }
    print_table(
        &format!("Fig. 10c: OuterSPACE execution time, uniform sweep (scale 1/{scale})"),
        &["reported (s)", "TeAAL (s)"],
        &rows,
    );
    println!(
        "(paper note: the TeAAL model runs ~80% faster than the original simulator \
         but tracks its trend; scaled inputs shift absolute values)"
    );
}
