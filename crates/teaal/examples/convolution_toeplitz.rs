//! Cascades of Einsums capture multi-phase implementations (paper §3.1):
//! direct 1-D convolution versus the Toeplitz (im2col) expansion that
//! rewrites it as a two-Einsum cascade. Both compute the same output;
//! the cascade exposes the intermediate `T` and its own mapping freedom.
//!
//! Run with: `cargo run --example convolution_toeplitz`

use teaal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let direct = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - O[q] = I[q + s] * F[s]\n",
    ))?;
    let toeplitz = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [W]\n",
        "    F: [S]\n",
        "    T: [Q, S]\n",
        "    O: [Q]\n",
        "  expressions:\n",
        "    - T[q, s] = I[q + s]\n",
        "    - O[q] = T[q, s] * F[s]\n",
    ))?;

    let i = TensorData::from(CompressedTensor::from_entries(
        "I",
        &["W"],
        &[10],
        (0..10).map(|w| (vec![w], (w + 1) as f64)).collect(),
    )?);
    let f = TensorData::from(CompressedTensor::from_entries(
        "F",
        &["S"],
        &[3],
        vec![(vec![0], 1.0), (vec![1], -2.0), (vec![2], 1.0)],
    )?);
    let q = 8; // output extent: W - S + 1

    let run = |name: &str, spec: TeaalSpec| -> Result<TensorData, Box<dyn std::error::Error>> {
        let sim = Simulator::new(spec)?
            .with_rank_extent("Q", q)
            .with_rank_extent("S", 3);
        let report = sim.run_data(&[&i, &f])?;
        let o = report.final_output().expect("O produced").clone();
        println!("{name}: O = {o}");
        println!("  einsums executed: {}", report.einsums.len());
        Ok(o)
    };

    let o_direct = run("direct convolution", direct)?;
    let o_toeplitz = run("Toeplitz cascade  ", toeplitz)?;
    assert_eq!(o_direct.max_abs_diff(&o_toeplitz), 0.0);
    println!("\nboth styles produce identical outputs — the cascade is a rewrite");
    Ok(())
}
