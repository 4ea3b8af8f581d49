//! Eyeriss (ISCA 2016): the dense CNN accelerator the paper lists among
//! its modeled designs (§5) and in the Table 2 cascade catalogue.
//!
//! Eyeriss demonstrates that the same Einsum-plus-mapping abstraction
//! covers *dense* designs: the direct-convolution Einsum with affine
//! indices (`I[p + r, q + s]`) and a row-stationary-flavored mapping
//! (filter rows pinned in PEs, input rows reused diagonally). Dense
//! tensors are just fibertrees with every coordinate present.

use teaal_core::TeaalSpec;

/// Single-channel 2-D direct convolution (`O[p, q] = I[p+r, q+s]·F[r, s]`)
/// with a row-stationary-style mapping: `R` is spatial (one filter row per
/// PE row) and `P` is spatial (one output row per PE diagonal), with `Q`
/// and `S` streaming in time.
pub const YAML: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    I: [H, W]\n",
    "    F: [R, S]\n",
    "    O: [P, Q]\n",
    "  expressions:\n",
    "    - O[p, q] = I[p + r, q + s] * F[r, s]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    O: [P, R, Q, S]\n",
    "  spacetime:\n",
    "    O:\n",
    "      space: [P, R]\n",
    "      time: [Q, S]\n",
    "format:\n",
    "  I:\n",
    "    Dense:\n",
    "      H:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      W:\n",
    "        format: U\n",
    "        pbits: 16\n",
    "  F:\n",
    "    Dense:\n",
    "      R:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      S:\n",
    "        format: U\n",
    "        pbits: 16\n",
    "  O:\n",
    "    Dense:\n",
    "      P:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      Q:\n",
    "        format: U\n",
    "        pbits: 16\n",
    "architecture:\n",
    "  clock: 200_000_000\n",
    "  configs:\n",
    "    Default:\n",
    "      name: System\n",
    "      local:\n",
    "        - name: DRAM\n",
    "          class: DRAM\n",
    "          bandwidth: 1_000_000_000\n",
    "        - name: GLB\n",
    "          class: buffet\n",
    "          width: 64\n",
    "          depth: 13_568\n",
    "          bandwidth: 25_600_000_000\n",
    "      subtree:\n",
    "        - name: PE\n",
    "          count: 168\n",
    "          local:\n",
    "            - name: Spad\n",
    "              class: buffet\n",
    "              width: 16\n",
    "              depth: 224\n",
    "              bandwidth: 3_200_000_000\n",
    "            - name: MAC\n",
    "              class: compute\n",
    "              op: mul\n",
    "            - name: Psum\n",
    "              class: compute\n",
    "              op: add\n",
    "binding:\n",
    "  O:\n",
    "    config: Default\n",
    "    storage:\n",
    "      - component: GLB\n",
    "        tensor: I\n",
    "        config: Dense\n",
    "        rank: H\n",
    "        type: elem\n",
    "        style: lazy\n",
    "        evict-on: P\n",
    "      - component: Spad\n",
    "        tensor: F\n",
    "        config: Dense\n",
    "        rank: R\n",
    "        type: elem\n",
    "        style: lazy\n",
    "    compute:\n",
    "      - component: MAC\n",
    "        op: mul\n",
    "      - component: Psum\n",
    "        op: add\n",
);

/// Parses and validates the Eyeriss specification.
///
/// # Panics
///
/// Panics if the embedded specification fails to validate (covered by
/// tests).
pub fn spec() -> TeaalSpec {
    TeaalSpec::parse(YAML).expect("embedded Eyeriss spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_core::ir;
    use teaal_fibertree::Tensor;
    use teaal_sim::Simulator;

    #[test]
    fn spec_parses_and_lowers() {
        let s = spec();
        let plans = ir::lower(&s).unwrap();
        assert_eq!(plans.len(), 1);
        // Both R and P are spatial (the row-stationary grid).
        let spaces: Vec<&str> = plans[0]
            .space_ranks()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(spaces, vec!["P", "R"]);
    }

    #[test]
    fn convolves_a_dense_image_correctly() {
        let s = spec();
        let image: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..6).map(|c| (r * 6 + c) as f64 + 1.0).collect())
            .collect();
        let i = Tensor::from_dense_2d("I", &["H", "W"], &image);
        let f = Tensor::from_dense_2d("F", &["R", "S"], &[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let sim = Simulator::new(s)
            .unwrap()
            .with_rank_extent("P", 5)
            .with_rank_extent("Q", 5)
            .with_rank_extent("R", 2)
            .with_rank_extent("S", 2);
        let report = sim.run_data(&[&i.clone().into(), &f.into()]).unwrap();
        let o = report.final_output().unwrap();
        // 2×2 box filter: O[p,q] = I[p,q]+I[p,q+1]+I[p+1,q]+I[p+1,q+1].
        for p in 0..5u64 {
            for q in 0..5u64 {
                let want = image[p as usize][q as usize]
                    + image[p as usize][q as usize + 1]
                    + image[p as usize + 1][q as usize]
                    + image[p as usize + 1][q as usize + 1];
                assert_eq!(o.get(&[p, q]), Some(want), "O[{p},{q}]");
            }
        }
        // Dense workloads exercise the model too.
        assert!(report.einsums[0].muls > 0);
        assert!(report.dram_bytes() > 0);
    }
}
