//! Tensaurus (HPCA 2020): the mixed sparse-dense accelerator the paper
//! lists among its modeled designs (§5), evaluated here on MTTKRP —
//! Table 2's `C[i, r] = T[i, j, k] · B[j, r] · A[k, r]`.
//!
//! Tensaurus's `SF3` (scalar-fiber-fiber) dataflow keeps the sparse tensor
//! `T` outermost and streams the dense factor matrices: each nonzero
//! `T[i, j, k]` scales the fiber `B[j, :]` and accumulates into `C[i, :]`
//! via the dense `A[k, :]` fiber.

use teaal_core::TeaalSpec;

/// MTTKRP with an SF3-style mapping: the sparse `T` drives iteration of
/// `[I, J, K]` and the dense `R` rank streams innermost, spatially across
/// PEs.
pub const YAML: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    T: [I, J, K]\n",
    "    B: [J, R]\n",
    "    A: [K, R]\n",
    "    C: [I, R]\n",
    "  expressions:\n",
    "    - C[i, r] = T[i, j, k] * B[j, r] * A[k, r]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    C: [I, J, K, R]\n",
    "  spacetime:\n",
    "    C:\n",
    "      space: [R]\n",
    "      time: [I, J, K]\n",
    "format:\n",
    "  T:\n",
    "    CSF:\n",
    "      I:\n",
    "        format: C\n",
    "        cbits: 32\n",
    "        pbits: 32\n",
    "      J:\n",
    "        format: C\n",
    "        cbits: 32\n",
    "        pbits: 32\n",
    "      K:\n",
    "        format: C\n",
    "        cbits: 32\n",
    "        pbits: 64\n",
    "  B:\n",
    "    Dense:\n",
    "      J:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      R:\n",
    "        format: U\n",
    "        pbits: 64\n",
    "  A:\n",
    "    Dense:\n",
    "      K:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      R:\n",
    "        format: U\n",
    "        pbits: 64\n",
    "  C:\n",
    "    Dense:\n",
    "      I:\n",
    "        format: U\n",
    "        pbits: 32\n",
    "      R:\n",
    "        format: U\n",
    "        pbits: 64\n",
    "architecture:\n",
    "  clock: 2_000_000_000\n",
    "  configs:\n",
    "    Default:\n",
    "      name: System\n",
    "      local:\n",
    "        - name: HBM\n",
    "          class: DRAM\n",
    "          bandwidth: 128_000_000_000\n",
    "        - name: SB\n",
    "          class: buffet\n",
    "          width: 512\n",
    "          depth: 32768\n",
    "          bandwidth: 512_000_000_000\n",
    "      subtree:\n",
    "        - name: PE\n",
    "          count: 8\n",
    "          local:\n",
    "            - name: MulALU\n",
    "              class: compute\n",
    "              op: mul\n",
    "              count: 16\n",
    "            - name: AddALU\n",
    "              class: compute\n",
    "              op: add\n",
    "              count: 16\n",
    "binding:\n",
    "  C:\n",
    "    config: Default\n",
    "    storage:\n",
    "      - component: SB\n",
    "        tensor: B\n",
    "        config: Dense\n",
    "        rank: J\n",
    "        type: elem\n",
    "        style: lazy\n",
    "      - component: SB\n",
    "        tensor: A\n",
    "        config: Dense\n",
    "        rank: K\n",
    "        type: elem\n",
    "        style: lazy\n",
    "    compute:\n",
    "      - component: MulALU\n",
    "        op: mul\n",
    "      - component: AddALU\n",
    "        op: add\n",
);

/// Parses and validates the Tensaurus specification.
///
/// # Panics
///
/// Panics if the embedded specification fails to validate (covered by
/// tests).
pub fn spec() -> TeaalSpec {
    TeaalSpec::parse(YAML).expect("embedded Tensaurus spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_core::ir;
    use teaal_fibertree::TensorBuilder;
    use teaal_sim::Simulator;

    #[test]
    fn spec_parses_and_lowers() {
        let s = spec();
        let plans = ir::lower(&s).unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].loop_ranks.len(), 4);
        assert!(plans[0]
            .loop_ranks
            .iter()
            .any(|l| l.name == "R" && l.is_space));
    }

    #[test]
    fn mttkrp_computes_correctly() {
        let t = TensorBuilder::new("T", &["I", "J", "K"], &[3, 3, 3])
            .entry(&[0, 1, 2], 2.0)
            .entry(&[2, 0, 0], 3.0)
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["J", "R"], &[3, 2])
            .entry(&[0, 0], 1.0)
            .entry(&[0, 1], 2.0)
            .entry(&[1, 0], 3.0)
            .entry(&[1, 1], 4.0)
            .build()
            .unwrap();
        let a = TensorBuilder::new("A", &["K", "R"], &[3, 2])
            .entry(&[0, 0], 5.0)
            .entry(&[0, 1], 6.0)
            .entry(&[2, 0], 7.0)
            .entry(&[2, 1], 8.0)
            .build()
            .unwrap();
        let sim = Simulator::new(spec()).unwrap();
        let report = sim.run_data(&[&t.into(), &b.into(), &a.into()]).unwrap();
        let c = report.final_output().unwrap();
        // C[0, r] = 2 · B[1, r] · A[2, r]; C[2, r] = 3 · B[0, r] · A[0, r].
        assert_eq!(c.get(&[0, 0]), Some(2.0 * 3.0 * 7.0));
        assert_eq!(c.get(&[0, 1]), Some(2.0 * 4.0 * 8.0));
        assert_eq!(c.get(&[2, 0]), Some(3.0 * 1.0 * 5.0));
        assert_eq!(c.get(&[2, 1]), Some(3.0 * 2.0 * 6.0));
    }
}
