//! Einsum-block fusion inference (paper §4.3).
//!
//! Execution time is computed per *block* of fused Einsums. TeAAL infers
//! that consecutive Einsums fuse when all three criteria hold:
//!
//! 1. they use the same accelerator configuration,
//! 2. the temporal ranks before the first spatial rank are the same in all
//!    loop orders, and
//! 3. disjoint subsets of the non-storage components are each exclusively
//!    used by only one Einsum.
//!
//! A greedy pass fuses successive Einsums into a block until one of the
//! criteria fails, then starts a new block (the paper's heuristic).

use std::collections::BTreeSet;

use crate::spec::{BindingSpec, TeaalSpec};

use super::plan::EinsumPlan;

/// A fused block: indices into the plan list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EinsumBlock {
    /// Plan indices fused into this block, in cascade order.
    pub members: Vec<usize>,
}

/// Splits the cascade's plans into fused blocks.
pub fn infer_blocks(spec: &TeaalSpec, plans: &[EinsumPlan]) -> Vec<EinsumBlock> {
    let mut blocks: Vec<EinsumBlock> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let fuse = match blocks.last() {
            Some(block) => block
                .members
                .iter()
                .all(|&m| can_fuse(&spec.binding, &plans[m], plan)),
            None => false,
        };
        if fuse {
            blocks.last_mut().expect("checked last").members.push(i);
        } else {
            blocks.push(EinsumBlock { members: vec![i] });
        }
    }
    blocks
}

/// Checks the three fusion criteria for a pair of Einsums.
pub fn can_fuse(binding: &BindingSpec, a: &EinsumPlan, b: &EinsumPlan) -> bool {
    let ba = binding.for_einsum(a.equation.name());
    let bb = binding.for_einsum(b.equation.name());

    // Criterion 1: same accelerator configuration.
    if ba.arch_config != bb.arch_config {
        return false;
    }

    // Criterion 2: equal temporal prefixes before the first spatial rank.
    if a.temporal_prefix() != b.temporal_prefix() {
        return false;
    }

    // Criterion 3: disjoint non-storage components.
    let non_storage = |eb: &crate::spec::EinsumBinding| -> BTreeSet<String> {
        eb.compute
            .iter()
            .map(|c| c.component.clone())
            .chain(eb.mergers.iter().map(|m| m.component.clone()))
            .collect()
    };
    non_storage(&ba).is_disjoint(&non_storage(&bb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use crate::spec::TeaalSpec;

    fn gamma_like() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [K, M, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - T[k, m, n] = take(A[k, m], B[k, n], 1)\n",
            "    - Z[m, n] = T[k, m, n] * A[k, m]\n",
            "mapping:\n",
            "  rank-order:\n",
            "    A: [M, K]\n",
            "    B: [K, N]\n",
            "    T: [M, K, N]\n",
            "    Z: [M, N]\n",
            "  partitioning:\n",
            "    T:\n",
            "      M: [uniform_occupancy(A.32)]\n",
            "      K: [uniform_occupancy(A.64)]\n",
            "    Z:\n",
            "      M: [uniform_occupancy(A.32)]\n",
            "      K: [uniform_occupancy(A.64)]\n",
            "  loop-order:\n",
            "    T: [M1, M0, K1, K0, N]\n",
            "    Z: [M1, M0, K1, N, K0]\n",
            "  spacetime:\n",
            "    T:\n",
            "      space: [M0, K1]\n",
            "      time: [M1, K0, N]\n",
            "    Z:\n",
            "      space: [M0, K1]\n",
            "      time: [M1, N, K0]\n",
        ))
        .unwrap()
    }

    fn outerspace_like() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [K, M, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - T[k, m, n] = A[k, m] * B[k, n]\n",
            "    - Z[m, n] = T[k, m, n]\n",
            "mapping:\n",
            "  rank-order:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    T: [M, K, N]\n",
            "    Z: [M, N]\n",
            "  partitioning:\n",
            "    T:\n",
            "      (K, M): [flatten()]\n",
            "      KM: [uniform_occupancy(A.256), uniform_occupancy(A.16)]\n",
            "    Z:\n",
            "      M: [uniform_occupancy(T.128), uniform_occupancy(T.8)]\n",
            "  loop-order:\n",
            "    T: [KM2, KM1, KM0, N]\n",
            "    Z: [M2, M1, M0, N, K]\n",
            "  spacetime:\n",
            "    T:\n",
            "      space: [KM1, KM0]\n",
            "      time: [KM2, N]\n",
            "    Z:\n",
            "      space: [M1, M0]\n",
            "      time: [M2, N, K]\n",
        ))
        .unwrap()
    }

    #[test]
    fn gamma_einsums_fuse() {
        // Paper §5: "Unlike OuterSPACE, the two Einsums in the cascade are
        // fused together, per the criteria described in Section 4.3."
        let spec = gamma_like();
        let plans = lower(&spec).unwrap();
        assert_eq!(plans[0].temporal_prefix(), vec!["M1".to_string()]);
        assert_eq!(plans[1].temporal_prefix(), vec!["M1".to_string()]);
        let blocks = infer_blocks(&spec, &plans);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].members, vec![0, 1]);
    }

    #[test]
    fn outerspace_einsums_do_not_fuse() {
        let spec = outerspace_like();
        let plans = lower(&spec).unwrap();
        assert_eq!(plans[0].temporal_prefix(), vec!["KM2".to_string()]);
        assert_eq!(plans[1].temporal_prefix(), vec!["M2".to_string()]);
        let blocks = infer_blocks(&spec, &plans);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn different_arch_configs_block_fusion() {
        let mut spec = gamma_like();
        spec.binding.einsums.insert(
            "T".into(),
            crate::spec::EinsumBinding {
                arch_config: Some("Phase1".into()),
                ..Default::default()
            },
        );
        spec.binding.einsums.insert(
            "Z".into(),
            crate::spec::EinsumBinding {
                arch_config: Some("Phase2".into()),
                ..Default::default()
            },
        );
        let plans = lower(&spec).unwrap();
        assert_eq!(infer_blocks(&spec, &plans).len(), 2);
    }

    #[test]
    fn shared_compute_unit_blocks_fusion() {
        let mut spec = gamma_like();
        for e in ["T", "Z"] {
            spec.binding.einsums.insert(
                e.into(),
                crate::spec::EinsumBinding {
                    arch_config: None,
                    compute: vec![crate::spec::binding::ComputeBinding {
                        component: "ALU".into(),
                        op: "mul".into(),
                    }],
                    ..Default::default()
                },
            );
        }
        let plans = lower(&spec).unwrap();
        assert_eq!(infer_blocks(&spec, &plans).len(), 2);
    }
}
