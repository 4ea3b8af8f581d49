//! Property-based end-to-end validation: random sparse matrices pushed
//! through the full spec→lower→execute pipeline must match a dense
//! reference for every mapping style.

use std::collections::BTreeMap;

use proptest::prelude::*;
use teaal_core::TeaalSpec;
use teaal_fibertree::Tensor;
use teaal_sim::Simulator;

fn arb_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    let mat = |name: &'static str, cols: &'static str| {
        proptest::collection::btree_map((0u64..12, 0u64..12), 1.0f64..9.0, 0..30).prop_map(
            move |m| {
                let entries: Vec<(Vec<u64>, f64)> =
                    m.into_iter().map(|((r, c), v)| (vec![r, c], v)).collect();
                Tensor::from_entries(name, &["K", cols], &[12, 12], entries).expect("in shape")
            },
        )
    };
    (mat("A", "M"), mat("B", "N"))
}

fn dense_reference(a: &Tensor, b: &Tensor) -> BTreeMap<(u64, u64), f64> {
    let mut out = BTreeMap::new();
    for (pa, va) in a.entries() {
        for (pb, vb) in b.entries() {
            if pa[0] == pb[0] {
                *out.entry((pa[1], pb[1])).or_insert(0.0) += va * vb;
            }
        }
    }
    out.retain(|_, v| *v != 0.0);
    out
}

fn check(spec_src: &str, a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let spec = TeaalSpec::parse(spec_src).expect("spec parses");
    let sim = Simulator::new(spec).expect("spec lowers");
    let report = sim
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .expect("runs");
    let z = report.final_output().expect("Z produced");
    let want = dense_reference(a, b);
    let mut got = BTreeMap::new();
    for (p, v) in z.entries() {
        got.insert((p[0], p[1]), v);
    }
    prop_assert_eq!(got.len(), want.len(), "nnz mismatch");
    for (k, v) in &want {
        let g = got.get(k).copied().unwrap_or(f64::NAN);
        prop_assert!((g - v).abs() < 1e-9, "at {:?}: {} vs {}", k, g, v);
    }
    Ok(())
}

const OUTERSPACE_STYLE: &str = concat!(
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
    "    T: [M, K, N]\n",
    "  partitioning:\n",
    "    T:\n",
    "      (K, M): [flatten()]\n",
    "      KM: [uniform_occupancy(A.4), uniform_occupancy(A.2)]\n",
    "    Z:\n",
    "      M: [uniform_occupancy(T.3)]\n",
    "  loop-order:\n",
    "    T: [KM2, KM1, KM0, N]\n",
    "    Z: [M1, M0, N, K]\n",
);

const TILED_STYLE: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
    "mapping:\n",
    "  partitioning:\n",
    "    Z:\n",
    "      K: [uniform_shape(5), uniform_shape(2)]\n",
    "      M: [uniform_shape(4)]\n",
    "      N: [uniform_shape(4)]\n",
    "  loop-order:\n",
    "    Z: [N1, K2, M1, K1, M0, N0, K0]\n",
);

const GUSTAVSON_STYLE: &str = concat!(
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
    "    T: [M, K, N]\n",
    "  partitioning:\n",
    "    T:\n",
    "      M: [uniform_occupancy(A.2)]\n",
    "    Z:\n",
    "      M: [uniform_occupancy(A.2)]\n",
    "  loop-order:\n",
    "    T: [M1, M0, K, N]\n",
    "    Z: [M1, M0, N, K]\n",
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outerspace_style_matches_reference((a, b) in arb_pair()) {
        check(OUTERSPACE_STYLE, &a, &b)?;
    }

    #[test]
    fn tiled_style_matches_reference((a, b) in arb_pair()) {
        check(TILED_STYLE, &a, &b)?;
    }

    #[test]
    fn gustavson_style_matches_reference((a, b) in arb_pair()) {
        check(GUSTAVSON_STYLE, &a, &b)?;
    }

    #[test]
    fn mapping_never_changes_the_answer((a, b) in arb_pair()) {
        // The algorithm/mapping split (§2.3): every mapping of the same
        // Einsum produces the same tensor.
        let mut answers = Vec::new();
        for spec in [OUTERSPACE_STYLE, TILED_STYLE, GUSTAVSON_STYLE] {
            let sim = Simulator::new(TeaalSpec::parse(spec).expect("parses"))
                .expect("lowers");
            let report = sim.run_data(&[&a.clone().into(), &b.clone().into()]).expect("runs");
            answers.push(report.final_output().expect("Z").clone());
        }
        prop_assert_eq!(answers[0].max_abs_diff(&answers[1]), 0.0);
        prop_assert_eq!(answers[1].max_abs_diff(&answers[2]), 0.0);
    }
}
