//! Cross-crate integration: the Table 2 kernels beyond SpMSpM —
//! MTTKRP, factorized MTTKRP, and the Cooley-Tukey FFT step — all parse,
//! lower, and compute correct results through the full pipeline.

use teaal::prelude::*;

#[test]
fn mttkrp_direct_and_factorized_agree() {
    // Tensaurus MTTKRP: C[i, r] = T[i, j, k] · B[j, r] · A[k, r].
    let direct = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    T: [I, J, K]\n",
        "    B: [J, R]\n",
        "    A: [K, R]\n",
        "    C: [I, R]\n",
        "  expressions:\n",
        "    - C[i, r] = T[i, j, k] * B[j, r] * A[k, r]\n",
    ))
    .unwrap();
    // Factorized MTTKRP: stage through S[i, j, r].
    let factorized = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    T: [I, J, K]\n",
        "    B: [J, R]\n",
        "    A: [K, R]\n",
        "    S: [I, J, R]\n",
        "    C: [I, R]\n",
        "  expressions:\n",
        "    - S[i, j, r] = T[i, j, k] * A[k, r]\n",
        "    - C[i, r] = S[i, j, r] * B[j, r]\n",
    ))
    .unwrap();

    let t = TensorBuilder::new("T", &["I", "J", "K"], &[4, 4, 4])
        .entry(&[0, 1, 2], 2.0)
        .entry(&[0, 3, 1], 3.0)
        .entry(&[2, 1, 1], 5.0)
        .entry(&[3, 0, 0], 7.0)
        .build()
        .unwrap();
    let b = TensorBuilder::new("B", &["J", "R"], &[4, 3])
        .entry(&[0, 0], 1.0)
        .entry(&[1, 0], 2.0)
        .entry(&[1, 2], 3.0)
        .entry(&[3, 1], 4.0)
        .build()
        .unwrap();
    let a = TensorBuilder::new("A", &["K", "R"], &[4, 3])
        .entry(&[0, 0], 1.0)
        .entry(&[1, 1], 2.0)
        .entry(&[1, 2], 3.0)
        .entry(&[2, 0], 4.0)
        .entry(&[2, 2], 5.0)
        .build()
        .unwrap();

    let run = |spec: TeaalSpec| {
        let sim = Simulator::new(spec).unwrap();
        let report = sim
            .run_data(&[&t.clone().into(), &b.clone().into(), &a.clone().into()])
            .unwrap();
        report.final_output().unwrap().clone()
    };
    let c_direct = run(direct);
    let c_factorized = run(factorized);

    // Reference: C[i, r] = Σ_{j,k} T[i,j,k]·B[j,r]·A[k,r].
    let mut expect = Tensor::empty("C", &["I", "R"], &[4, 3]);
    for (pt, vt) in t.entries() {
        for (pb, vb) in b.entries() {
            if pb[0] != pt[1] {
                continue;
            }
            for (pa, va) in a.entries() {
                if pa[0] != pt[2] || pa[1] != pb[1] {
                    continue;
                }
                let cur = expect.get(&[pt[0], pb[1]]).unwrap_or(0.0);
                expect.set(&[pt[0], pb[1]], cur + vt * vb * va);
            }
        }
    }
    expect.prune(0.0);
    assert_eq!(c_direct.max_abs_diff(&expect.clone().into()), 0.0);
    assert_eq!(c_factorized.max_abs_diff(&expect.into()), 0.0);
}

#[test]
fn cooley_tukey_fft_step_cascade_runs() {
    // Table 2's five-Einsum FFT step: E and O are the even/odd
    // sub-transforms, T the twiddled odd part, Y0/Y1 the butterfly.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    E: [C]\n",
        "    O: [C]\n",
        "    W: [C]\n",
        "    T: [C]\n",
        "    Y0: [C]\n",
        "    Y1: [C]\n",
        "  expressions:\n",
        "    - T[c] = W[c] * O[c]\n",
        "    - Y0[c] = E[c] + T[c]\n",
        "    - Y1[c] = E[c] - T[c]\n",
    ))
    .unwrap();
    let e = TensorBuilder::new("E", &["C"], &[4])
        .entries((0..4).map(|c| (vec![c], (c + 1) as f64)))
        .build()
        .unwrap();
    let o = TensorBuilder::new("O", &["C"], &[4])
        .entries((0..4).map(|c| (vec![c], (c + 5) as f64)))
        .build()
        .unwrap();
    let w = TensorBuilder::new("W", &["C"], &[4])
        .entries((0..4).map(|c| (vec![c], 0.5)))
        .build()
        .unwrap();
    let sim = Simulator::new(spec).unwrap();
    let report = sim.run_data(&[&e.into(), &o.into(), &w.into()]).unwrap();
    let y0 = report.outputs.get("Y0").unwrap();
    let y1 = report.outputs.get("Y1").unwrap();
    // Y0[c] = E + 0.5·O; Y1[c] = E − 0.5·O.
    assert_eq!(y0.get(&[0]), Some(1.0 + 2.5));
    assert_eq!(y1.get(&[0]), Some(1.0 - 2.5));
    assert_eq!(y0.get(&[3]), Some(4.0 + 4.0));
    // 4 - 0.5·8 = 0 → pruned as an implicit zero.
    assert_eq!(y1.get(&[3]), None);
}

#[test]
fn eyeriss_style_2d_convolution() {
    // O[p, q] = I[p + r, q + s] · F[r, s] — 2-D direct convolution with
    // two affine indices (paper Table 2, Eyeriss row simplified to one
    // channel).
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    I: [H, W]\n",
        "    F: [R, S]\n",
        "    O: [P, Q]\n",
        "  expressions:\n",
        "    - O[p, q] = I[p + r, q + s] * F[r, s]\n",
    ))
    .unwrap();
    let i = Tensor::from_dense_2d(
        "I",
        &["H", "W"],
        &[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ],
    );
    let f = Tensor::from_dense_2d("F", &["R", "S"], &[vec![1.0, 0.0], vec![0.0, 1.0]]);
    let sim = Simulator::new(spec)
        .unwrap()
        .with_rank_extent("P", 2)
        .with_rank_extent("Q", 2)
        .with_rank_extent("R", 2)
        .with_rank_extent("S", 2);
    let report = sim.run_data(&[&i.into(), &f.into()]).unwrap();
    let o = report.final_output().unwrap();
    // O[p, q] = I[p, q] + I[p+1, q+1].
    assert_eq!(o.get(&[0, 0]), Some(1.0 + 5.0));
    assert_eq!(o.get(&[0, 1]), Some(2.0 + 6.0));
    assert_eq!(o.get(&[1, 0]), Some(4.0 + 8.0));
    assert_eq!(o.get(&[1, 1]), Some(5.0 + 9.0));
}

#[test]
fn full_spec_parse_lower_run_roundtrip() {
    // Exercise the facade path end to end with mapping + architecture.
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
        "mapping:\n",
        "  loop-order:\n",
        "    Z: [M, K, N]\n",
        "architecture:\n",
        "  clock: 2_000_000_000\n",
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "          bandwidth: 100_000_000_000\n",
        "      subtree:\n",
        "        - name: PE\n",
        "          count: 4\n",
        "          local:\n",
        "            - name: ALU\n",
        "              class: compute\n",
        "              op: mul\n",
    ))
    .unwrap();
    let sim = Simulator::new(spec).unwrap();
    let a = teaal::workloads::genmat::uniform("A", &["K", "M"], 30, 30, 120, 5);
    let b = teaal::workloads::genmat::uniform("B", &["K", "N"], 30, 30, 120, 6);
    let report = sim.run_data(&[&a.into(), &b.into()]).unwrap();
    assert!(report.seconds > 0.0);
    assert_eq!(report.cycles, report.seconds * 2e9);
}
