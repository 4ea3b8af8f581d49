//! Ablation benches for the design choices DESIGN.md calls out:
//! intersection policy, merger radix, and partitioning strategy, each
//! evaluated through the full model rather than in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teaal_bench::compressed;
use teaal_core::TeaalSpec;
use teaal_sim::Simulator;
use teaal_workloads::genmat;

fn spec_with_intersect(policy: &str) -> TeaalSpec {
    TeaalSpec::parse(&format!(
        concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - Z[m, n] = A[k, m] * B[k, n]\n",
            "architecture:\n",
            "  configs:\n",
            "    Default:\n",
            "      name: Sys\n",
            "      local:\n",
            "        - name: Mem\n",
            "          class: DRAM\n",
            "        - name: IX\n",
            "          class: intersect\n",
            "          type: {policy}\n",
            "      subtree:\n",
            "        - name: PE\n",
            "          local:\n",
            "            - name: ALU\n",
            "              class: compute\n",
            "              op: mul\n",
        ),
        policy = policy
    ))
    .expect("ablation spec parses")
}

/// Intersection-policy ablation: same Einsum, same data, different unit.
fn ablation_intersect(c: &mut Criterion) {
    let a = genmat::power_law("A", &["K", "M"], 512, 512, 4096, 1.8, 128, 1);
    let b = genmat::power_law("B", &["K", "N"], 512, 512, 4096, 1.8, 128, 2);
    let (a, b) = (compressed(&a), compressed(&b));
    let mut g = c.benchmark_group("ablation_intersect");
    g.sample_size(10);
    for policy in ["two-finger", "leader-follower", "skip-ahead"] {
        let sim = Simulator::new(spec_with_intersect(policy)).expect("lowers");
        g.bench_with_input(BenchmarkId::new("policy", policy), &sim, |bch, s| {
            bch.iter(|| s.run_data(&[&a, &b]).expect("runs"))
        });
    }
    g.finish();
}

/// Partitioning-strategy ablation (the §3.2.1 comparison): dense-style
/// shape tiling of K versus flatten-then-occupancy balancing of (K, M),
/// on skewed data where occupancy balancing is supposed to win.
fn ablation_partitioning(c: &mut Criterion) {
    let a = genmat::power_law("A", &["K", "M"], 512, 512, 4096, 1.8, 128, 3);
    let b = genmat::power_law("B", &["K", "N"], 512, 512, 4096, 1.8, 128, 4);
    let (a, b) = (compressed(&a), compressed(&b));
    let variants = [
        (
            "shape",
            concat!(
                "  partitioning:\n",
                "    T:\n",
                "      K: [uniform_shape(64)]\n",
                "  loop-order:\n",
                "    T: [K1, K0, M, N]\n",
                "    Z: [M, N, K]\n",
                "  spacetime:\n",
                "    T:\n",
                "      space: [K0]\n",
                "      time: [K1, N]\n",
            ),
        ),
        (
            "flatten_occupancy",
            concat!(
                "  partitioning:\n",
                "    T:\n",
                "      (K, M): [flatten()]\n",
                "      KM: [uniform_occupancy(A.64)]\n",
                "  loop-order:\n",
                "    T: [KM1, KM0, N]\n",
                "    Z: [M, N, K]\n",
                "  spacetime:\n",
                "    T:\n",
                "      space: [KM0]\n",
                "      time: [KM1, N]\n",
            ),
        ),
    ];
    let mut g = c.benchmark_group("ablation_partitioning");
    g.sample_size(10);
    for (name, mapping) in variants {
        let spec = TeaalSpec::parse(&format!(
            concat!(
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
                "{mapping}",
            ),
            mapping = mapping
        ))
        .expect("ablation spec parses");
        let sim = Simulator::new(spec).expect("lowers");
        g.bench_with_input(BenchmarkId::new("strategy", name), &sim, |bch, s| {
            bch.iter(|| s.run_data(&[&a, &b]).expect("runs"))
        });
    }
    g.finish();
}

/// Merger-radix ablation: merge pass counts across radices (the Table 3
/// comparator_radix attribute).
fn ablation_merger(c: &mut Criterion) {
    use teaal_sim::report::passes_for;
    let mut g = c.benchmark_group("ablation_merger_radix");
    for radix in [2u64, 4, 16, 64] {
        g.bench_with_input(BenchmarkId::new("radix", radix), &radix, |bch, r| {
            bch.iter(|| {
                let mut total = 0u64;
                for ways in 1..=256u64 {
                    total += 1000 * passes_for(ways, *r);
                }
                std::hint::black_box(total)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_intersect,
    ablation_partitioning,
    ablation_merger
);
criterion_main!(benches);
