//! Criterion wrapper for the Fig. 10 performance models: SIGMA on a
//! small uniform workload plus the three baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use teaal_accel::SpmspmAccel;
use teaal_bench::compressed;
use teaal_workloads::baselines::{CpuBaseline, SparseloopLike, TpuBaseline};
use teaal_workloads::genmat;

fn bench_speedup_models(c: &mut Criterion) {
    let a = genmat::uniform_density("A", &["K", "M"], 256, 64, 0.2, 1);
    let b = genmat::uniform_density("B", &["K", "N"], 256, 128, 0.9, 2);
    let mut g = c.benchmark_group("fig10_speedup_model");
    g.sample_size(10);
    let sim = SpmspmAccel::Sigma.simulator().expect("lowers");
    let (da, db) = (compressed(&a), compressed(&b));
    g.bench_function("sigma_model", |bch| {
        bch.iter(|| sim.run_data(&[&da, &db]).expect("runs"))
    });
    g.bench_function("baselines_analytical", |bch| {
        bch.iter(|| {
            let cpu = CpuBaseline::default().spgemm_seconds(1e6, 1e6);
            let tpu = TpuBaseline::default().dense_gemm_seconds(64, 128, 256);
            let sl = SparseloopLike::default().spmspm_seconds_from(&a, &b);
            std::hint::black_box((cpu, tpu, sl))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_speedup_models);
criterion_main!(benches);
