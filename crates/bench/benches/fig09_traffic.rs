//! Criterion wrapper for the Fig. 9 traffic models: times one simulator
//! run per accelerator on a small wiki-Vote substitute (the figure
//! binaries regenerate the actual tables).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teaal_accel::SpmspmAccel;
use teaal_bench::{compressed, spmspm_pair_by_tag};

fn bench_traffic_models(c: &mut Criterion) {
    let (a, b) = spmspm_pair_by_tag("wi", 64);
    let (a, b) = (compressed(&a), compressed(&b));
    let mut g = c.benchmark_group("fig09_traffic_model");
    g.sample_size(10);
    for accel in [
        SpmspmAccel::ExTensor,
        SpmspmAccel::Gamma,
        SpmspmAccel::OuterSpace,
    ] {
        let sim = accel.simulator().expect("lowers");
        g.bench_with_input(BenchmarkId::new("accel", accel.label()), &sim, |bch, s| {
            bch.iter(|| s.run_data(&[&a, &b]).expect("runs"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_traffic_models);
criterion_main!(benches);
