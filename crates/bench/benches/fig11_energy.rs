//! Criterion wrapper for the Fig. 11 energy model: ExTensor with energy
//! accounting on a small substitute.

use criterion::{criterion_group, criterion_main, Criterion};
use teaal_accel::SpmspmAccel;
use teaal_bench::{compressed, spmspm_pair_by_tag};
use teaal_sim::{ActionCounts, EnergyTable};

fn bench_energy_model(c: &mut Criterion) {
    let (a, b) = spmspm_pair_by_tag("wi", 64);
    let (a, b) = (compressed(&a), compressed(&b));
    let sim = SpmspmAccel::ExTensor.simulator().expect("lowers");
    let mut g = c.benchmark_group("fig11_energy_model");
    g.sample_size(10);
    g.bench_function("extensor_with_energy", |bch| {
        bch.iter(|| {
            let r = sim.run_data(&[&a, &b]).expect("runs");
            std::hint::black_box(r.energy_joules)
        })
    });
    g.bench_function("energy_table_only", |bch| {
        let counts = ActionCounts {
            dram_bits: 1 << 30,
            buffer_bits: 1 << 32,
            muls: 1 << 22,
            adds: 1 << 21,
            intersections: 1 << 23,
            merge_elem_passes: 1 << 20,
        };
        let table = EnergyTable::default();
        bch.iter(|| std::hint::black_box(counts.energy_joules(&table)))
    });
    g.finish();
}

criterion_group!(benches, bench_energy_model);
criterion_main!(benches);
