//! `with_threads(n)` caps the whole evaluation: the Einsums of a cascade
//! wave split the `n` threads between their shard workers instead of
//! each taking all `n`. This file holds a single test so the
//! process-wide worker peak it reads is its own.

use teaal_core::TeaalSpec;
use teaal_fibertree::TensorData;
use teaal_sim::{par, Simulator};
use teaal_workloads::genmat;

/// Two Einsums with no dependency between them: one wave, two wide.
/// Each shards its top rank `M`, an output rank, so shards write
/// disjoint keys.
const TWO_WIDE_WAVE: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Y: [M, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Y[m, n] = A[k, m] * B[k, n]\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
    "mapping:\n",
    "  loop-order:\n",
    "    Y: [M, N, K]\n",
    "    Z: [M, N, K]\n",
);

#[test]
fn a_wave_never_runs_more_workers_than_threads() {
    let a: TensorData = genmat::uniform_compressed("A", &["K", "M"], 200, 160, 4000, 5).into();
    let b: TensorData = genmat::uniform_compressed("B", &["K", "N"], 200, 120, 3500, 6).into();
    let spec = TeaalSpec::parse(TWO_WIDE_WAVE).unwrap();
    let run = |threads: usize| {
        Simulator::new(spec.clone())
            .unwrap()
            .with_threads(threads)
            .run_data(&[&a, &b])
            .unwrap()
    };
    let seq = run(1);
    assert_eq!(par::peak_spawned_workers(), 0, "one thread spawns nothing");
    for threads in [2, 3, 4] {
        let report = run(threads);
        // The calling thread is one of the workers.
        let peak = par::peak_spawned_workers();
        assert!(
            peak < threads,
            "{peak} spawned workers ran at once under a cap of {threads} threads"
        );
        assert_eq!(seq.einsums, report.einsums, "threads {threads}");
        assert_eq!(seq.outputs, report.outputs, "threads {threads}");
        assert_eq!(seq.seconds.to_bits(), report.seconds.to_bits());
        assert_eq!(seq.energy_joules.to_bits(), report.energy_joules.to_bits());
    }
}
