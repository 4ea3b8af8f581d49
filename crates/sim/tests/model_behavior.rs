//! Model-level behavioral tests: traffic bounds, fusion effects, energy
//! accounting, and binding semantics — the §4.3 machinery end to end.

use teaal_core::TeaalSpec;
use teaal_fibertree::Tensor;
use teaal_sim::{EnergyTable, Simulator};
use teaal_workloads::genmat;

fn inputs(nnz: usize) -> (Tensor, Tensor) {
    (
        genmat::uniform("A", &["K", "M"], 64, 64, nnz, 11),
        genmat::uniform("B", &["K", "N"], 64, 64, nnz, 12),
    )
}

fn plain_spec() -> TeaalSpec {
    TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
    ))
    .unwrap()
}

#[test]
fn full_traversal_traffic_matches_footprint() {
    // A single-operand copy streams every element of A exactly once: its
    // DRAM traffic must equal its compressed footprint (leaf elements at
    // 96 bits plus 64-bit upper-rank entries).
    let spec = TeaalSpec::parse(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    Z: [K, M]\n",
        "  expressions:\n",
        "    - Z[k, m] = A[k, m]\n",
    ))
    .unwrap();
    let (a, _) = inputs(400);
    let sim = Simulator::new(spec).unwrap();
    let report = sim.run_data(&[&a.clone().into()]).unwrap();
    let k_elems = a.rank_stats()[0].1 as u64;
    let expect = (a.nnz() as u64 * 96 + k_elems * 64) / 8;
    assert_eq!(report.dram_bytes_of("A"), expect);
}

#[test]
fn intersection_skips_reduce_traffic_below_footprint() {
    // With co-iterated operands, unmatched elements are never fetched:
    // lazy traffic stays strictly below the full footprints but above
    // zero (the whole point of sparse acceleration).
    let (a, b) = inputs(400);
    let sim = Simulator::new(plain_spec()).unwrap();
    let report = sim
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap();
    for (t, tensor) in [("A", &a), ("B", &b)] {
        let traffic = report.dram_bytes_of(t);
        let footprint_ish = (tensor.nnz() * (96 + 64)) as u64 / 8;
        assert!(traffic > 0, "{t} must be touched");
        assert!(traffic <= footprint_ish, "{t}: {traffic} > {footprint_ish}");
    }
}

#[test]
fn energy_table_override_scales_energy() {
    let (a, b) = inputs(300);
    let spec = plain_spec();
    let base = Simulator::new(spec.clone())
        .unwrap()
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap();
    let expensive = Simulator::new(spec)
        .unwrap()
        .with_energy(EnergyTable {
            dram_pj_per_bit: 70.0, // 10x default
            ..EnergyTable::default()
        })
        .run_data(&[&a.into(), &b.into()])
        .unwrap();
    assert!(expensive.energy_joules > base.energy_joules * 2.0);
}

#[test]
fn denser_inputs_cost_more_everything() {
    let sim = Simulator::new(plain_spec()).unwrap();
    let (a1, b1) = inputs(200);
    let (a2, b2) = inputs(1600);
    let small = sim.run_data(&[&a1.into(), &b1.into()]).unwrap();
    let large = sim.run_data(&[&a2.into(), &b2.into()]).unwrap();
    assert!(large.dram_bytes() > small.dram_bytes());
    assert!(large.total_ops() > small.total_ops());
    assert!(large.energy_joules > small.energy_joules);
    assert!(large.seconds >= small.seconds);
}

#[test]
fn spatial_mapping_reduces_modelled_time() {
    let serial = TeaalSpec::parse(concat!(
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
        "  spacetime:\n",
        "    Z:\n",
        "      space: []\n",
        "      time: [M, K, N]\n",
        "architecture:\n",
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "          bandwidth: 1_000_000_000_000\n",
        "      subtree:\n",
        "        - name: PE\n",
        "          count: 16\n",
        "          local:\n",
        "            - name: ALU\n",
        "              class: compute\n",
        "              op: mul\n",
    ))
    .unwrap();
    let parallel_yaml = serial_to_parallel();
    let parallel = TeaalSpec::parse(&parallel_yaml).unwrap();
    let (a, b) = inputs(800);
    let ts = Simulator::new(serial)
        .unwrap()
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap();
    let tp = Simulator::new(parallel)
        .unwrap()
        .run_data(&[&a.into(), &b.into()])
        .unwrap();
    assert!(
        tp.seconds < ts.seconds,
        "parallel {} should beat serial {}",
        tp.seconds,
        ts.seconds
    );
}

fn serial_to_parallel() -> String {
    concat!(
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
        "  spacetime:\n",
        "    Z:\n",
        "      space: [M]\n",
        "      time: [K, N]\n",
        "architecture:\n",
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "          bandwidth: 1_000_000_000_000\n",
        "      subtree:\n",
        "        - name: PE\n",
        "          count: 16\n",
        "          local:\n",
        "            - name: ALU\n",
        "              class: compute\n",
        "              op: mul\n",
    )
    .to_string()
}

#[test]
fn buffet_evict_on_forces_refetch() {
    // A is re-streamed for every n when bound to a buffet evicting on N.
    let base = concat!(
        "einsum:\n",
        "  declaration:\n",
        "    A: [K, M]\n",
        "    B: [K, N]\n",
        "    Z: [M, N]\n",
        "  expressions:\n",
        "    - Z[m, n] = A[k, m] * B[k, n]\n",
        "mapping:\n",
        "  loop-order:\n",
        "    Z: [N, M, K]\n",
        "architecture:\n",
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "        - name: Buf\n",
        "          class: buffet\n",
        "          width: 64\n",
        "          depth: 65536\n",
    );
    let streaming = format!(
        "{base}{}",
        concat!(
            "binding:\n",
            "  Z:\n",
            "    config: Default\n",
            "    storage:\n",
            "      - component: Buf\n",
            "        tensor: A\n",
            "        rank: K\n",
            "        style: lazy\n",
            "        evict-on: N\n",
        )
    );
    let buffered = base.to_string();
    let (a, b) = inputs(500);
    let r_stream = Simulator::new(TeaalSpec::parse(&streaming).unwrap())
        .unwrap()
        .run_data(&[&a.clone().into(), &b.clone().into()])
        .unwrap();
    let r_buffer = Simulator::new(TeaalSpec::parse(&buffered).unwrap())
        .unwrap()
        .run_data(&[&a.into(), &b.into()])
        .unwrap();
    let stream_a = r_stream.dram_bytes_of("A");
    let buffer_a = r_buffer.dram_bytes_of("A");
    assert!(
        stream_a > buffer_a * 4,
        "evict-on N must re-stream A: {stream_a} vs {buffer_a}"
    );
}

#[test]
fn cache_binding_filters_repeat_accesses() {
    // B is looked up per A-element; a big cache turns repeats into hits.
    let cached = concat!(
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
        "  configs:\n",
        "    Default:\n",
        "      name: Sys\n",
        "      local:\n",
        "        - name: Mem\n",
        "          class: DRAM\n",
        "        - name: C\n",
        "          class: cache\n",
        "          width: 512\n",
        "          depth: 16384\n",
        "binding:\n",
        "  Z:\n",
        "    config: Default\n",
        "    storage:\n",
        "      - component: C\n",
        "        tensor: B\n",
        "        rank: K\n",
        "        style: lazy\n",
    );
    let (a, b) = inputs(600);
    let report = Simulator::new(TeaalSpec::parse(cached).unwrap())
        .unwrap()
        .run_data(&[&a.into(), &b.into()])
        .unwrap();
    let t = report.einsums[0]
        .traffic
        .iter()
        .find(|t| t.tensor == "B")
        .expect("B tracked");
    // On-chip reads far exceed DRAM fills: the cache captured reuse.
    assert!(
        t.buffer_read_bytes > t.fill_bytes * 2,
        "reads {} vs fills {}",
        t.buffer_read_bytes,
        t.fill_bytes
    );
}

#[test]
fn report_display_is_complete() {
    let (a, b) = inputs(100);
    let sim = Simulator::new(plain_spec()).unwrap();
    let report = sim.run_data(&[&a.into(), &b.into()]).unwrap();
    let text = report.to_string();
    assert!(text.contains("einsum Z"));
    assert!(text.contains("DRAM"));
    assert!(text.contains("bottleneck"));
}

#[test]
fn plans_and_blocks_are_inspectable() {
    let sim = Simulator::new(plain_spec()).unwrap();
    assert_eq!(sim.plans().len(), 1);
    assert_eq!(sim.blocks().len(), 1);
    assert_eq!(sim.blocks()[0].members, vec![0]);
}

#[test]
fn missing_input_is_a_clean_error() {
    let sim = Simulator::new(plain_spec()).unwrap();
    let (a, _) = inputs(10);
    let err = sim.run_data(&[&a.into()]).unwrap_err();
    assert!(err.to_string().contains('B'));
}
