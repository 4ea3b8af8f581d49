//! Arity-3 flattens stay compressed through the engine.
//!
//! Two plans fuse the pair rank `CB` with `A`: `[CB, A] → CBA` (behind an
//! online swizzle, so the chain records merge groups) and
//! `[A, CB] → ACB`. The engine must run both on CSF storage with zero
//! decompressions, and its output, instruments and merge groups must be
//! bit-identical to executing the same plan on inputs that the owned
//! oracle transform chain (`Tensor::swizzle` / `Tensor::flatten_rank`)
//! prepared.
//!
//! This file holds a single test so nothing else in the process touches
//! the decompression counter between the snapshots.

use std::collections::BTreeMap;

use teaal_core::ir::{EinsumPlan, PlanStep, TensorPlan};
use teaal_core::TeaalSpec;
use teaal_fibertree::{
    telemetry, CompressedTensor, Fiber, IntersectPolicy, Payload, Tensor, TensorData,
};
use teaal_sim::engine::BoundaryCache;
use teaal_sim::{ChannelCfg, Engine, Instruments, MergeGroup, OpTable, Simulator};

const EXTENTS: [(&str, u64); 3] = [("A", 6), ("C", 5), ("B", 4)];

fn spec(second_flatten: &str) -> TeaalSpec {
    TeaalSpec::parse(&format!(
        "einsum:\n  declaration:\n    T: [A, C, B]\n    U: [A, C, B]\n    Z: [A, C, B]\n\
         \x20 expressions:\n    - Z[a, c, b] = T[a, c, b] * U[a, c, b]\n\
         mapping:\n  partitioning:\n    Z:\n      (C, B): [flatten()]\n      \
         {second_flatten}: [flatten()]\n"
    ))
    .unwrap()
}

fn tensor(name: &str, stride: u64) -> Tensor {
    let entries = (0..40u64)
        .map(|i| {
            let p = i * stride;
            (vec![p % 6, (p / 6) % 5, (p / 30) % 4], 1.0 + i as f64)
        })
        .collect();
    Tensor::from_entries(name, &["A", "C", "B"], &[6, 5, 4], entries).unwrap()
}

/// The owned oracle: a tensor plan's chain applied with the owned
/// transforms, plus the merge groups its online swizzles cost (one group
/// per fiber at the common-prefix depth, fan-in = occupancy).
fn oracle_chain(t: &Tensor, tp: &TensorPlan, merges: &mut Vec<MergeGroup>) -> Tensor {
    fn walk(f: &Fiber, depth: usize, target: usize, name: &str, out: &mut Vec<MergeGroup>) {
        if depth == target {
            if f.leaf_count() > 0 && f.occupancy() > 1 {
                out.push(MergeGroup {
                    tensor: name.to_string(),
                    elems: f.leaf_count() as u64,
                    ways: f.occupancy() as u64,
                });
            }
            return;
        }
        for e in f.iter() {
            if let Payload::Fiber(child) = &e.payload {
                walk(child, depth + 1, target, name, out);
            }
        }
    }
    let order: Vec<&str> = tp.initial_order.iter().map(String::as_str).collect();
    let mut t = t.swizzle(&order).unwrap();
    for step in &tp.steps {
        t = match step {
            PlanStep::Swizzle(order) => {
                let prefix = t
                    .rank_ids()
                    .iter()
                    .zip(order)
                    .take_while(|(a, b)| a == b)
                    .count();
                if tp.online_swizzle && prefix < t.order() {
                    walk(t.root_fiber().unwrap(), 0, prefix, t.name(), merges);
                }
                let order: Vec<&str> = order.iter().map(String::as_str).collect();
                t.swizzle(&order).unwrap()
            }
            PlanStep::Flatten { upper, new_name } => t.flatten_rank(upper, new_name).unwrap(),
            other => panic!("unexpected step {other:?}"),
        };
    }
    t
}

/// Executes `plan` directly on the engine with traffic channels for every
/// input, returning the output, a bit-exact rendering of the instruments
/// (address-keyed dedup state excluded) and the merge groups.
fn execute(plan: &EinsumPlan, inputs: &[TensorData]) -> (TensorData, String, Vec<MergeGroup>) {
    let env: BTreeMap<String, &TensorData> =
        inputs.iter().map(|t| (t.name().to_string(), t)).collect();
    let extents = EXTENTS.map(|(r, e)| (r.to_string(), e)).into();
    let engine = Engine::new(
        plan,
        OpTable::arithmetic(),
        IntersectPolicy::TwoFinger,
        extents,
    );
    let mut inst = Instruments::default();
    for tp in &plan.tensor_plans {
        let bits = tp.working_order.iter().map(|r| (r.clone(), 64)).collect();
        inst.add_tensor(&tp.tensor, ChannelCfg::fully_buffered(bits));
    }
    let out = engine
        .execute_data(&env, &mut inst, &mut BoundaryCache::new())
        .unwrap();
    let traffic: Vec<_> = inst
        .tensors
        .iter()
        .map(|(n, ch)| (n, &ch.reads_by_rank, ch.fill_bits, ch.buffer_read_bits))
        .collect();
    let o = &inst.output;
    let rendered = format!(
        "{traffic:?} out=({}, {}, {}, {}) isect={:?} visits={:?} muls={:?} adds={:?}",
        o.writes,
        o.updates,
        o.drain_bits,
        o.refill_bits,
        inst.intersect_by_rank,
        inst.loop_visits,
        inst.compute.muls,
        inst.compute.adds,
    );
    (out, rendered, inst.merges)
}

#[test]
fn arity_three_flattens_run_compressed_and_match_the_owned_oracle() {
    let owned = [tensor("T", 7), tensor("U", 11)];
    let compressed: Vec<TensorData> = owned
        .iter()
        .map(|t| CompressedTensor::from_tensor(t).unwrap().into())
        .collect();
    for (second, fused) in [("(CB, A)", "CBA"), ("(A, CB)", "ACB")] {
        let sim = Simulator::new(spec(second)).unwrap();
        let mut plan = sim.plans()[0].clone();
        // Cost the [CB, A] swizzle online so the chain records merges.
        for tp in &mut plan.tensor_plans {
            tp.online_swizzle = true;
        }
        assert_eq!(plan.tensor_plans[0].working_order, vec![fused.to_string()]);

        // Engine leg: the engine transforms compressed inputs itself.
        let before = telemetry::decompress_count();
        let (out, instruments, got_merges) = execute(&plan, &compressed);
        assert_eq!(
            telemetry::decompress_count(),
            before,
            "{fused}: the arity-3 chain must never decompress"
        );

        // Oracle leg: owned inputs pre-transformed by the owned chain,
        // streamed by a plan with nothing left to transform.
        let mut merges = Vec::new();
        let prepared: Vec<TensorData> = owned
            .iter()
            .zip(&plan.tensor_plans)
            .map(|(t, tp)| TensorData::Owned(oracle_chain(t, tp, &mut merges)))
            .collect();
        let mut bare = plan.clone();
        for tp in &mut bare.tensor_plans {
            tp.initial_order = vec![fused.to_string()];
            tp.steps.clear();
        }
        let (want_out, want, output_merges) = execute(&bare, &prepared);
        // Transform merges are recorded first, then the output's.
        merges.extend(output_merges);

        assert!(out.nnz() > 0, "{fused}: the operands overlap");
        assert_eq!(out, want_out, "{fused}: outputs diverge from the oracle");
        assert_eq!(
            instruments, want,
            "{fused}: instruments diverge from the oracle"
        );
        assert_eq!(
            got_merges, merges,
            "{fused}: merge groups diverge from the oracle"
        );
        if fused == "CBA" {
            assert!(
                got_merges.iter().any(|m| m.tensor == "T"),
                "the [CB, A] swizzle costs merges"
            );
        }
    }
}
