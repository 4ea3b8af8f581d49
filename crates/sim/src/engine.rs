//! The instrumented execution engine.
//!
//! Interprets an [`EinsumPlan`] over real tensors: applies the per-tensor
//! transform pipeline (publishing leader-follower partition boundaries),
//! then walks the mapped loop nest co-iterating fibers exactly as the
//! modelled hardware would — intersecting multiplicative operands,
//! unioning additive ones, projecting flattened coordinates, resolving
//! affine indices — while streaming every access into [`Instruments`].
//!
//! The nest is driven end-to-end by [`FiberView`] cursors over
//! [`TensorData`] inputs: untransformed tensors (owned or compressed) are
//! borrowed, never cloned, and each loop level consumes a lazy
//! intersection/union stream instead of materializing a match list — the
//! engine allocates per *level*, not per *step*. Everything the engine
//! transforms or produces is compressed (CSF) storage: an owned input
//! that needs transforming is compressed once, and outputs drain
//! through a [`CompressedBuilder`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use teaal_core::canon::Fnv1a;
use teaal_core::einsum::Rhs;
use teaal_core::ir::{Descent, EinsumPlan, PlanStep, RankDef, TensorPlan};
use teaal_fibertree::iterate::{
    intersect_stream, intersect_stream_bounded, union_stream, union_stream_bounded,
    IntersectStream, UnionStream,
};
use teaal_fibertree::partition::SplitKind;
use teaal_fibertree::{
    telemetry, BoundaryRecord, CompressedBuilder, CompressedTensor, Coord, FiberView,
    IntersectPolicy, MergeRecord, PayloadView, Shape, TensorData, TransformCache, TransformedView,
};

use crate::counters::{Instruments, MergeGroup};
use crate::error::SimError;
use crate::limits::CancelToken;
use crate::ops::OpTable;
use crate::par;

/// Boundary lists published by occupancy-partition leaders, keyed by
/// `(rank, leader tensor)`.
pub type BoundaryCache =
    BTreeMap<(String, String), std::collections::BTreeMap<Vec<Coord>, Vec<Coord>>>;

/// The engine executing one Einsum plan.
pub struct Engine<'p> {
    plan: &'p EinsumPlan,
    ops: OpTable,
    policy: IntersectPolicy,
    rank_extents: BTreeMap<String, u64>,
    threads: usize,
    /// Shared transformed-input cache (staged pipeline), when attached.
    transforms: Option<Arc<TransformCache>>,
    /// Cooperative budget/cancellation handle, when attached. `None`
    /// keeps the hot loop free of charging entirely.
    cancel: Option<CancelToken>,
}

/// One prepared input: either the untransformed tensor borrowed straight
/// from the environment, or a transformed view — shared out of the
/// pipeline's [`TransformCache`], or built for this execution alone. The
/// nest walk only ever needs `&TensorData`.
enum PreparedInput<'t> {
    Borrowed(&'t TensorData),
    Shared(Arc<TransformedView>),
}

impl PreparedInput<'_> {
    fn data(&self) -> &TensorData {
        match self {
            PreparedInput::Borrowed(t) => t,
            PreparedInput::Shared(v) => &v.tensor,
        }
    }
}

#[derive(Clone)]
struct Exec<'e, 'p> {
    engine: &'e Engine<'p>,
    union_mode: bool,
    take_which: Option<usize>,
    /// Maps access index → tensor index in `tensors`.
    access_tensor: Vec<usize>,
    /// Working rank consumed by each access at each descent (parallel to
    /// roles): resolved lazily from tensor plans.
    access_rank_names: Vec<Vec<String>>,
    /// When executing one shard of a partitioned top rank, the top-level
    /// stream only emits coordinates in `[lo, hi)` (absolute positions,
    /// shard-exact charging).
    top_bounds: Option<(u64, u64)>,
    /// Whether leaf() must remember the space id of each output key's
    /// first write — needed to reconstitute the sequential reduction
    /// counts when shards overlap on output keys.
    record_first_space: bool,
}

/// The engine's output accumulator. `Map` buffers every point (the
/// general path); `Stream` drains straight into a [`CompressedBuilder`]
/// when the loop order is concordant with the output rank order, so
/// leaf visits arrive key-sorted with equal keys adjacent and only one
/// pending entry ever needs buffering.
enum OutAcc {
    Map(BTreeMap<Vec<u64>, f64>),
    Stream {
        builder: CompressedBuilder,
        pending: Option<(Vec<u64>, f64)>,
    },
}

struct State<'t> {
    nodes: Vec<Option<PayloadView<'t>>>,
    binds: Vec<(String, u64)>,
    space: Vec<u64>,
    out: OutAcc,
    /// Space id at each output key's first write (shard-overlap merges
    /// only; see [`Exec::record_first_space`]).
    first_space: BTreeMap<Vec<u64>, Vec<u64>>,
}

/// How a shard-parallel execution was planned: the top-rank coordinate
/// ranges, per-channel fill-merge modes, and the output merge strategy.
struct ShardPlan {
    /// Half-open top-coordinate ranges, one per worker, in coordinate
    /// order; together they cover every top coordinate.
    ranges: Vec<(u64, u64)>,
    /// Per-tensor: whether the shard channel logs fills for merge-time
    /// first-wins deduplication (single buffet epoch spanning shards).
    log_fills: BTreeMap<String, bool>,
    /// Whether shards write disjoint output key sets (the top coordinate
    /// is an output coordinate), making all output counters additive.
    disjoint: bool,
    /// Whether shards stream their outputs into per-shard
    /// [`CompressedBuilder`]s merged by k-way concatenation.
    stream_out: bool,
}

/// The per-level coordinate source: a dense counter for affine kernels, a
/// lazy union or intersection stream otherwise.
enum LevelStream<'v> {
    Dense { next: u64, extent: u64 },
    Union(UnionStream<'v>),
    Intersect(IntersectStream<'v>),
    Empty,
}

impl LevelStream<'_> {
    /// The next coordinate, with one position per driver written into
    /// `positions` (a dense level has no drivers).
    fn next_into(&mut self, positions: &mut [Option<usize>]) -> Option<Coord> {
        match self {
            LevelStream::Dense { next, extent } => (*next < *extent).then(|| {
                *next += 1;
                Coord::Point(*next - 1)
            }),
            LevelStream::Union(u) => u.next_into(positions),
            LevelStream::Intersect(s) => s.next_into(positions),
            LevelStream::Empty => None,
        }
    }
}

impl<'p> Engine<'p> {
    /// Creates an engine for one plan.
    pub fn new(
        plan: &'p EinsumPlan,
        ops: OpTable,
        policy: IntersectPolicy,
        rank_extents: BTreeMap<String, u64>,
    ) -> Self {
        Engine {
            plan,
            ops,
            policy,
            rank_extents,
            threads: 1,
            transforms: None,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation/budget token. The walk
    /// charges one engine step per loop-rank visit and one output
    /// entry per materialized key, and polls the token at stream,
    /// shard, and transform boundaries; a tripped budget surfaces as
    /// the matching structured [`SimError`] with partial telemetry.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a shared [`TransformCache`]: input transform chains whose
    /// results are content-determined are served from (and published to)
    /// the cache instead of re-running. Recorded side effects — merge
    /// groups and leader boundary publications — are replayed from the
    /// cached view, so instruments and boundary visibility are
    /// bit-identical to an uncached run.
    pub fn with_transform_cache(mut self, cache: Arc<TransformCache>) -> Self {
        self.transforms = Some(cache);
        self
    }

    /// Sets the worker count for shard-parallel execution (default 1).
    ///
    /// With `n > 1`, eligible plans partition their top loop rank into up
    /// to `n` coordinate ranges executed by [`par::fan_out`] workers and
    /// merged deterministically — instruments and outputs are
    /// bit-identical to the sequential run (pinned by the
    /// `parallel_sharding` suite). Plans the shard-exactness analysis
    /// cannot prove simply run sequentially; `n` is a cap, never a
    /// requirement.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Executes the plan.
    ///
    /// `inputs` must contain every input tensor (cascade inputs and
    /// already-produced intermediates) in either representation;
    /// `instruments` receives the access stream; `boundaries` carries
    /// leader partition boundaries across tensors. The accumulated
    /// output drains through a [`CompressedBuilder`] into CSF storage —
    /// `O(output nnz)` allocations, no tree build.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when inputs are missing, a transform fails, a
    /// dense loop rank has no known extent, or the plan descends deeper
    /// than a tensor's working order ([`SimError::PhantomRank`]).
    pub fn execute_data<'t>(
        &self,
        inputs: &BTreeMap<String, &'t TensorData>,
        instruments: &mut Instruments,
        boundaries: &mut BoundaryCache,
    ) -> Result<TensorData, SimError> {
        // 1. Transform inputs per plan (leaders first — plan order).
        // Untransformed inputs are borrowed rather than cloned — the graph
        // driver re-executes cascades every superstep against the same
        // multi-million-entry compressed adjacency. Transform chains run
        // on CSF arrays (an owned input is compressed once first). With a
        // [`TransformCache`] attached, content-determined chains are
        // served from the cache and their recorded side effects replayed.
        let mut tensors: Vec<PreparedInput<'t>> = Vec::new();
        let mut tensor_names: Vec<String> = Vec::new();
        for tp in &self.plan.tensor_plans {
            // Transform-step boundary: a budget that trips between input
            // chains returns before the next (possibly large) transform.
            if let Some(token) = &self.cancel {
                token.checkpoint()?;
            }
            let input: &TensorData =
                inputs
                    .get(&tp.tensor)
                    .copied()
                    .ok_or_else(|| SimError::MissingTensor {
                        tensor: tp.tensor.clone(),
                    })?;
            let needs_swizzle = input.rank_ids() != tp.initial_order.as_slice();
            let t = if needs_swizzle || !tp.steps.is_empty() {
                let build = || self.run_transform_chain(input, tp, needs_swizzle, boundaries);
                let cached = self.transforms.as_ref().and_then(|cache| {
                    let key = self.transform_key(input, tp, needs_swizzle, boundaries)?;
                    Some(cache.get_or_build(key, build))
                });
                let view = match cached {
                    Some(view) => view?,
                    None => Arc::new(build()?),
                };
                apply_view_effects(&view, instruments, boundaries);
                PreparedInput::Shared(view)
            } else {
                PreparedInput::Borrowed(input)
            };
            tensor_names.push(tp.tensor.clone());
            tensors.push(t);
        }

        // 2. Access → tensor resolution and per-descent rank names.
        let accesses = self.plan.equation.rhs.accesses();
        let mut access_tensor = Vec::with_capacity(accesses.len());
        let mut access_rank_names = Vec::with_capacity(accesses.len());
        for (ai, a) in accesses.iter().enumerate() {
            let ti = tensor_names
                .iter()
                .position(|n| *n == a.tensor)
                .ok_or_else(|| SimError::MissingTensor {
                    tensor: a.tensor.clone(),
                })?;
            access_tensor.push(ti);
            // The working rank consumed by the access's k-th descent is the
            // k-th rank of the tensor's working order. Descending past the
            // working order means the plan is malformed: fail loudly
            // instead of instrumenting phantom ranks.
            let wo = self.plan.tensor_plans[ti].working_order.clone();
            let mut per_level = Vec::new();
            let mut k = 0usize;
            for level in &self.plan.access_roles[ai].roles {
                let mut names = Vec::with_capacity(level.len());
                for _ in level {
                    let name = wo.get(k).cloned().ok_or_else(|| SimError::PhantomRank {
                        tensor: self.plan.tensor_plans[ti].tensor.clone(),
                        depth: k,
                        working_order: wo.clone(),
                    })?;
                    names.push(name);
                    k += 1;
                }
                per_level.push(names.join("/"));
            }
            access_rank_names.push(per_level);
        }

        let (union_mode, take_which) = match &self.plan.equation.rhs {
            Rhs::SumOfProducts(terms) => (terms.len() > 1, None),
            Rhs::Take { which, .. } => (false, Some(*which)),
        };

        let exec = Exec {
            engine: self,
            union_mode,
            take_which,
            access_tensor,
            access_rank_names,
            top_bounds: None,
            record_first_space: false,
        };

        // 3. Walk the nest — shard-parallel when the exactness analysis
        // allows it, sequentially otherwise. A panicking shard worker is
        // isolated by the fan-out, the partially-absorbed instruments
        // are rolled back to this pre-shard snapshot, and the plan is
        // retried once sequentially — degradation, not failure.
        let concordant = self.output_concordant();
        if let Some(token) = &self.cancel {
            token.checkpoint()?;
        }
        if let Some(shard_plan) = self.plan_shards(&exec, &tensors, instruments) {
            let snapshot = instruments.clone();
            match self.execute_sharded(&exec, &tensors, instruments, &shard_plan) {
                Err(SimError::WorkerPanic { .. }) => {
                    *instruments = snapshot;
                    telemetry::note_degraded_sequential();
                }
                other => return other,
            }
        }
        let mut state = State {
            nodes: exec
                .access_tensor
                .iter()
                .map(|&ti| Some(tensors[ti].data().root_view()))
                .collect(),
            binds: Vec::new(),
            space: Vec::new(),
            out: if concordant {
                OutAcc::Stream {
                    builder: self.output_builder(&self.plan.output.target_order)?,
                    pending: None,
                }
            } else {
                OutAcc::Map(BTreeMap::new())
            },
            first_space: BTreeMap::new(),
        };
        exec.level(0, &mut state, instruments)?;

        // 4. Assemble the output tensor.
        match state.out {
            OutAcc::Stream { builder, pending } => self.finish_stream(builder, pending),
            OutAcc::Map(map) => self.build_output(map, instruments),
        }
        .map(TensorData::Compressed)
    }

    /// Whether the loop order is concordant with the output rank order:
    /// the first `target_order.len()` loop ranks each bind exactly their
    /// corresponding target root (component 0, a root rank's point
    /// coordinates) and no deeper loop rank rebinds any target root. Leaf
    /// visits then produce nondecreasing output keys with equal keys
    /// adjacent, so the accumulator can stream into a
    /// [`CompressedBuilder`] instead of buffering every point.
    fn output_concordant(&self) -> bool {
        let out = &self.plan.output;
        if out.online_swizzle {
            return false;
        }
        let t = out.target_order.len();
        if self.plan.loop_ranks.len() < t {
            return false;
        }
        for (i, r) in out.target_order.iter().enumerate() {
            let lr = &self.plan.loop_ranks[i];
            if lr.binds.len() != 1 || lr.binds[0].0 != *r || lr.binds[0].1 != 0 {
                return false;
            }
            if !matches!(self.plan.rank_space.def(&lr.name), Some(RankDef::Root)) {
                return false;
            }
        }
        self.plan.loop_ranks[t..].iter().all(|lr| {
            lr.binds
                .iter()
                .all(|(root, _)| !out.target_order.contains(root))
        })
    }

    /// An output builder over `ranks` (the target order, or the
    /// production order of an online swizzle); unknown extents get a
    /// huge interval. Streamed and buffered outputs share it, so they are
    /// bit-identical.
    fn output_builder(&self, ranks: &[String]) -> Result<CompressedBuilder, SimError> {
        let shapes = ranks
            .iter()
            .map(|r| Shape::Interval(self.rank_extents.get(r).copied().unwrap_or(u64::MAX / 2)))
            .collect();
        Ok(CompressedBuilder::new(
            &self.plan.output.tensor,
            ranks.to_vec(),
            shapes,
        )?)
    }

    /// Flushes a streaming accumulator's pending entry (dropping semiring
    /// zeros, like the buffered drain) and closes the builder.
    fn finish_stream(
        &self,
        mut builder: CompressedBuilder,
        pending: Option<(Vec<u64>, f64)>,
    ) -> Result<CompressedTensor, SimError> {
        let zero = self.ops.semiring.zero();
        if let Some((k, v)) = pending {
            if v != zero {
                builder.push_point(&k, v)?;
            }
        }
        Ok(builder.finish())
    }

    /// Decides whether this execution can shard its top loop rank across
    /// `self.threads` workers while staying bit-identical to the
    /// sequential run, and plans the shard ranges if so. Every `None`
    /// is a proof obligation the analysis could not discharge — the
    /// caller then runs sequentially, which is always correct.
    fn plan_shards(
        &self,
        exec: &Exec<'_, 'p>,
        tensors: &[PreparedInput<'_>],
        instruments: &Instruments,
    ) -> Option<ShardPlan> {
        if self.threads < 2 {
            return None;
        }
        let top = self.plan.loop_ranks.first()?;

        // Top-level drivers and live fibers, exactly as level(0) sees
        // them.
        let driver_idx: Vec<usize> = self
            .plan
            .access_roles
            .iter()
            .enumerate()
            .filter(|(_, roles)| roles.roles[0].contains(&Descent::CoIterate))
            .map(|(ai, _)| ai)
            .collect();
        let live: Vec<FiberView<'_>> = driver_idx
            .iter()
            .filter_map(
                |&ai| match tensors[exec.access_tensor[ai]].data().root_view() {
                    PayloadView::Fiber(f) => Some(f),
                    _ => None,
                },
            )
            .collect();

        // Shard boundaries on the top coordinate axis, plus the exclusive
        // upper limit of the final range.
        let (boundaries, upper) = if driver_idx.is_empty() {
            // Dense top: split the extent evenly. A missing extent errors
            // identically on the sequential path, so fall back to it.
            let root = top
                .binds
                .first()
                .map(|(r, _)| r.clone())
                .unwrap_or_else(|| top.name.clone());
            let extent = self.rank_extents.get(&root).copied()?;
            if extent == 0 {
                return None;
            }
            let n = self.threads as u64;
            ((1..n).map(|i| i * extent / n).collect::<Vec<u64>>(), extent)
        } else {
            // Sparse top: bounded co-iteration is only shard-exact for
            // the stream shapes it was proved for.
            if exec.union_mode {
                if live.is_empty() {
                    return None;
                }
            } else if live.len() != driver_idx.len() || live.len() > 2 {
                return None;
            }
            // Bounded streams compare point coordinates; tuple-coordinate
            // roots (flattened ranks) fall back.
            if live
                .iter()
                .any(|f| f.occupancy() > 0 && f.coord_at(0).as_point().is_none())
            {
                return None;
            }
            let widest = live.iter().max_by_key(|f| f.occupancy())?;
            let occ = widest.occupancy();
            if occ == 0 {
                return None;
            }
            let bs: Vec<u64> = (1..self.threads)
                .map(|i| widest.coord_at(i * occ / self.threads).as_point())
                .collect::<Option<Vec<u64>>>()?;
            (bs, u64::MAX)
        };
        let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(boundaries.len() + 1);
        let mut lo = 0u64;
        for b in boundaries {
            if b > lo && b < upper {
                ranges.push((lo, b));
                lo = b;
            }
        }
        ranges.push((lo, upper));
        if ranges.len() < 2 {
            return None;
        }

        // Channel mergeability: caches replay an access order, which
        // sharding reorders; buffet epochs must either stay within one
        // shard (evict-on the top rank) or span the whole run (no
        // effective evict rank, merged by first-fill-wins deduplication).
        let loop_names: BTreeSet<&str> = self
            .plan
            .loop_ranks
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        let mut log_fills = BTreeMap::new();
        for (name, ch) in &instruments.tensors {
            let cfg = ch.cfg();
            if cfg.cache_lines.is_some() {
                return None;
            }
            let log = if !cfg.dram_backed {
                false
            } else {
                match cfg.evict_on.as_deref() {
                    Some(r) if r == top.name => false,
                    Some(r) if loop_names.contains(r) => return None,
                    _ => true,
                }
            };
            log_fills.insert(name.clone(), log);
        }

        // Output merge strategy. Disjoint: the top coordinate is an
        // output coordinate, so shards write disjoint keys and every
        // output counter is additive. Overlap: shards reduce into the
        // same keys, which is only reconstitutable without partial-output
        // epochs and with an exact (order-insensitive) reduction — or a
        // take, where the first shard's value wins as it would
        // sequentially.
        let out = &self.plan.output;
        let disjoint = top.binds.len() == 1
            && top.binds[0].1 == 0
            && out.target_order.contains(&top.binds[0].0)
            && !self.plan.loop_ranks[1..]
                .iter()
                .any(|lr| lr.binds.iter().any(|(r, _)| *r == top.binds[0].0));
        if !disjoint {
            let overlap_ok = instruments.output.evict_on.is_none()
                && (exec.take_which.is_some() || self.ops.exact_add);
            if !overlap_ok {
                return None;
            }
        }
        let stream_out = disjoint && self.output_concordant();

        Some(ShardPlan {
            ranges,
            log_fills,
            disjoint,
            stream_out,
        })
    }

    /// Runs the planned shards, one [`par::fan_out`] worker each, and
    /// merges their instruments and outputs deterministically, in shard
    /// (coordinate) order.
    fn execute_sharded(
        &self,
        exec: &Exec<'_, 'p>,
        tensors: &[PreparedInput<'_>],
        instruments: &mut Instruments,
        shard_plan: &ShardPlan,
    ) -> Result<TensorData, SimError> {
        let stream_out = shard_plan.stream_out;
        let is_take = exec.take_which.is_some();
        let record_first_space = !shard_plan.disjoint && !is_take;
        let base: &Instruments = instruments;

        type ShardOut = (OutAcc, BTreeMap<Vec<u64>, Vec<u64>>, Instruments);
        let run_shard = |i: usize| -> Result<ShardOut, SimError> {
            if let Err(m) = teaal_core::failpoint::hit("engine.shard") {
                return Err(SimError::Fibertree(m));
            }
            let mut si =
                base.fork_shard(|name, _| shard_plan.log_fills.get(name).copied().unwrap_or(false));
            let shard_exec = Exec {
                top_bounds: Some(shard_plan.ranges[i]),
                record_first_space,
                ..exec.clone()
            };
            let mut st = State {
                nodes: shard_exec
                    .access_tensor
                    .iter()
                    .map(|&ti| Some(tensors[ti].data().root_view()))
                    .collect(),
                binds: Vec::new(),
                space: Vec::new(),
                out: if stream_out {
                    OutAcc::Stream {
                        builder: self.output_builder(&self.plan.output.target_order)?,
                        pending: None,
                    }
                } else {
                    OutAcc::Map(BTreeMap::new())
                },
                first_space: BTreeMap::new(),
            };
            shard_exec.level(0, &mut st, &mut si)?;
            Ok((st.out, st.first_space, si))
        };
        // One worker per shard. A panicking shard comes back as
        // `WorkerPanic`, which the caller answers with a sequential retry.
        let worker_out = par::fan_out(
            shard_plan.ranges.len(),
            shard_plan.ranges.len(),
            run_shard,
            |_| false,
        )
        .into_iter()
        .map(|r| SimError::from_item("shard", r));

        // Merge, strictly in shard order.
        let top = &self.plan.loop_ranks[0];
        let top_is_space = top.is_space;
        let base_writes = instruments.output.writes;
        let base_updates = instruments.output.updates;
        let mut merged_out: BTreeMap<Vec<u64>, f64> = BTreeMap::new();
        let mut merged_builder = if stream_out {
            Some(self.output_builder(&self.plan.output.target_order)?)
        } else {
            None
        };
        let mut seen_keys: BTreeSet<Vec<u64>> = BTreeSet::new();
        let mut top_offset = 0u64;
        for res in worker_out {
            let (out, first_space, mut si) = res?;
            // Space ids carry the top rank's position index, which
            // restarts at zero in every shard: shift by the positions
            // consumed so far.
            if top_is_space && top_offset > 0 {
                si.compute.muls = shift_space_keys(si.compute.muls, top_offset);
                si.compute.adds = shift_space_keys(si.compute.adds, top_offset);
            }
            let shard_visits = si.loop_visits.get(&top.name).copied().unwrap_or(0);
            instruments.absorb_shard(si);
            match out {
                OutAcc::Stream { builder, pending } => {
                    let t = self.finish_stream(builder, pending)?;
                    merged_builder
                        .as_mut()
                        .expect("stream shards merge into a builder")
                        .append_tensor(&t)?;
                }
                OutAcc::Map(map) => {
                    for (k, v) in map {
                        match merged_out.entry(k) {
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(v);
                            }
                            std::collections::btree_map::Entry::Occupied(mut e) => {
                                // Take keeps the first (sequentially
                                // earliest) shard's value; reductions fold
                                // shard partials with the exact ⊕.
                                if !is_take {
                                    let folded = self.ops.semiring.add(*e.get(), v);
                                    e.insert(folded);
                                }
                            }
                        }
                    }
                }
            }
            // Overlap fixup: a key first written in an earlier shard
            // makes this shard's local first write a reduction update
            // sequentially — one extra add at the space where it
            // happened.
            for (k, mut space) in first_space {
                if seen_keys.contains(&k) {
                    if top_is_space && top_offset > 0 {
                        if let Some(c0) = space.first_mut() {
                            *c0 += top_offset;
                        }
                    }
                    *instruments.compute.adds.entry(space).or_insert(0) += 1;
                } else {
                    seen_keys.insert(k);
                }
            }
            top_offset += shard_visits;
        }
        if !shard_plan.disjoint {
            // Reconstitute first-write/update splits from the merged key
            // set: sequentially, only one record per key is a write.
            let total_w = instruments.output.writes - base_writes;
            let total_u = instruments.output.updates - base_updates;
            let writes = merged_out.len() as u64;
            instruments.output.writes = base_writes + writes;
            instruments.output.updates = base_updates + (total_w + total_u - writes);
        }

        if let Some(builder) = merged_builder {
            return Ok(TensorData::Compressed(builder.finish()));
        }
        // Buffered shards assemble through the shared drain, exactly like
        // a sequential run over the merged accumulator.
        self.build_output(merged_out, instruments)
            .map(TensorData::Compressed)
    }

    /// The content-address of one input's transform chain, or `None` when
    /// the result is not content-determined (a follower step whose leader
    /// boundaries are neither published by this chain nor already in
    /// `outer` — the uncached run then reports the identical
    /// [`SimError::MissingBoundaries`]).
    ///
    /// The key covers everything [`Engine::run_transform_chain`] reads:
    /// the input's content hash, the plan's initial order and steps, the
    /// online-swizzle flag (it decides merge recording), and — for
    /// followers resolved from `outer` — the exact boundary lists.
    fn transform_key(
        &self,
        input: &TensorData,
        tp: &TensorPlan,
        needs_swizzle: bool,
        outer: &BoundaryCache,
    ) -> Option<u64> {
        let mut h = Fnv1a::new();
        h.write_str("transform-chain-v1");
        h.write_u64(input.content_hash());
        h.write_str(&tp.tensor);
        h.write_u64(tp.initial_order.len() as u64);
        for r in &tp.initial_order {
            h.write_str(r);
        }
        h.write_u64(u64::from(needs_swizzle));
        h.write_u64(u64::from(tp.online_swizzle));
        // Ranks this chain's own leader steps publish; follower steps
        // reading them are content-determined.
        let mut local_leaders: BTreeSet<(&str, &str)> = BTreeSet::new();
        for step in &tp.steps {
            h.write_str(&format!("{step:?}"));
            match step {
                PlanStep::SplitOccLeader { rank, .. } => {
                    local_leaders.insert((rank.as_str(), tp.tensor.as_str()));
                }
                PlanStep::SplitOccFollower { rank, leader, .. }
                    if !local_leaders.contains(&(rank.as_str(), leader.as_str())) =>
                {
                    let bounds = outer.get(&(rank.clone(), leader.clone()))?;
                    h.write_str(&format!("{bounds:?}"));
                }
                _ => {}
            }
        }
        Some(h.finish())
    }

    /// Runs one input's whole transform chain, recording its side effects
    /// — merge groups and leader boundary publications — as data in the
    /// returned [`TransformedView`] so a cache hit can replay them
    /// ([`apply_view_effects`]) instead of re-running the chain. Counts
    /// one real execution in [`telemetry::transform_exec_count`].
    fn run_transform_chain(
        &self,
        input: &TensorData,
        tp: &TensorPlan,
        needs_swizzle: bool,
        outer: &BoundaryCache,
    ) -> Result<TransformedView, SimError> {
        teaal_core::failpoint::hit("transform.swizzle").map_err(SimError::Fibertree)?;
        telemetry::note_transform_exec();
        let mut merges: Vec<MergeGroup> = Vec::new();
        let mut published: Vec<BoundaryRecord> = Vec::new();
        // Followers see outer leaders plus any this chain publishes.
        let mut local: BoundaryCache = outer.clone();
        let compressed;
        let source = match input {
            TensorData::Compressed(c) => c,
            TensorData::Owned(t) => {
                compressed = CompressedTensor::from_tensor(t)?;
                &compressed
            }
        };
        let tensor = TensorData::Compressed(self.transform_compressed(
            source,
            tp,
            needs_swizzle,
            &mut merges,
            &mut local,
            &mut published,
        )?);

        Ok(TransformedView {
            tensor,
            merges: merges
                .into_iter()
                .map(|g| MergeRecord {
                    tensor: g.tensor,
                    elems: g.elems,
                    ways: g.ways,
                })
                .collect(),
            boundaries: published,
        })
    }

    /// Applies an input's transform pipeline entirely on CSF arrays.
    fn transform_compressed(
        &self,
        input: &CompressedTensor,
        tp: &TensorPlan,
        needs_swizzle: bool,
        merges: &mut Vec<MergeGroup>,
        boundaries: &mut BoundaryCache,
        published: &mut Vec<BoundaryRecord>,
    ) -> Result<CompressedTensor, SimError> {
        let mut cur: std::borrow::Cow<'_, CompressedTensor> = if needs_swizzle {
            let want: Vec<&str> = tp.initial_order.iter().map(String::as_str).collect();
            std::borrow::Cow::Owned(input.swizzle(&want)?)
        } else {
            std::borrow::Cow::Borrowed(input)
        };
        for step in &tp.steps {
            let next = match step {
                PlanStep::Swizzle(order) => {
                    if tp.online_swizzle {
                        record_merge_groups(&cur, order, merges);
                    }
                    let o: Vec<&str> = order.iter().map(String::as_str).collect();
                    cur.swizzle(&o)?
                }
                PlanStep::Flatten { upper, new_name } => cur.flatten_rank(upper, new_name)?,
                PlanStep::SplitShape {
                    rank,
                    size,
                    upper,
                    lower,
                } => cur.partition_rank(rank, SplitKind::UniformShape(*size), upper, lower)?,
                PlanStep::SplitOccLeader {
                    rank,
                    size,
                    upper,
                    lower,
                } => {
                    let bounds = cur.occupancy_boundaries_by_path(rank, *size)?;
                    published.push(BoundaryRecord {
                        rank: rank.clone(),
                        leader: cur.name().to_string(),
                        bounds: bounds.clone(),
                    });
                    boundaries.insert((rank.clone(), cur.name().to_string()), bounds);
                    cur.partition_rank(rank, SplitKind::UniformOccupancy(*size), upper, lower)?
                }
                PlanStep::SplitOccFollower {
                    rank,
                    leader,
                    size: _,
                    upper,
                    lower,
                } => {
                    let bounds = boundaries
                        .get(&(rank.clone(), leader.clone()))
                        .cloned()
                        .ok_or_else(|| SimError::MissingBoundaries {
                            rank: rank.clone(),
                            leader: leader.clone(),
                        })?;
                    cur.partition_rank(rank, SplitKind::BoundariesByPath(bounds), upper, lower)?
                }
            };
            cur = std::borrow::Cow::Owned(next);
        }
        Ok(cur.into_owned())
    }

    /// Assembles a buffered output: filter semiring zeros, optionally
    /// permute to production order, build, record online-swizzle merge
    /// groups, and swizzle back to the target order.
    fn build_output(
        &self,
        acc: BTreeMap<Vec<u64>, f64>,
        instruments: &mut Instruments,
    ) -> Result<CompressedTensor, SimError> {
        let out_plan = &self.plan.output;
        let target = &out_plan.target_order;
        let zero = self.ops.semiring.zero();
        let filtered = acc.into_iter().filter(|(_, v)| *v != zero);
        if !out_plan.online_swizzle {
            return drain(self.output_builder(target)?, filtered);
        }
        // Build in production order first so the merge fan-in reflects how
        // the hardware sees the data, then swizzle.
        let produced = &out_plan.produced_order;
        let perm: Vec<usize> = produced
            .iter()
            .map(|r| {
                target
                    .iter()
                    .position(|t| t == r)
                    .expect("produced ⊆ target")
            })
            .collect();
        let mut prod_entries: Vec<(Vec<u64>, f64)> = filtered
            .map(|(k, v)| (perm.iter().map(|&i| k[i]).collect(), v))
            .collect();
        prod_entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let prod = drain(self.output_builder(produced)?, prod_entries)?;
        record_merge_groups(&prod, target, &mut instruments.merges);
        let o: Vec<&str> = target.iter().map(String::as_str).collect();
        Ok(prod.swizzle(&o)?)
    }
}

/// Pushes sorted point entries into `b` and closes it.
fn drain(
    mut b: CompressedBuilder,
    entries: impl IntoIterator<Item = (Vec<u64>, f64)>,
) -> Result<CompressedTensor, SimError> {
    for (k, v) in entries {
        b.push_point(&k, v)?;
    }
    Ok(b.finish())
}

/// FNV-1a over the output point's coordinate words.
///
/// The output channel deduplicates partial-output drains by key hash;
/// `DefaultHasher`'s algorithm is explicitly unspecified and has changed
/// across Rust releases, so instrument reports hashed with it were not
/// reproducible across toolchains. FNV-1a is pinned by a regression test.
fn fnv1a_hash(words: &[u64]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Shifts the leading (top space rank) component of every space id by
/// `offset`: shard-local top positions restart at zero, and the merge
/// renumbers them into the sequential run's global position space.
fn shift_space_keys(m: BTreeMap<Vec<u64>, u64>, offset: u64) -> BTreeMap<Vec<u64>, u64> {
    m.into_iter()
        .map(|(mut k, v)| {
            if let Some(c0) = k.first_mut() {
                *c0 += offset;
            }
            (k, v)
        })
        .collect()
}

/// Replays a transformed view's recorded side effects into this
/// execution's instruments and boundary cache — the step that makes a
/// cache hit observationally identical to running the chain.
fn apply_view_effects(
    view: &TransformedView,
    instruments: &mut Instruments,
    boundaries: &mut BoundaryCache,
) {
    for m in &view.merges {
        instruments.merges.push(MergeGroup {
            tensor: m.tensor.clone(),
            elems: m.elems,
            ways: m.ways,
        });
    }
    for b in &view.boundaries {
        boundaries.insert((b.rank.clone(), b.leader.clone()), b.bounds.clone());
    }
}

/// Records the merge work of reordering a tensor into `new_order`: one
/// group per fiber at the common-prefix depth, with fan-in equal to that
/// fiber's occupancy (the number of sorted runs the merger combines).
fn record_merge_groups(t: &CompressedTensor, new_order: &[String], merges: &mut Vec<MergeGroup>) {
    let prefix = t
        .rank_ids()
        .iter()
        .zip(new_order)
        .take_while(|(a, b)| a == b)
        .count();
    if prefix >= t.order() {
        return;
    }
    let Some(root) = FiberView::of_compressed(t) else {
        return;
    };
    let name = t.name();
    fn walk(
        f: FiberView<'_>,
        depth: usize,
        target: usize,
        merges: &mut Vec<MergeGroup>,
        name: &str,
    ) {
        if depth == target {
            let elems = f.leaf_count() as u64;
            let ways = f.occupancy() as u64;
            if elems > 0 && ways > 1 {
                merges.push(MergeGroup {
                    tensor: name.to_string(),
                    elems,
                    ways,
                });
            }
            return;
        }
        for pos in 0..f.occupancy() {
            if let PayloadView::Fiber(child) = f.payload_at(pos) {
                walk(child, depth + 1, target, merges, name);
            }
        }
    }
    walk(root, 0, prefix, merges, name);
}

impl<'e, 'p> Exec<'e, 'p> {
    fn level(
        &self,
        li: usize,
        state: &mut State<'_>,
        inst: &mut Instruments,
    ) -> Result<(), SimError> {
        let plan = self.engine.plan;
        if li == plan.loop_ranks.len() {
            return self.leaf(state, inst);
        }
        let lr = &plan.loop_ranks[li];
        // Shard bounds apply to the top level only: streams start at the
        // first in-range coordinate (absolute positions, so charge
        // accounting partitions the sequential run's) and stop, uncharged,
        // at the first coordinate past the range.
        let bound = if li == 0 { self.top_bounds } else { None };

        // Identify drivers (accesses co-iterating here), each with its
        // fiber when live.
        let mut driver_idx: Vec<usize> = Vec::new();
        let mut drivers: Vec<Option<FiberView<'_>>> = Vec::new();
        for (ai, roles) in plan.access_roles.iter().enumerate() {
            if roles.roles[li].contains(&Descent::CoIterate) {
                driver_idx.push(ai);
                drivers.push(match state.nodes[ai] {
                    Some(PayloadView::Fiber(f)) => Some(f),
                    _ => None,
                });
            }
        }
        let live = drivers.iter().flatten().count();

        // Open the iteration stream for this level.
        let mut stream = if driver_idx.is_empty() {
            // Dense iteration over the rank's extent (affine kernels).
            let root = lr
                .binds
                .first()
                .map(|(r, _)| r.clone())
                .unwrap_or_else(|| lr.name.clone());
            let extent = self
                .engine
                .rank_extents
                .get(&root)
                .copied()
                .ok_or(SimError::MissingExtent { rank: root })?;
            match bound {
                Some((lo, hi)) => LevelStream::Dense {
                    next: lo.min(extent),
                    extent: hi.min(extent),
                },
                None => LevelStream::Dense { next: 0, extent },
            }
        } else if self.union_mode {
            if live == 0 {
                LevelStream::Empty
            } else {
                LevelStream::Union(match bound {
                    Some((lo, hi)) => union_stream_bounded(&drivers, lo, hi),
                    None => union_stream(&drivers),
                })
            }
        } else {
            // Intersection mode: a dead driver kills the whole subtree.
            let Some(fibers) = drivers.iter().copied().collect::<Option<Vec<_>>>() else {
                return Ok(());
            };
            LevelStream::Intersect(match bound {
                Some((lo, hi)) => intersect_stream_bounded(&fibers, self.engine.policy, lo, hi),
                None => intersect_stream(&fibers, self.engine.policy),
            })
        };

        let binds_depth = state.binds.len();
        let mut visits = 0u64;
        let mut pi = 0usize;
        // One position slot per driver, refilled by every match (dead
        // union drivers read `None`).
        let mut positions: Vec<Option<usize>> = vec![None; driver_idx.len()];
        while let Some(coord) = stream.next_into(&mut positions) {
            visits += 1;
            inst.rank_advanced(&lr.name);
            // One engine step per loop-rank visit; the token amortizes
            // its own deadline polling, so this is one relaxed
            // fetch_add + compare on the hot path.
            if let Some(token) = &self.engine.cancel {
                token.charge_steps(1)?;
            }

            // Bind loop variables (needed by affine descents below).
            for (root, comp) in &lr.binds {
                let comps = coord.components();
                let Some(v) = comps.get(*comp).and_then(Coord::as_point) else {
                    continue;
                };
                state.binds.push((root.clone(), v));
            }

            let saved_nodes = state.nodes.clone();
            let mut dead_product = false;

            // Drivers descend.
            for ((&ai, fiber), &position) in driver_idx.iter().zip(&drivers).zip(&positions) {
                match position {
                    Some(p) => {
                        let fiber = fiber.expect("a driver with a position is live");
                        let pv = fiber.payload_at(p);
                        self.touch(ai, li, fiber.payload_key(p), pv, inst);
                        state.nodes[ai] = Some(pv);
                    }
                    None => {
                        state.nodes[ai] = None;
                        if !self.union_mode {
                            dead_product = true;
                        }
                    }
                }
            }

            // Non-driver descents: projections and affine lookups.
            if !dead_product {
                for (ai, roles) in plan.access_roles.iter().enumerate() {
                    for d in &roles.roles[li] {
                        match d {
                            Descent::CoIterate => {}
                            Descent::Project { component } => {
                                let next = match state.nodes[ai] {
                                    Some(PayloadView::Fiber(f)) => {
                                        let comps = coord.components();
                                        let key = comps
                                            .get(*component)
                                            .cloned()
                                            .unwrap_or_else(|| coord.clone());
                                        match f.position(&key) {
                                            Some(p) => {
                                                let pv = f.payload_at(p);
                                                self.touch(ai, li, f.payload_key(p), pv, inst);
                                                Some(pv)
                                            }
                                            None => None,
                                        }
                                    }
                                    _ => None,
                                };
                                state.nodes[ai] = next;
                                if next.is_none() && !self.union_mode {
                                    dead_product = true;
                                }
                            }
                            Descent::Affine { index_pos } => {
                                let access = &plan.equation.rhs.accesses()[ai].clone();
                                let ix = &access.indices[*index_pos];
                                let val = ix.eval(|v| {
                                    let upper = v.to_uppercase();
                                    state
                                        .binds
                                        .iter()
                                        .rev()
                                        .find(|(r, _)| *r == upper)
                                        .map(|(_, x)| *x as i64)
                                });
                                let next = match (state.nodes[ai], val) {
                                    (Some(PayloadView::Fiber(f)), Some(c)) => {
                                        match f.position(&Coord::Point(c)) {
                                            Some(p) => {
                                                let pv = f.payload_at(p);
                                                self.touch(ai, li, f.payload_key(p), pv, inst);
                                                Some(pv)
                                            }
                                            None => None,
                                        }
                                    }
                                    _ => None,
                                };
                                state.nodes[ai] = next;
                                if next.is_none() && !self.union_mode {
                                    dead_product = true;
                                }
                            }
                        }
                        if dead_product {
                            break;
                        }
                    }
                    if dead_product {
                        break;
                    }
                }
            }

            let all_dead = state.nodes.iter().all(Option::is_none);
            if !dead_product && !all_dead {
                if lr.is_space {
                    state.space.push(pi as u64);
                }
                self.level(li + 1, state, inst)?;
                if lr.is_space {
                    state.space.pop();
                }
            }

            state.nodes = saved_nodes;
            state.binds.truncate(binds_depth);
            pi += 1;
        }

        *inst.loop_visits.entry(lr.name.clone()).or_insert(0) += visits;
        // Intersection-unit work, now that the stream is drained. A single
        // live operand co-iterates without an intersection unit.
        match &stream {
            LevelStream::Union(u) => {
                *inst.intersect_by_rank.entry(lr.name.clone()).or_insert(0) +=
                    if live > 1 { u.stats().comparisons } else { 0 };
            }
            LevelStream::Intersect(s) if live > 1 => {
                *inst.intersect_by_rank.entry(lr.name.clone()).or_insert(0) +=
                    s.stats().comparisons;
            }
            _ => {}
        }
        Ok(())
    }

    fn touch(
        &self,
        ai: usize,
        li: usize,
        key: usize,
        payload: PayloadView<'_>,
        inst: &mut Instruments,
    ) {
        let tensor = &self.engine.plan.tensor_plans[self.access_tensor[ai]].tensor;
        let rank = &self.access_rank_names[ai][li];
        if let Some(ch) = inst.tensors.get_mut(tensor) {
            ch.touch(rank, key, Some(payload));
        }
    }

    fn leaf(&self, state: &mut State<'_>, inst: &mut Instruments) -> Result<(), SimError> {
        let plan = self.engine.plan;
        let ops = &self.engine.ops;
        let zero = ops.semiring.zero();

        let scalar = |n: &Option<PayloadView<'_>>| -> Option<f64> {
            match n {
                Some(PayloadView::Val(v)) => Some(*v),
                _ => None,
            }
        };

        let (value, muls, term_adds) = match &plan.equation.rhs {
            Rhs::Take { args: _, which } => {
                if state.nodes.iter().any(Option::is_none) {
                    return Ok(());
                }
                let w = self.take_which.unwrap_or(*which);
                match scalar(&state.nodes[w]) {
                    Some(v) => (v, 0u64, 0u64),
                    None => return Ok(()),
                }
            }
            Rhs::SumOfProducts(terms) => {
                let mut acc = zero;
                let mut present_terms = 0u64;
                let mut muls = 0u64;
                let mut ai = 0usize;
                for (sign, product) in terms {
                    let mut tv = ops.semiring.one();
                    let mut present = true;
                    let mut factors = 0u64;
                    for _ in &product.factors {
                        match scalar(&state.nodes[ai]) {
                            Some(v) => {
                                tv = ops.semiring.mul(tv, v);
                                factors += 1;
                            }
                            None => present = false,
                        }
                        ai += 1;
                    }
                    if present {
                        muls += factors.saturating_sub(1);
                        present_terms += 1;
                        acc = match sign {
                            teaal_core::einsum::Sign::Plus => ops.semiring.add(acc, tv),
                            teaal_core::einsum::Sign::Minus => (ops.sub)(acc, tv),
                        };
                    } else if matches!(sign, teaal_core::einsum::Sign::Minus) && !self.union_mode {
                        return Ok(());
                    }
                }
                if present_terms == 0 || ops.is_zero(acc) {
                    return Ok(());
                }
                // Combining k present terms costs k−1 additions (the apply
                // operations of vertex-centric cascades).
                (acc, muls, present_terms - 1)
            }
        };

        // Output key in target rank order.
        let mut key = Vec::with_capacity(plan.output.target_order.len());
        for r in &plan.output.target_order {
            match state.binds.iter().rev().find(|(b, _)| b == r) {
                Some((_, v)) => key.push(*v),
                None => return Ok(()), // unbound output rank: outside iteration
            }
        }

        let key_hash = fnv1a_hash(&key);

        let is_take = self.take_which.is_some();
        let mut adds = term_adds;
        match &mut state.out {
            OutAcc::Map(map) => match map.get_mut(&key) {
                Some(existing) => {
                    if !is_take {
                        *existing = ops.semiring.add(*existing, value);
                        adds += 1;
                    }
                    inst.output.record(key_hash, false);
                }
                None => {
                    if let Some(token) = &self.engine.cancel {
                        token.charge_outputs(1)?;
                    }
                    if self.record_first_space {
                        state.first_space.insert(key.clone(), state.space.clone());
                    }
                    map.insert(key, value);
                    inst.output.record(key_hash, true);
                }
            },
            OutAcc::Stream { builder, pending } => match pending {
                // Concordance makes equal keys adjacent: reduce in place
                // while the key repeats, push the finished entry when it
                // changes.
                Some((pk, pv)) if *pk == key => {
                    if !is_take {
                        *pv = ops.semiring.add(*pv, value);
                        adds += 1;
                    }
                    inst.output.record(key_hash, false);
                }
                _ => {
                    if let Some(token) = &self.engine.cancel {
                        token.charge_outputs(1)?;
                    }
                    if let Some((pk, pv)) = pending.take() {
                        if pv != zero {
                            builder.push_point(&pk, pv)?;
                        }
                    }
                    *pending = Some((key, value));
                    inst.output.record(key_hash, true);
                }
            },
        }

        let space_id = state.space.clone();
        if muls > 0 {
            *inst.compute.muls.entry(space_id.clone()).or_insert(0) += muls;
        }
        if adds > 0 {
            *inst.compute.adds.entry(space_id).or_insert(0) += adds;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned FNV-1a values: these must never change, or instrument
    /// reports stop being comparable across toolchains and releases.
    #[test]
    fn fnv1a_hash_is_pinned() {
        // Offset basis: hashing nothing.
        assert_eq!(fnv1a_hash(&[]), 0xcbf2_9ce4_8422_2325);
        // Reference values computed from the FNV-1a definition over the
        // little-endian byte expansion of each word.
        assert_eq!(fnv1a_hash(&[0]), 0xa8c7_f832_281a_39c5);
        assert_eq!(fnv1a_hash(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_eq!(fnv1a_hash(&[u64::MAX]), 0x8cf5_1a8b_fca3_883d);
    }

    #[test]
    fn fnv1a_hash_distinguishes_order_and_length() {
        assert_ne!(fnv1a_hash(&[1, 2]), fnv1a_hash(&[2, 1]));
        assert_ne!(fnv1a_hash(&[1]), fnv1a_hash(&[1, 0]));
    }
}
