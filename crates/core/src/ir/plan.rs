//! Lowering mapped Einsums to executable loop-nest plans.
//!
//! For each Einsum the planner derives, per tensor, the chain of
//! content-preserving transforms (swizzle / flatten / partition) that the
//! mapping implies, infers concordant working rank orders from the loop
//! order (inserting online swizzles on intermediates, §3.2.2), and computes
//! per-access *roles* at every loop level: co-iterate, project a flattened
//! coordinate component, resolve an affine index, or skip.

use std::collections::BTreeSet;

use crate::einsum::Equation;
use crate::error::SpecError;
use crate::spec::mapping::{PartitionOp, SpaceTime};
use crate::spec::TeaalSpec;

use super::rankspace::RankSpace;

/// One tensor-side transform step, applied before the loop nest runs.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanStep {
    /// Reorder ranks to the given order.
    Swizzle(Vec<String>),
    /// Flatten `upper` with the rank below it into `new_name`.
    Flatten {
        /// Top rank of the pair.
        upper: String,
        /// Name of the produced tuple-coordinate rank.
        new_name: String,
    },
    /// Shape-split `rank` into `upper`/`lower` with chunks of `size`.
    SplitShape {
        /// Target rank.
        rank: String,
        /// Chunk width.
        size: u64,
        /// New upper rank name.
        upper: String,
        /// New lower rank name.
        lower: String,
    },
    /// Occupancy-split `rank`; this tensor is the leader and publishes its
    /// boundaries under `(rank, leader)` for followers.
    SplitOccLeader {
        /// Target rank.
        rank: String,
        /// Elements per partition.
        size: usize,
        /// New upper rank name.
        upper: String,
        /// New lower rank name.
        lower: String,
    },
    /// Occupancy-split `rank` adopting the boundaries published by
    /// `leader`.
    SplitOccFollower {
        /// Target rank.
        rank: String,
        /// Leader tensor name.
        leader: String,
        /// Elements per partition (for reporting).
        size: usize,
        /// New upper rank name.
        upper: String,
        /// New lower rank name.
        lower: String,
    },
}

/// How an access participates at one loop level (possibly several descents
/// when one loop rank binds multiple of the tensor's ranks).
#[derive(Clone, Debug, PartialEq)]
pub enum Descent {
    /// The access's next working rank is this loop rank: co-iterate.
    CoIterate,
    /// Look up the loop coordinate's `component` in the access's next
    /// working rank.
    Project {
        /// Tuple component of the loop coordinate to probe with.
        component: usize,
    },
    /// Evaluate the access's affine index expression at `index_pos` from
    /// the bound variables and look it up.
    Affine {
        /// Position of the index expression within the access.
        index_pos: usize,
    },
}

/// Participation of one access across all loop levels.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AccessRoles {
    /// `roles[level]` lists the descents performed at that loop level.
    pub roles: Vec<Vec<Descent>>,
}

/// One loop level of the mapped nest.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopRank {
    /// Derived rank name.
    pub name: String,
    /// `(root rank, coordinate component)` variables bound here (empty for
    /// upper partition ranks).
    pub binds: Vec<(String, usize)>,
    /// Mapped to space (parallel hardware) rather than time.
    pub is_space: bool,
    /// Time stamped by coordinate rather than position.
    pub coord_stamped: bool,
    /// True when no bound root is an output rank (pure reduction level).
    pub reduction: bool,
}

/// The transform pipeline for one input tensor of one Einsum.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorPlan {
    /// Tensor name.
    pub tensor: String,
    /// Rank order the tensor arrives in (its storage `rank-order`).
    pub initial_order: Vec<String>,
    /// Transform steps, applied in order.
    pub steps: Vec<PlanStep>,
    /// Rank order after all steps (concordant with the loop order).
    pub working_order: Vec<String>,
    /// Whether the pipeline reorders data *online* (tensor is an
    /// intermediate produced by an earlier Einsum): costed on a merger.
    pub online_swizzle: bool,
}

/// How the Einsum's output is assembled.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputPlan {
    /// Output tensor name.
    pub tensor: String,
    /// Root ranks in production (loop) order.
    pub produced_order: Vec<String>,
    /// Storage rank order the result must be delivered in.
    pub target_order: Vec<String>,
    /// Whether delivery requires an online swizzle (merge/sort hardware).
    pub online_swizzle: bool,
}

/// The executable plan for one Einsum.
#[derive(Clone, Debug, PartialEq)]
pub struct EinsumPlan {
    /// The equation.
    pub equation: Equation,
    /// Loop levels, outermost first.
    pub loop_ranks: Vec<LoopRank>,
    /// Transform pipelines for the input tensors, leaders before
    /// followers.
    pub tensor_plans: Vec<TensorPlan>,
    /// Participation per RHS access (indexed like `equation.rhs.accesses()`).
    pub access_roles: Vec<AccessRoles>,
    /// Output assembly.
    pub output: OutputPlan,
    /// The derived rank space.
    pub rank_space: RankSpace,
}

impl EinsumPlan {
    /// The plan for the named tensor, if it is an input of this Einsum.
    pub fn tensor_plan(&self, tensor: &str) -> Option<&TensorPlan> {
        self.tensor_plans.iter().find(|p| p.tensor == tensor)
    }

    /// Loop ranks mapped to space.
    pub fn space_ranks(&self) -> Vec<&LoopRank> {
        self.loop_ranks.iter().filter(|l| l.is_space).collect()
    }

    /// The temporal rank names preceding the first spatial rank — the
    /// quantity compared by the second of the fusion criteria (§4.3).
    pub fn temporal_prefix(&self) -> Vec<String> {
        self.loop_ranks
            .iter()
            .take_while(|l| !l.is_space)
            .map(|l| l.name.clone())
            .collect()
    }
}

/// Lowers every Einsum of `spec` to an [`EinsumPlan`], in cascade order.
///
/// # Errors
///
/// Returns [`SpecError`] when the mapping is inconsistent with the cascade
/// (loop orders not covering the iteration space, flatten targets the
/// tensor lacks, ...).
pub fn lower(spec: &TeaalSpec) -> Result<Vec<EinsumPlan>, SpecError> {
    let intermediates: BTreeSet<String> = spec.cascade.intermediates().into_iter().collect();
    spec.cascade
        .equations()
        .iter()
        .map(|eq| lower_einsum(spec, eq, &intermediates))
        .collect()
}

fn lower_einsum(
    spec: &TeaalSpec,
    eq: &Equation,
    intermediates: &BTreeSet<String>,
) -> Result<EinsumPlan, SpecError> {
    let name = eq.name();
    let directives = spec.mapping.partitioning_of(name);
    let rank_space = RankSpace::build(eq, directives)?;

    // Loop order: the mapping's entry, or the leaf ranks in derivation
    // order as a default.
    let loop_order: Vec<String> = match spec.mapping.loop_order_of(name) {
        Some(o) => o.to_vec(),
        None => rank_space.leaf_ranks().to_vec(),
    };
    {
        let mut want: Vec<&String> = rank_space.leaf_ranks().iter().collect();
        let mut got: Vec<&String> = loop_order.iter().collect();
        want.sort();
        got.sort();
        if want != got {
            return Err(SpecError::Validation {
                context: format!("einsum {name}"),
                message: format!(
                    "loop order {loop_order:?} must be a permutation of the derived \
                     iteration ranks {:?}",
                    rank_space.leaf_ranks()
                ),
            });
        }
    }

    let spacetime = spec.mapping.spacetime_of(name).cloned().unwrap_or_default();
    let output_roots: BTreeSet<String> = eq.output_ranks().into_iter().collect();
    let loop_ranks: Vec<LoopRank> = loop_order
        .iter()
        .map(|r| build_loop_rank(r, &rank_space, &spacetime, &output_roots))
        .collect();

    // Tensor plans, leaders first so followers can adopt boundaries.
    let input_tensors = eq.input_tensors();
    let mut plans: Vec<TensorPlan> =
        plan_tensors(spec, eq, &rank_space, &loop_order, intermediates)?;
    let leader_names: BTreeSet<String> = plans
        .iter()
        .flat_map(|p| {
            p.steps.iter().filter_map(|s| match s {
                PlanStep::SplitOccFollower { leader, .. } => Some(leader.clone()),
                _ => None,
            })
        })
        .collect();
    plans.sort_by_key(|p| {
        (
            !leader_names.contains(&p.tensor),
            input_tensors
                .iter()
                .position(|t| *t == p.tensor)
                .unwrap_or(usize::MAX),
        )
    });

    // Access roles.
    let accesses = eq.rhs.accesses();
    let mut access_roles = Vec::with_capacity(accesses.len());
    for access in &accesses {
        let plan = plans
            .iter()
            .find(|p| p.tensor == access.tensor)
            .expect("every access has a tensor plan");
        access_roles.push(compute_roles(
            spec,
            eq,
            access,
            plan,
            &loop_ranks,
            &rank_space,
        )?);
    }

    // Output plan.
    let mut produced_order = Vec::new();
    for l in &loop_ranks {
        for (root, _) in &l.binds {
            if output_roots.contains(root) && !produced_order.contains(root) {
                produced_order.push(root.clone());
            }
        }
    }
    let target_order = spec
        .rank_order_of(name)
        .unwrap_or_else(|| eq.output_ranks());
    let online_swizzle = produced_order != target_order;
    let output = OutputPlan {
        tensor: name.to_string(),
        produced_order,
        target_order,
        online_swizzle,
    };

    Ok(EinsumPlan {
        equation: eq.clone(),
        loop_ranks,
        tensor_plans: plans,
        access_roles,
        output,
        rank_space,
    })
}

fn build_loop_rank(
    rank: &str,
    rank_space: &RankSpace,
    spacetime: &SpaceTime,
    output_roots: &BTreeSet<String>,
) -> LoopRank {
    let binds = rank_space.bindings_of(rank);
    let is_space = spacetime.space.iter().any(|s| s.rank == rank);
    let coord_stamped = spacetime
        .time
        .iter()
        .chain(spacetime.space.iter())
        .any(|s| s.rank == rank && s.coord_stamped);
    let reduction = !binds.is_empty() && binds.iter().all(|(root, _)| !output_roots.contains(root));
    LoopRank {
        name: rank.to_string(),
        binds,
        is_space,
        coord_stamped,
        reduction,
    }
}

/// Plans all input tensors of one Einsum together: partitioning decisions
/// (in particular leader-follower adoption) depend on every tensor's
/// current rank context, not just its own.
fn plan_tensors(
    spec: &TeaalSpec,
    eq: &Equation,
    rank_space: &RankSpace,
    loop_order: &[String],
    intermediates: &BTreeSet<String>,
) -> Result<Vec<TensorPlan>, SpecError> {
    let name = eq.name();
    struct St {
        tensor: String,
        initial: Vec<String>,
        cur: Vec<String>,
        steps: Vec<PlanStep>,
        affine: bool,
    }
    let mut states: Vec<St> = Vec::new();
    for tensor in eq.input_tensors() {
        let initial_order = spec
            .rank_order_of(&tensor)
            .ok_or_else(|| SpecError::Lowering {
                einsum: name.to_string(),
                message: format!("tensor {tensor} has no declaration or rank-order"),
            })?;
        let affine = eq
            .rhs
            .accesses()
            .iter()
            .filter(|a| a.tensor == tensor)
            .any(|a| a.indices.iter().any(|ix| !ix.is_simple()));
        states.push(St {
            tensor,
            initial: initial_order.clone(),
            cur: initial_order,
            steps: Vec::new(),
            affine,
        });
    }

    for d in spec.mapping.partitioning_of(name) {
        match &d.target {
            crate::spec::mapping::PartitionTarget::Tuple(comps) => {
                let flat = d.target.flattened_name();
                for st in states.iter_mut().filter(|s| !s.affine) {
                    if !comps.iter().all(|c| st.cur.contains(c)) {
                        continue;
                    }
                    // Bring the components adjacent, in tuple order, at
                    // the position of the first occurring component.
                    let pos = st
                        .cur
                        .iter()
                        .position(|r| comps.contains(r))
                        .expect("components exist");
                    let mut desired: Vec<String> = st
                        .cur
                        .iter()
                        .filter(|r| !comps.contains(r))
                        .cloned()
                        .collect();
                    for (i, c) in comps.iter().enumerate() {
                        desired.insert((pos + i).min(desired.len()), c.clone());
                    }
                    if desired != st.cur {
                        st.steps.push(PlanStep::Swizzle(desired.clone()));
                        st.cur = desired;
                    }
                    st.steps.push(PlanStep::Flatten {
                        upper: comps[0].clone(),
                        new_name: flat.clone(),
                    });
                    let fpos = st
                        .cur
                        .iter()
                        .position(|r| r == &comps[0])
                        .expect("swizzled adjacent");
                    st.cur.splice(fpos..fpos + comps.len(), [flat.clone()]);
                }
            }
            crate::spec::mapping::PartitionTarget::Rank(r) => {
                let chain = rank_space
                    .split_chain(r)
                    .ok_or_else(|| SpecError::Lowering {
                        einsum: name.to_string(),
                        message: format!("no split chain recorded for rank {r}"),
                    })?;
                // Leader of the first occupancy op (if any) and the rank
                // context above the split in the leader's current order.
                let first_leader = d.ops.iter().find_map(|op| match op {
                    PartitionOp::UniformOccupancy { leader, .. } => Some(leader.clone()),
                    _ => None,
                });
                let leader_ctx: Option<Vec<String>> = first_leader.as_ref().and_then(|l| {
                    states.iter().find(|s| &s.tensor == l).and_then(|s| {
                        s.cur
                            .iter()
                            .position(|x| x == r)
                            .map(|p| s.cur[..p].to_vec())
                    })
                });
                for st in states.iter_mut().filter(|s| !s.affine) {
                    let Some(pos) = st.cur.iter().position(|x| x == r) else {
                        continue;
                    };
                    // Occupancy splits only apply to the leader itself and
                    // to followers whose rank sits in the same context;
                    // other tensors project at the bottom rank instead.
                    if let Some(leader) = &first_leader {
                        let adopts =
                            &st.tensor == leader || leader_ctx.as_deref() == Some(&st.cur[..pos]);
                        if !adopts {
                            continue;
                        }
                    }
                    let n = d.ops.len();
                    for (i, op) in d.ops.iter().enumerate() {
                        let target_rank = if i == 0 {
                            r.clone()
                        } else {
                            format!("{r}{}", n - i)
                        };
                        let upper = chain[i].clone();
                        let lower = format!("{r}{}", n - i - 1);
                        let step = match op {
                            PartitionOp::UniformShape(size) => PlanStep::SplitShape {
                                rank: target_rank.clone(),
                                size: *size,
                                upper,
                                lower,
                            },
                            PartitionOp::UniformOccupancy { leader, size } => {
                                if leader == &st.tensor {
                                    PlanStep::SplitOccLeader {
                                        rank: target_rank.clone(),
                                        size: *size,
                                        upper,
                                        lower,
                                    }
                                } else {
                                    PlanStep::SplitOccFollower {
                                        rank: target_rank.clone(),
                                        leader: leader.clone(),
                                        size: *size,
                                        upper,
                                        lower,
                                    }
                                }
                            }
                            PartitionOp::Flatten => {
                                unreachable!("rank targets exclude flatten")
                            }
                        };
                        st.steps.push(step);
                    }
                    let mut names = chain.clone();
                    names.push(format!("{r}0"));
                    // chain already includes the bottom name; dedup the
                    // duplicate tail.
                    names.dedup();
                    st.cur.splice(pos..=pos, names);
                }
            }
        }
    }

    // Concordant working order per tensor: consume loop ranks in order,
    // matching either the derived rank itself or (at bottom ranks) a root
    // projection. Affine tensors stay as lookup tables.
    let mut out = Vec::new();
    for st in states {
        if st.affine {
            out.push(TensorPlan {
                tensor: st.tensor,
                initial_order: st.initial.clone(),
                steps: Vec::new(),
                working_order: st.initial,
                online_swizzle: false,
            });
            continue;
        }
        let mut remaining = st.cur.clone();
        let mut working = Vec::new();
        for l in loop_order {
            if let Some(p) = remaining.iter().position(|r| r == l) {
                working.push(remaining.remove(p));
                continue;
            }
            if rank_space.is_bottom(l) {
                for (root, _) in rank_space.bindings_of(l) {
                    if let Some(p) = remaining
                        .iter()
                        .position(|r| *r == root || rank_space.roots_of(r) == vec![root.clone()])
                    {
                        working.push(remaining.remove(p));
                    }
                }
            }
        }
        if !remaining.is_empty() {
            return Err(SpecError::Lowering {
                einsum: name.to_string(),
                message: format!(
                    "tensor {} ranks {remaining:?} are not covered by the loop order \
                     {loop_order:?}",
                    st.tensor
                ),
            });
        }
        let mut cur = st.cur;
        let mut steps = st.steps;
        if working != cur {
            steps.push(PlanStep::Swizzle(working.clone()));
            cur = working;
        }
        // A reorder of an intermediate tensor happens online (merge/sort
        // hardware); inputs are swizzled offline.
        let online_swizzle = intermediates.contains(&st.tensor)
            && steps.iter().any(|s| matches!(s, PlanStep::Swizzle(_)));
        out.push(TensorPlan {
            tensor: st.tensor,
            initial_order: st.initial,
            steps,
            working_order: cur,
            online_swizzle,
        });
    }
    Ok(out)
}

fn compute_roles(
    spec: &TeaalSpec,
    eq: &Equation,
    access: &crate::einsum::TensorAccess,
    plan: &TensorPlan,
    loop_ranks: &[LoopRank],
    rank_space: &RankSpace,
) -> Result<AccessRoles, SpecError> {
    let mut roles = vec![Vec::new(); loop_ranks.len()];
    let affine = access.indices.iter().any(|ix| !ix.is_simple());
    if affine {
        // Each index expression resolves at the loop level where its last
        // variable becomes bound.
        let mut bound: BTreeSet<String> = BTreeSet::new();
        let mut next_index = 0usize;
        for (li, l) in loop_ranks.iter().enumerate() {
            for (root, _) in &l.binds {
                bound.insert(root.to_lowercase());
            }
            while next_index < access.indices.len() {
                let ix = &access.indices[next_index];
                if ix.vars.iter().all(|v| bound.contains(v)) {
                    roles[li].push(Descent::Affine {
                        index_pos: next_index,
                    });
                    next_index += 1;
                } else {
                    break;
                }
            }
        }
        if next_index != access.indices.len() {
            return Err(SpecError::Lowering {
                einsum: eq.name().to_string(),
                message: format!(
                    "affine access {access} has indices never bound by the loop order"
                ),
            });
        }
        return Ok(AccessRoles { roles });
    }

    // Simple accesses walk their working order.
    let _ = spec;
    let mut ptr = 0usize;
    for (li, l) in loop_ranks.iter().enumerate() {
        loop {
            if ptr >= plan.working_order.len() {
                break;
            }
            let next = &plan.working_order[ptr];
            if next == &l.name {
                roles[li].push(Descent::CoIterate);
                ptr += 1;
                // A co-iterated rank is the loop driver; nothing else
                // descends at this level for this access.
                break;
            }
            // Projection: the loop rank binds the root this rank covers.
            let next_roots = rank_space.roots_of(next);
            let single_root = if next_roots.is_empty() {
                next.clone() // tensor-private rank name equals a root rank
            } else if next_roots.len() == 1 {
                next_roots[0].clone()
            } else {
                break;
            };
            match l.binds.iter().find(|(root, _)| *root == single_root) {
                Some((_, component)) => {
                    roles[li].push(Descent::Project {
                        component: *component,
                    });
                    ptr += 1;
                    // Multiple ranks may resolve at one bottom rank.
                    continue;
                }
                None => break,
            }
        }
    }
    if ptr != plan.working_order.len() {
        return Err(SpecError::Lowering {
            einsum: eq.name().to_string(),
            message: format!(
                "tensor {} working ranks {:?} not fully consumed by loop order",
                plan.tensor,
                &plan.working_order[ptr..]
            ),
        });
    }
    Ok(AccessRoles { roles })
}
