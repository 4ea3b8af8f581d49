//! Mapping-space exploration (paper §10, future work).
//!
//! The paper positions TeAAL as the middle level of a hierarchical
//! design-space-exploration flow: faster than RTL, higher fidelity than
//! analytical models. This module provides the inner loop of such a flow:
//! enumerate candidate loop orders for one Einsum of a specification,
//! evaluate the candidates, and rank the mappings by the modeled
//! objective. Everything else in the specification (partitioning, formats,
//! architecture, bindings) stays fixed, demonstrating the separation of
//! concerns of Fig. 7.
//!
//! Two search modes share one candidate universe (permutations in Heap
//! order, skipping orders that fail to lower):
//!
//! - [`explore_loop_orders`] — the oracle: run every candidate through
//!   the executable engine on real tensors.
//! - [`explore_fast`] — the two-phase fast path: score every candidate
//!   with the analytical estimator ([`crate::estimate()`]), keep the top-K
//!   within a safety margin of the estimated best, and run only those
//!   survivors through the engine, re-ranked by exact results. Per
//!   candidate the estimator is O(plan size) instead of O(nnz), so large
//!   search spaces cost a handful of engine runs instead of hundreds.
//!
//! Both share one engine-verification step: the same candidate
//! compilation, the `explore.candidate` failpoint, and one search-wide
//! [`CancelToken`] built from [`ExploreConfig::limits`], so a deadline or
//! budget bounds either search and trips it with the structured error.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use teaal_core::TeaalSpec;
use teaal_fibertree::stats::StatsCache;
use teaal_fibertree::{CompressedTensor, TensorData};

use crate::error::SimError;
use crate::estimate::estimate_data;
use crate::limits::{CancelToken, EvalLimits};
use crate::model::Simulator;
use crate::ops::OpTable;
use crate::par;
use crate::pipeline::EvalContext;
use crate::report::SimReport;

/// What to optimize when ranking mappings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Objective {
    /// Modeled execution time (bottleneck analysis).
    #[default]
    Time,
    /// Modeled energy.
    Energy,
    /// DRAM traffic in bytes.
    Traffic,
}

/// One evaluated mapping candidate.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The loop order tried (outermost first).
    pub loop_order: Vec<String>,
    /// Modeled execution time in seconds.
    pub seconds: f64,
    /// Modeled energy in joules.
    pub energy_joules: f64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Per-component busy seconds summed across fusion blocks (the
    /// bottleneck-analysis breakdown behind `seconds`) — what the CLI
    /// prints so a ranking explains *why* a mapping wins.
    pub component_seconds: BTreeMap<String, f64>,
}

/// Builds a [`Candidate`] from one report, folding the per-block
/// component times into a single breakdown.
fn candidate_from(loop_order: Vec<String>, report: &SimReport) -> Candidate {
    let mut component_seconds: BTreeMap<String, f64> = BTreeMap::new();
    for block in &report.blocks {
        for (component, secs) in &block.component_seconds {
            *component_seconds.entry(component.clone()).or_insert(0.0) += secs;
        }
    }
    Candidate {
        loop_order,
        seconds: report.seconds,
        energy_joules: report.energy_joules,
        dram_bytes: report.dram_bytes(),
        component_seconds,
    }
}

impl Candidate {
    /// The candidate's score under `objective` (lower is better).
    pub fn score(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Time => self.seconds,
            Objective::Energy => self.energy_joules,
            Objective::Traffic => self.dram_bytes as f64,
        }
    }
}

/// Configuration for both searches; `top_k` and `margin` apply only to
/// the two-phase [`explore_fast`].
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// What to optimize (every ranking is by this).
    pub objective: Objective,
    /// Maximum number of candidates a search admits: successfully
    /// estimated ones for [`explore_fast`], successfully engine-evaluated
    /// ones for [`explore_loop_orders_with_context`]. Candidates that fail
    /// to lower are skipped, not charged.
    pub budget: usize,
    /// Maximum number of estimated candidates verified by the engine.
    /// The default (12) is sized for flat cost landscapes: when many
    /// mappings measure within a few percent of each other, estimator
    /// error exceeds the spread between candidates and the true winner
    /// can sit a handful of ranks down the estimated order.
    pub top_k: usize,
    /// Safety margin on the estimated best score: only candidates with
    /// `estimate ≤ best_estimate · margin` survive to verification (and
    /// at most `top_k` of them). Raise it when the estimator is expected
    /// to be less faithful (heavy value cancellation, skewed data).
    pub margin: f64,
    /// Worker threads for engine verification (the estimation sweep is
    /// sequential — it is orders of magnitude cheaper).
    pub threads: usize,
    /// Search-wide resource budgets, honoured by both searches. One
    /// [`CancelToken`] is created for the whole search and shared by
    /// every candidate evaluation, so the deadline and step budget bound
    /// the *search*, not each candidate; a trip aborts with the
    /// structured error.
    pub limits: EvalLimits,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            objective: Objective::Time,
            budget: 720,
            top_k: 12,
            margin: 1.5,
            threads: 1,
            limits: EvalLimits::default(),
        }
    }
}

/// Result of a two-phase [`explore_fast`] search.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Engine-verified survivors, re-ranked by *measured* objective
    /// (best first). `candidates[0]` is the search's answer.
    pub candidates: Vec<Candidate>,
    /// Every estimated candidate, ranked by *estimated* objective (best
    /// first) — the full pre-pruning picture, for margin diagnostics.
    pub estimated: Vec<Candidate>,
    /// Executable-engine evaluations performed (the expensive count).
    pub engine_evals: usize,
    /// Analytical estimator evaluations performed.
    pub estimator_evals: usize,
}

/// Explores loop orders for `einsum` within `spec`, evaluating each
/// candidate on `inputs` and returning candidates sorted by `objective`
/// (best first).
///
/// All permutations of the Einsum's derived iteration ranks are tried,
/// until `max_candidates` have been *successfully evaluated* (permutation
/// count grows factorially; 720 covers six ranks exhaustively).
/// Candidates whose loop order fails to lower — e.g. orders incompatible
/// with the fixed partitioning — are skipped and do not consume the
/// budget, so a small `max_candidates` still returns that many valid
/// mappings when they exist later in permutation order.
///
/// # Errors
///
/// Returns [`SimError`] if the base specification fails to lower or if
/// every candidate fails.
pub fn explore_loop_orders(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[impl Clone + Into<TensorData>],
    ops: OpTable,
    objective: Objective,
    max_candidates: usize,
) -> Result<Vec<Candidate>, SimError> {
    let config = ExploreConfig {
        objective,
        budget: max_candidates,
        ..ExploreConfig::default()
    };
    explore_loop_orders_with_context(spec, einsum, inputs, ops, &config, None)
}

/// [`explore_loop_orders`] configured by an [`ExploreConfig`] (its
/// `objective`, `budget` as the success cap, `threads` and `limits`),
/// with an optional shared [`EvalContext`]: candidate specs compile
/// through the context's plan cache and every engine run shares the
/// transform cache, so the search never re-transforms an input it has
/// already prepared. Results are bit-identical with or without a
/// context, and for any thread count: workers claim candidates from a
/// shared queue, but successes count in permutation order.
///
/// # Errors
///
/// As [`explore_loop_orders`], plus the structured deadline, budget or
/// cancellation error when `config.limits` trips mid-search.
pub fn explore_loop_orders_with_context(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[impl Clone + Into<TensorData>],
    ops: OpTable,
    config: &ExploreConfig,
    context: Option<&Arc<EvalContext>>,
) -> Result<Vec<Candidate>, SimError> {
    let orders = candidate_orders(spec, einsum)?;
    let search = Search::new(spec, einsum, ops, config, context);
    let datas = compressed_inputs(inputs)?;
    let refs: Vec<&TensorData> = datas.iter().collect();
    let mut results = search.verify(&orders, config.budget, config.threads, &refs)?;
    if results.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no loop-order candidate lowered and executed successfully".into(),
        }));
    }
    sort_by_score(&mut results, config.objective);
    Ok(results)
}

/// Two-phase pruned search: estimate **all** candidates analytically,
/// keep the [`ExploreConfig::top_k`] best within
/// [`ExploreConfig::margin`] of the estimated optimum, and verify only
/// those survivors on the executable engine (the oracle), re-ranked by
/// exact results.
///
/// The estimator never touches tensor data — per-tensor statistics are
/// computed once (one O(nnz) pass per input, memoized) and every
/// candidate is then scored from statistics alone — so the sweep over
/// hundreds of loop orders costs about as much as a single engine run.
/// Pruning is heuristic: a mapping whose true cost the estimator
/// overstates by more than the margin can be cut. On the four SpMSpM
/// catalog specs the default margin keeps the true winner (pinned by
/// integration tests); widen it for adversarial value distributions.
///
/// # Errors
///
/// As [`explore_loop_orders_with_context`], plus the same error when
/// every survivor fails to execute.
pub fn explore_fast(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[impl Clone + Into<TensorData>],
    ops: OpTable,
    config: &ExploreConfig,
) -> Result<ExploreOutcome, SimError> {
    explore_fast_with_context(spec, einsum, inputs, ops, config, None)
}

/// [`explore_fast`] with an optional shared [`EvalContext`]: the
/// estimation sweep reads per-tensor statistics from the context's
/// [`StatsCache`], candidate specs compile through the plan cache, and
/// the verification phase shares the transform cache — a warm context
/// re-runs the whole search with zero redundant input transforms (pinned
/// by the `pipeline_cache` suite). Results are bit-identical with or
/// without a context.
///
/// # Errors
///
/// As [`explore_fast`].
pub fn explore_fast_with_context(
    spec: &TeaalSpec,
    einsum: &str,
    inputs: &[impl Clone + Into<TensorData>],
    ops: OpTable,
    config: &ExploreConfig,
    context: Option<&Arc<EvalContext>>,
) -> Result<ExploreOutcome, SimError> {
    let orders = candidate_orders(spec, einsum)?;
    let search = Search::new(spec, einsum, ops, config, context);

    // Phase 1: estimate every lowerable candidate from cached statistics.
    let datas = compressed_inputs(inputs)?;
    let refs: Vec<&TensorData> = datas.iter().collect();
    let local_stats;
    let cache: &StatsCache = match context {
        Some(ctx) => ctx.stats(),
        None => {
            local_stats = StatsCache::new();
            &local_stats
        }
    };
    let mut estimated: Vec<Candidate> = Vec::new();
    let mut estimator_evals = 0usize;
    for candidate in &orders {
        if estimated.len() >= config.budget {
            break;
        }
        // Candidate boundary: a tripped search budget aborts between
        // estimates, never mid-way through one.
        if let Some(t) = &search.token {
            t.checkpoint()?;
        }
        let Some(sim) = search.simulator(candidate) else {
            continue;
        };
        estimator_evals += 1;
        let Ok(report) = estimate_data(&sim, &refs, cache) else {
            continue;
        };
        estimated.push(candidate_from(candidate.clone(), &report));
    }
    if estimated.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no loop-order candidate lowered and estimated successfully".into(),
        }));
    }
    sort_by_score(&mut estimated, config.objective);

    // Phase 2: engine-verify the survivors within the safety margin.
    let best = estimated[0].score(config.objective);
    let cutoff = best * config.margin.max(1.0);
    let survivors: Vec<Vec<String>> = estimated
        .iter()
        .take(config.top_k.max(1))
        .filter(|c| c.score(config.objective) <= cutoff || best == 0.0)
        .map(|c| c.loop_order.clone())
        .collect();
    let engine_evals = survivors.len();
    let mut candidates = search.verify(&survivors, survivors.len(), config.threads, &refs)?;
    if candidates.is_empty() {
        return Err(SimError::Spec(teaal_core::SpecError::Validation {
            context: format!("einsum {einsum}"),
            message: "no surviving candidate executed successfully".into(),
        }));
    }
    sort_by_score(&mut candidates, config.objective);

    Ok(ExploreOutcome {
        candidates,
        estimated,
        engine_evals,
        estimator_evals,
    })
}

/// What every candidate evaluation of one search shares.
struct Search<'a> {
    spec: &'a TeaalSpec,
    einsum: &'a str,
    ops: OpTable,
    context: Option<&'a Arc<EvalContext>>,
    /// One token for the whole search: the deadline anchors at creation
    /// and every candidate (estimation or engine) charges the same budget.
    token: Option<CancelToken>,
}

impl<'a> Search<'a> {
    fn new(
        spec: &'a TeaalSpec,
        einsum: &'a str,
        ops: OpTable,
        config: &ExploreConfig,
        context: Option<&'a Arc<EvalContext>>,
    ) -> Self {
        let token = config
            .limits
            .is_limited()
            .then(|| CancelToken::new(&config.limits));
        Search {
            spec,
            einsum,
            ops,
            context,
            token,
        }
    }

    /// The simulator for `spec` with `order` as the Einsum's loop order,
    /// compiled through the context's plan cache when there is one;
    /// `None` when the order fails to lower. Spacetime entries may
    /// reference ranks by name; they stay valid because the rank *set*
    /// is unchanged.
    fn simulator(&self, order: &[String]) -> Option<Simulator> {
        let mut s = self.spec.clone();
        s.mapping
            .loop_order
            .insert(self.einsum.to_string(), order.to_vec());
        match self.context {
            Some(ctx) => ctx.simulator(&s).ok(),
            None => Simulator::new(s).ok(),
        }
    }

    /// Runs `orders` through the engine on `refs` until `max_successes`
    /// succeed, across up to `threads` workers — the verification both
    /// searches share. The candidates fan out through
    /// [`par::fan_out`], whose ordered early stop makes the result the
    /// sequential one for any thread count. A candidate that fails to
    /// lower, execute or panics is skipped, not charged against the
    /// cap; a deadline, budget or cancellation trip aborts the whole
    /// search with that error.
    fn verify(
        &self,
        orders: &[Vec<String>],
        max_successes: usize,
        threads: usize,
        refs: &[&TensorData],
    ) -> Result<Vec<Candidate>, SimError> {
        // The evaluation closure parks a tripped limit here for the
        // caller to propagate, instead of silently skipping the candidate.
        let aborted: Mutex<Option<SimError>> = Mutex::new(None);
        let abort = |e: SimError| {
            aborted
                .lock()
                .expect("abort slot poisoned")
                .get_or_insert(e);
        };
        let eval = |candidate: &[String]| -> Option<Candidate> {
            if let Some(t) = &self.token {
                if let Err(e) = t.checkpoint() {
                    abort(e);
                    return None;
                }
            }
            if teaal_core::failpoint::hit("explore.candidate").is_err() {
                return None;
            }
            let mut sim = self
                .simulator(candidate)?
                .with_ops(self.ops)
                .with_threads(1);
            if let Some(t) = &self.token {
                sim = sim.with_cancel(t.clone());
            }
            match sim.run_data(refs) {
                Ok(report) => Some(candidate_from(candidate.to_vec(), &report)),
                Err(
                    e @ (SimError::DeadlineExceeded { .. }
                    | SimError::BudgetExceeded { .. }
                    | SimError::Cancelled { .. }),
                ) => {
                    abort(e);
                    None
                }
                Err(_) => None,
            }
        };
        let mut successes = 0;
        let results: Vec<Candidate> = par::fan_out(
            orders.len(),
            threads,
            |i| eval(&orders[i]),
            |r| {
                matches!(r, Ok(Some(_))) && {
                    successes += 1;
                    successes >= max_successes
                }
            },
        )
        .into_iter()
        .filter_map(|r| r.ok().flatten())
        .collect();
        match aborted.into_inner().expect("abort slot poisoned") {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

/// The mapper's inputs, compressed once on entry: every candidate then
/// estimates and executes on the same CSF storage.
pub(crate) fn compressed_inputs(
    inputs: &[impl Clone + Into<TensorData>],
) -> Result<Vec<TensorData>, SimError> {
    inputs
        .iter()
        .map(|t| match t.clone().into() {
            TensorData::Owned(t) => Ok(CompressedTensor::from_tensor(&t)?.into()),
            compressed => Ok(compressed),
        })
        .collect()
}

/// All loop-order permutations for `einsum` in Heap order — the shared
/// candidate universe of every search mode.
fn candidate_orders(spec: &TeaalSpec, einsum: &str) -> Result<Vec<Vec<String>>, SimError> {
    let base = Simulator::new(spec.clone())?;
    let plan = base
        .plans()
        .iter()
        .find(|p| p.equation.name() == einsum)
        .ok_or_else(|| SimError::MissingTensor {
            tensor: einsum.to_string(),
        })?;
    let ranks: Vec<String> = plan.loop_ranks.iter().map(|l| l.name.clone()).collect();
    let mut orders: Vec<Vec<String>> = Vec::new();
    let mut order = ranks;
    permute(&mut order, 0, &mut |candidate| {
        orders.push(candidate.to_vec());
    });
    Ok(orders)
}

/// Sorts candidates best-first under `objective`, breaking exact score
/// ties by loop order so the ranking is deterministic regardless of the
/// order candidates were evaluated in (the pruned and exhaustive searches
/// must agree on the winner even when two mappings cost the same).
fn sort_by_score(results: &mut [Candidate], objective: Objective) {
    // `total_cmp`, not `partial_cmp().expect(...)`: a degenerate spec
    // (zero bandwidth/clock) can model a NaN score, which must rank
    // deterministically (worst) instead of panicking mid-sort.
    results.sort_by(|a, b| {
        a.score(objective)
            .total_cmp(&b.score(objective))
            .then_with(|| a.loop_order.cmp(&b.loop_order))
    });
}

/// Heap's algorithm, calling `visit` for every permutation of `items`.
fn permute(items: &mut [String], k: usize, visit: &mut impl FnMut(&[String])) {
    if k == items.len() {
        visit(items);
        return;
    }
    // Recursive Heap variant: stable enough for the small rank counts
    // mappings have (≤ 9 in every spec in this repository).
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teaal_fibertree::{Tensor, TensorBuilder};

    fn base_spec() -> TeaalSpec {
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

    fn inputs() -> Vec<Tensor> {
        let a = TensorBuilder::new("A", &["K", "M"], &[8, 8])
            .entries((0..8).map(|i| (vec![i, (i * 3) % 8], 1.0 + i as f64)))
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["K", "N"], &[8, 8])
            .entries((0..8).map(|i| (vec![i, (i * 5) % 8], 2.0 + i as f64)))
            .build()
            .unwrap();
        vec![a, b]
    }

    #[test]
    fn explores_all_six_permutations_of_three_ranks() {
        let results = explore_loop_orders(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
        )
        .unwrap();
        assert_eq!(results.len(), 6);
        // Sorted best-first.
        for w in results.windows(2) {
            assert!(w[0].seconds <= w[1].seconds);
        }
        // Every candidate is a permutation of {M, N, K}.
        for c in &results {
            let mut lo = c.loop_order.clone();
            lo.sort();
            assert_eq!(lo, vec!["K", "M", "N"]);
        }
    }

    #[test]
    fn candidate_cap_is_respected() {
        let results = explore_loop_orders(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Traffic,
            2,
        )
        .unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn objectives_rank_differently_when_models_disagree() {
        let by_time = explore_loop_orders(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
        )
        .unwrap();
        let by_traffic = explore_loop_orders(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Traffic,
            720,
        )
        .unwrap();
        // Same candidate set either way.
        assert_eq!(by_time.len(), by_traffic.len());
        // Traffic ordering is by dram_bytes.
        for w in by_traffic.windows(2) {
            assert!(w[0].dram_bytes <= w[1].dram_bytes);
        }
    }

    /// SIGMA-shaped spec: flattening (M, K0) leaves B's K0 coverable only
    /// when K1 precedes MK00 in the loop order, so 12 of the 24
    /// permutations fail to lower — including a contiguous block right
    /// after the first 8 successes in Heap order.
    fn partitioning_constrained_spec() -> TeaalSpec {
        TeaalSpec::parse(concat!(
            "einsum:\n",
            "  declaration:\n",
            "    A: [K, M]\n",
            "    B: [K, N]\n",
            "    Z: [M, N]\n",
            "  expressions:\n",
            "    - Z[m, n] = A[k, m] * B[k, n]\n",
            "mapping:\n",
            "  partitioning:\n",
            "    Z:\n",
            "      K: [uniform_shape(4)]\n",
            "      (M, K0): [flatten()]\n",
            "      MK0: [uniform_occupancy(A.4)]\n",
            "  loop-order:\n",
            "    Z: [K1, MK01, MK00, N]\n",
        ))
        .unwrap()
    }

    #[test]
    fn failed_candidates_do_not_consume_the_budget() {
        // Heap order visits 8 lowerable candidates, then 3 that fail to
        // lower, and more lowerable ones after. A budget of 10 must
        // return 10 evaluated candidates — the buggy accounting charged
        // the failures against the budget and returned only 8.
        let results = explore_loop_orders(
            &partitioning_constrained_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            10,
        )
        .unwrap();
        assert_eq!(
            results.len(),
            10,
            "failing candidates must be skipped, not charged against max_candidates"
        );
        // Exhaustively, exactly the 12 valid permutations come back.
        let all = explore_loop_orders(
            &partitioning_constrained_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            720,
        )
        .unwrap();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn threaded_exploration_matches_sequential() {
        // Fanning candidate evaluation across workers must not change the
        // candidate set, scores, or ranking — including when the budget
        // cuts off mid-chunk.
        for budget in [2usize, 10, 720] {
            let seq = explore_loop_orders(
                &partitioning_constrained_spec(),
                "Z",
                &inputs(),
                OpTable::arithmetic(),
                Objective::Time,
                budget,
            )
            .unwrap();
            for threads in [2usize, 4] {
                let par = explore_loop_orders_with_context(
                    &partitioning_constrained_spec(),
                    "Z",
                    &inputs(),
                    OpTable::arithmetic(),
                    &ExploreConfig {
                        threads,
                        budget,
                        ..ExploreConfig::default()
                    },
                    None,
                )
                .unwrap();
                assert_eq!(seq.len(), par.len());
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.loop_order, b.loop_order);
                    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                    assert_eq!(a.energy_joules.to_bits(), b.energy_joules.to_bits());
                    assert_eq!(a.dram_bytes, b.dram_bytes);
                }
            }
        }
    }

    #[test]
    fn exhaustive_search_honours_the_step_budget() {
        let err = explore_loop_orders_with_context(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            &ExploreConfig {
                limits: EvalLimits::default().with_max_engine_steps(10),
                ..ExploreConfig::default()
            },
            None,
        );
        assert!(
            matches!(err, Err(SimError::BudgetExceeded { .. })),
            "a tripped step budget must abort the search: {err:?}"
        );
    }

    #[test]
    fn unknown_einsum_is_an_error() {
        let err = explore_loop_orders(
            &base_spec(),
            "Q",
            &inputs(),
            OpTable::arithmetic(),
            Objective::Time,
            10,
        );
        assert!(err.is_err());
    }

    #[test]
    fn all_candidates_compute_the_same_result() {
        // Mapping changes performance, never the answer (§2.3).
        let spec = base_spec();
        let ins = inputs();
        let mut reference: Option<teaal_fibertree::TensorData> = None;
        let results = explore_loop_orders(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            Objective::Time,
            720,
        )
        .unwrap();
        for c in &results {
            let mut s = spec.clone();
            s.mapping
                .loop_order
                .insert("Z".into(), c.loop_order.clone());
            let data = compressed_inputs(&ins).unwrap();
            let report = Simulator::new(s)
                .unwrap()
                .run_data(&data.iter().collect::<Vec<_>>())
                .unwrap();
            let z = report.final_output().unwrap().clone();
            if let Some(r) = &reference {
                assert_eq!(r.max_abs_diff(&z), 0.0);
            }
            reference = Some(z);
        }
    }
}

#[cfg(test)]
mod fast_tests {
    use super::*;
    use teaal_fibertree::{Tensor, TensorBuilder};

    fn base_spec() -> TeaalSpec {
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

    fn inputs() -> Vec<Tensor> {
        let a = TensorBuilder::new("A", &["K", "M"], &[16, 16])
            .entries((0..48).map(|i| (vec![(i * 7) % 16, (i * 3) % 16], 1.0 + i as f64)))
            .build()
            .unwrap();
        let b = TensorBuilder::new("B", &["K", "N"], &[16, 16])
            .entries((0..48).map(|i| (vec![(i * 5) % 16, (i * 11) % 16], 2.0 + i as f64)))
            .build()
            .unwrap();
        vec![a, b]
    }

    #[test]
    fn fast_search_agrees_with_exhaustive_top1() {
        let spec = base_spec();
        let ins = inputs();
        let exhaustive = explore_loop_orders(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            Objective::Time,
            720,
        )
        .unwrap();
        let fast = explore_fast(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(fast.engine_evals < exhaustive.len());
        assert_eq!(fast.estimated.len(), exhaustive.len());
        // The verified winner scores no worse than the exhaustive winner
        // (loop orders may tie; compare scores, not labels).
        assert!(fast.candidates[0].seconds <= exhaustive[0].seconds + 1e-15);
    }

    #[test]
    fn fast_search_reports_eval_counts() {
        let fast = explore_fast(
            &base_spec(),
            "Z",
            &inputs(),
            OpTable::arithmetic(),
            &ExploreConfig {
                top_k: 2,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert!(fast.engine_evals <= 2);
        assert_eq!(fast.estimator_evals, 6);
        assert!(!fast.candidates.is_empty());
        assert!(fast.candidates.len() <= fast.engine_evals);
    }

    #[test]
    fn fast_search_is_deterministic_across_threads() {
        let spec = base_spec();
        let ins = inputs();
        let seq = explore_fast(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig::default(),
        )
        .unwrap();
        let par = explore_fast(
            &spec,
            "Z",
            &ins,
            OpTable::arithmetic(),
            &ExploreConfig {
                threads: 4,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert_eq!(seq.candidates.len(), par.candidates.len());
        for (a, b) in seq.candidates.iter().zip(&par.candidates) {
            assert_eq!(a.loop_order, b.loop_order);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
        }
    }
}
