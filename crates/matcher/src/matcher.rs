//! High-level graph pattern matching: the full pipeline of §4
//! (retrieval → local pruning → global refinement → ordered search),
//! with per-step instrumentation for the §5 experiments.

use crate::feasible::{
    estimated_access, feasible_mates_access_par, retrieve_nodes, search_space_ln, AccessPath,
    LocalPruning, NodeMates,
};
use crate::index::GraphIndex;
use crate::order::{estimate_join_sizes, optimize_order, GammaMode, SearchOrder};
use crate::pattern::Pattern;
use crate::plan::{decide_refine_level, diverges, plan_key, CompiledPlan, Planner};
use crate::refine::{estimated_refine_cost, refine_levels, RefineStats};
use crate::search::{search_indexed_with_checks, EdgeChecks, SearchConfig, SearchOutcome};
use gql_core::plan::ShapeFeedback;
use gql_core::{ArgValue, EdgeId, ExplainNode, Graph, NodeId, Span, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global refinement setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineLevel {
    /// No refinement.
    Off,
    /// A fixed number of iterations.
    Fixed(usize),
    /// "The maximum refinement level ℓ is set as the size of the query"
    /// (§5.1) — the paper's default.
    #[default]
    QuerySize,
    /// Cost-based: consult the planner's feedback statistics and skip
    /// refinement when the last run of this motif shape removed (almost)
    /// nothing (see [`crate::plan::decide_refine_level`]). Cold queries
    /// — and runs without a [`MatchOptions::planner`] — behave like
    /// [`RefineLevel::QuerySize`]. Refinement only ever removes
    /// non-viable candidates, so this decision cannot change results.
    Auto,
}

/// Configuration of the matching pipeline. The defaults are the paper's
/// recommended practical combination: "retrieval by profiles, followed by
/// refinement, and then search with an optimized order."
#[derive(Debug, Clone)]
pub struct MatchOptions {
    /// Local pruning strategy (§4.2).
    pub pruning: LocalPruning,
    /// Global refinement level (§4.3).
    pub refine: RefineLevel,
    /// Whether to run the §4.4 search-order optimizer (else declaration
    /// order is used — the experiments' "search w/o opt. order").
    pub optimize_order: bool,
    /// γ estimation mode for the cost model.
    pub gamma: GammaMode,
    /// Return all mappings or just the first.
    pub exhaustive: bool,
    /// Cap on reported mappings (the paper kills >1000-hit queries).
    pub max_matches: usize,
    /// Wall-clock budget for the search phase.
    pub time_limit: Option<Duration>,
    /// Worker threads for retrieval and search: `1` is the classic
    /// sequential pipeline, `0` means one worker per available core.
    /// Output is identical for every setting.
    pub threads: usize,
    /// Whether to recompute the node-attribute baseline search space for
    /// [`SpaceReport`] ratios. The experiments need it; hot paths
    /// (engine σ, first-match lookups) can skip the redundant
    /// `feasible_mates` pass, leaving `baseline_ln` as NaN.
    pub report_baseline_space: bool,
    /// Telemetry handle: when set, every phase runs under one span that
    /// records its duration and logical counters into the handle's
    /// [`Obs`](gql_core::Obs) registry, emits trace events (per phase
    /// and per pattern node / refine level / search chunk, each on the
    /// thread that did the work), and builds the `EXPLAIN ANALYZE` tree
    /// ([`MatchReport::explain`]) — whichever of the three the handle
    /// has on. `None` (the default) keeps every kernel on its
    /// unobserved path. Registries and trace buffers are shared, not
    /// per-query: pass the same handle across calls to aggregate.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Shared planner: when set, compiled plans (search order, γ
    /// estimates, per-edge checks, refinement decision) are cached
    /// across calls and execution feedback is recorded for later
    /// plannings. `None` (the default) re-plans from scratch each call.
    /// Cached plans are validated against the run's observed candidate
    /// sizes before reuse, so results are byte-identical either way.
    pub planner: Option<Arc<Planner>>,
    /// Graph scope for plan-cache keys and feedback slots: the ordinal
    /// of this graph within its collection. σ evaluates a collection's
    /// graphs concurrently; distinct scopes keep their plans and
    /// statistics (which differ per graph) disjoint and deterministic.
    pub plan_graph: u64,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            pruning: LocalPruning::Profiles { radius: 1 },
            refine: RefineLevel::QuerySize,
            optimize_order: true,
            gamma: GammaMode::default(),
            exhaustive: true,
            max_matches: usize::MAX,
            time_limit: None,
            threads: 1,
            report_baseline_space: true,
            telemetry: None,
            planner: None,
            plan_graph: 0,
        }
    }
}

impl MatchOptions {
    /// The experiments' "Baseline": retrieval by node attributes, no
    /// refinement, no order optimization.
    pub fn baseline() -> Self {
        MatchOptions {
            pruning: LocalPruning::NodeAttributes,
            refine: RefineLevel::Off,
            optimize_order: false,
            ..MatchOptions::default()
        }
    }

    /// The experiments' "Optimized": profiles + refinement + ordering.
    pub fn optimized() -> Self {
        MatchOptions::default()
    }
}

/// Wall-clock timings of the pipeline steps (Figure 4.21a / 4.22b).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Feasible-mate retrieval + local pruning.
    pub retrieve: Duration,
    /// Global refinement.
    pub refine: Duration,
    /// Search-order optimization.
    pub order: Duration,
    /// DFS search.
    pub search: Duration,
}

impl StepTimings {
    /// Total across all steps.
    pub fn total(&self) -> Duration {
        self.retrieve + self.refine + self.order + self.search
    }
}

/// Search-space sizes (natural log) after each phase — the raw data for
/// the reduction-ratio plots (Figures 4.20 / 4.22a).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaceReport {
    /// `ln` of the baseline space (retrieval by node attributes).
    /// NaN when [`MatchOptions::report_baseline_space`] was off (the
    /// ratio methods then return NaN too).
    pub baseline_ln: f64,
    /// `ln` after local pruning.
    pub local_ln: f64,
    /// `ln` after global refinement.
    pub refined_ln: f64,
}

impl SpaceReport {
    /// `log10` reduction ratio of the locally pruned space.
    pub fn local_ratio_log10(&self) -> f64 {
        (self.local_ln - self.baseline_ln) / std::f64::consts::LN_10
    }

    /// `log10` reduction ratio of the refined space.
    pub fn refined_ratio_log10(&self) -> f64 {
        (self.refined_ln - self.baseline_ln) / std::f64::consts::LN_10
    }
}

/// What the planner did for one run — populated when a
/// [`MatchOptions::planner`] is attached or EXPLAIN was requested.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanInfo {
    /// The compiled plan came from the cache (and its candidate-size
    /// expectations were validated against this run's actuals).
    pub cache_hit: bool,
    /// A cached plan's expectations diverged beyond
    /// [`crate::plan::REPLAN_DIVERGENCE`] and the entry was re-planned
    /// from the observed sizes.
    pub replanned: bool,
    /// The cost-based [`RefineLevel::Auto`] decision skipped refinement.
    pub refine_skipped: bool,
    /// Estimated partial-mapping cardinality after each join of the
    /// order (Definition 4.12), aligned with [`MatchReport::order`].
    pub est_join_sizes: Vec<f64>,
    /// Expected final match count: the static cost-model estimate,
    /// corrected by the observed-vs-estimated ratio of the previous run
    /// of this motif shape when feedback exists.
    pub est_matches: f64,
    /// Estimated refinement work (candidate pairs × level) the chosen
    /// refinement level could spend.
    pub est_refine_checks: f64,
    /// Number of prior feedback-recorded runs of this motif shape.
    pub feedback_runs: u64,
}

/// Full result of a matching run.
#[derive(Debug, Clone, Default)]
pub struct MatchReport {
    /// Node mappings (pattern node index → data node).
    pub mappings: Vec<Vec<NodeId>>,
    /// Edge bindings parallel to `mappings`.
    pub edge_bindings: Vec<Vec<EdgeId>>,
    /// Search-space accounting.
    pub spaces: SpaceReport,
    /// Step timings.
    pub timings: StepTimings,
    /// Refinement counters.
    pub refine_stats: RefineStats,
    /// The search order used.
    pub order: Vec<usize>,
    /// DFS extension attempts.
    pub search_steps: u64,
    /// DFS extension attempts rejected by `Check`.
    pub search_backtracks: u64,
    /// True if the search hit its deadline.
    pub timed_out: bool,
    /// The `EXPLAIN ANALYZE` operator tree for this run, present iff
    /// [`MatchOptions::telemetry`] has explain on.
    pub explain: Option<ExplainNode>,
    /// Planner outcome for this run (cache hit / re-plan / refinement
    /// decision plus cost-model estimates), present when a planner was
    /// attached or EXPLAIN was requested.
    pub plan: Option<PlanInfo>,
}

/// Runs the full §4 pipeline for `pattern` against `g`.
///
/// `index` must have been built from `g`; reuse it across queries (that
/// is its point). See [`GraphIndex::build_with_profiles`].
///
/// Each phase runs under one [`Span`] on [`MatchOptions::telemetry`]:
/// the span is the phase's stopwatch ([`StepTimings`]) and, when a
/// handle is attached, the one place its duration, counters, trace
/// events and EXPLAIN node are recorded. Counters aggregate across
/// queries sharing the registry; all of them are deterministic for
/// exhaustive runs at any thread count (capped/early-exit parallel runs
/// may legitimately report more `search.steps`, as documented on
/// [`SearchOutcome::steps`]).
pub fn match_pattern(
    pattern: &Pattern,
    g: &Graph,
    index: &GraphIndex,
    opts: &MatchOptions,
) -> MatchReport {
    let mut report = MatchReport::default();
    let tel = opts.telemetry.as_deref();

    // Phase 1: feasible mates + local pruning (lines 1–4 of Alg. 4.1).
    // With telemetry attached, the stats-collecting retrieval runs each
    // pattern node under its own span (on whichever worker ran it) and
    // attributes every pruned candidate to signature vs. exact test;
    // without it the branch-free kernel runs.
    let mut retrieve = Span::timed(tel, "match.retrieve", "match");
    let (mut mates, access) = match tel {
        None => feasible_mates_access_par(pattern, g, index, opts.pruning, opts.threads),
        Some(t) => {
            let around = |u: NodeId| {
                let mut node = Span::phase(Some(t), "retrieve.node", "match").at(u.index());
                move |(_, s, a): &NodeMates| {
                    if node.recording() {
                        // Access-path decision: which retrieval strategy
                        // ran for this node, what the label bucket held,
                        // how many ids the index probe produced, and what
                        // the planner statistics had estimated beforehand.
                        node.arg("path", ArgValue::Str(a.path.name().to_string()));
                        node.arg("bucket", ArgValue::UInt(a.bucket));
                        node.arg("probed", ArgValue::UInt(a.probed));
                        let est = estimated_access(pattern, index, u);
                        node.arg("est_candidates", ArgValue::UInt(est));
                        node.arg("candidates", ArgValue::UInt(s.candidates));
                        node.arg("sig_rejected", ArgValue::UInt(s.sig_rejected));
                        node.arg("exact_rejected", ArgValue::UInt(s.exact_rejected));
                        node.arg("kept", ArgValue::UInt(s.kept));
                    }
                    node.finish()
                }
            };
            let (m, a, agg, nodes) =
                retrieve_nodes(pattern, g, index, opts.pruning, opts.threads, around);
            let elapsed = retrieve.stop();
            for node in nodes {
                retrieve.child(node);
            }
            retrieve.count("retrieve.candidates", agg.candidates);
            retrieve.count("retrieve.sig_rejected", agg.sig_rejected);
            retrieve.count("retrieve.exact_rejected", agg.exact_rejected);
            retrieve.count("retrieve.kept", agg.kept);
            for access in &a {
                let key = match access.path {
                    AccessPath::BucketScan => "retrieve.bucket_scan",
                    AccessPath::IndexProbe => "retrieve.index_probe",
                    AccessPath::ProbeResidual => "retrieve.residual_scan",
                };
                retrieve.count(key, 1);
            }
            if retrieve.recording() {
                retrieve.arg("strategy", ArgValue::Str(format!("{:?}", opts.pruning)));
                retrieve.arg("candidates", ArgValue::UInt(agg.candidates));
                retrieve.arg("kept", ArgValue::UInt(agg.kept));
                if agg.candidates > 0 {
                    let pruned = 1.0 - agg.kept as f64 / agg.candidates as f64;
                    retrieve.arg("pruned_ratio", ArgValue::Float(pruned));
                }
                retrieve.arg("ms", ms(elapsed));
            }
            (m, a)
        }
    };
    report.timings.retrieve = retrieve.stop();
    let retrieve = retrieve.finish();
    report.spaces.local_ln = search_space_ln(&mates);
    // Baseline space for ratio reporting: recompute only if a different
    // strategy was used AND the caller wants the ratios.
    report.spaces.baseline_ln = if opts.pruning == LocalPruning::NodeAttributes {
        report.spaces.local_ln
    } else if opts.report_baseline_space {
        search_space_ln(
            &feasible_mates_access_par(
                pattern,
                g,
                index,
                LocalPruning::NodeAttributes,
                opts.threads,
            )
            .0,
        )
    } else {
        f64::NAN
    };

    // Planner: compute the cache key and look up a compiled plan. The
    // cache is pure memoization — a hit's order is only trusted after
    // its stored candidate sizes are validated against this run's
    // actuals (see `crate::plan` for the determinism contract).
    let planner = opts.planner.as_deref();
    let key = planner.map(|pl| plan_key(pattern, opts, pl.generation()));
    let cached: Option<Arc<CompiledPlan>> = match (planner, key) {
        (Some(pl), Some(k)) => {
            let hit = pl.lookup(&k);
            if let Some(t) = tel {
                let outcome = if hit.is_some() { "hits" } else { "misses" };
                t.count(&format!("planner.cache.{outcome}"), 1);
            }
            hit
        }
        _ => None,
    };
    let feedback: Option<ShapeFeedback> = match (planner, key) {
        (Some(pl), Some(k)) => pl.shape_feedback(k.shape, k.graph_scope),
        _ => None,
    };
    let candidate_space: Option<u64> = planner.map(|_| mates.iter().map(|m| m.len() as u64).sum());
    let want_plan_info = planner.is_some() || tel.is_some_and(Telemetry::explains);

    // Phase 2: joint reduction (§4.3). The refinement decision is
    // always resolved from the *latest* feedback (`Auto` flips to skip
    // once a run shows the pruning yield doesn't pay; explicit levels
    // resolve trivially). A cached plan compiled under a different
    // decision simply fails its candidate-size validation below and the
    // order is recomputed from actuals — results are unaffected.
    let (level, refine_skipped) =
        decide_refine_level(pattern.node_count(), opts.refine, feedback.as_ref());
    let est_refine_checks = if want_plan_info {
        estimated_refine_cost(&mates, level)
    } else {
        0.0
    };
    let mut refine = Span::timed(tel, "match.refine", "match");
    if refine_skipped {
        refine.count("planner.refine_skipped", 1);
    }
    let (stats, levels) =
        refine_levels(pattern, index.csr(), &mut mates, level, opts.threads, |l| {
            let mut lvl = Span::phase(tel, "refine.level", "match").at(l);
            move |checks, removed| {
                if let Some(t) = tel {
                    t.count(&format!("refine.removed.l{l}"), removed);
                }
                lvl.arg("removed", ArgValue::UInt(removed));
                lvl.trace_arg("checks", ArgValue::UInt(checks));
                lvl.finish()
            }
        });
    report.refine_stats = stats;
    for node in levels {
        refine.child(Some(node));
    }
    report.timings.refine = refine.stop();
    report.spaces.refined_ln = search_space_ln(&mates);
    let rs = &report.refine_stats;
    refine.count("refine.iterations", rs.iterations as u64);
    refine.count("refine.bipartite_checks", rs.bipartite_checks);
    refine.count("refine.removed", rs.removed);
    if refine.recording() {
        refine.arg("requested", ArgValue::Str(format!("{:?}", opts.refine)));
        refine.arg("iterations", ArgValue::UInt(rs.iterations as u64));
        refine.arg("bipartite_checks", ArgValue::UInt(rs.bipartite_checks));
        refine.arg("removed", ArgValue::UInt(rs.removed));
        if want_plan_info {
            if refine_skipped {
                refine.arg("skipped_by_planner", ArgValue::Bool(true));
            }
            refine.arg("est_checks", ArgValue::Float(est_refine_checks));
        }
        refine.arg("ms", ms(report.timings.refine));
        refine.trace_arg("level", ArgValue::UInt(level as u64));
    }
    let refine = refine.finish();

    // Phase 3: search order (§4.4). A validated cache hit reuses the
    // stored order (and estimates) wholesale. On any size mismatch the
    // order is recomputed from the observed sizes — exactly what the
    // unplanned path computes, since the greedy optimizer is a pure
    // function of (pattern, candidate sizes, static stats) — so results
    // stay byte-identical whether or not the plan was stale.
    let mut order_span = Span::timed(tel, "match.order", "match");
    let refined_sizes: Vec<u32> = if planner.is_some() {
        mates.iter().map(|m| m.len() as u32).collect()
    } else {
        Vec::new()
    };
    let compute_order = |mates: &[Vec<NodeId>]| {
        if opts.optimize_order {
            optimize_order(pattern, mates, Some(index.stats()), opts.gamma)
        } else {
            SearchOrder {
                order: (0..pattern.node_count()).collect(),
                estimated_cost: 0.0,
            }
        }
    };
    let mut plan_valid = false;
    let mut replanned = false;
    let order = match &cached {
        Some(plan) if plan.refined_sizes == refined_sizes => {
            plan_valid = true;
            SearchOrder {
                order: plan.order.clone(),
                estimated_cost: plan.estimated_cost,
            }
        }
        Some(plan) => {
            // Estimate divergence detected mid-pipeline: the candidate
            // sizes this plan was compiled for no longer hold. Beyond
            // the divergence factor the entry is re-planned below;
            // either way this run uses an order computed from the
            // actuals.
            if diverges(&plan.refined_sizes, &refined_sizes) {
                replanned = true;
                order_span.count("planner.replans", 1);
            }
            compute_order(&mates)
        }
        None => compute_order(&mates),
    };
    report.timings.order = order_span.stop();
    let order_cost = order.estimated_cost;
    report.order = order.order;
    let est_join_sizes: Vec<f64> = if want_plan_info {
        match &cached {
            Some(plan) if plan_valid => plan.est_join_sizes.clone(),
            _ => estimate_join_sizes(
                pattern,
                &mates,
                &report.order,
                Some(index.stats()),
                opts.gamma,
            ),
        }
    } else {
        Vec::new()
    };
    // Surface what the planner did (cache hit / re-plan / refinement
    // decision plus cost-model estimates).
    if want_plan_info {
        let est_static = est_join_sizes.last().copied().unwrap_or(0.0);
        let correction = feedback.as_ref().and_then(|f| f.cardinality_error());
        report.plan = Some(PlanInfo {
            cache_hit: cached.is_some(),
            replanned,
            refine_skipped,
            est_join_sizes: est_join_sizes.clone(),
            est_matches: correction.map_or(est_static, |c| est_static * c),
            est_refine_checks,
            feedback_runs: feedback.as_ref().map_or(0, |f| f.runs),
        });
    }
    if order_span.recording() {
        order_span.arg("optimized", ArgValue::Bool(opts.optimize_order));
        let order: Vec<String> = report.order.iter().map(|u| u.to_string()).collect();
        order_span.arg("order", ArgValue::Str(order.join(",")));
        if let Some(info) = &report.plan {
            // Plan-cache provenance (a hit skipped §4.4 entirely) and the
            // estimated-vs-actual cardinality of each join of the order.
            order_span.arg("plan_cached", ArgValue::Bool(info.cache_hit));
            if info.replanned {
                order_span.arg("replanned", ArgValue::Bool(true));
            }
            order_span.arg("feedback_runs", ArgValue::UInt(info.feedback_runs));
            if let Some(t) = tel.filter(|t| t.explains()) {
                for (i, &u) in report.order.iter().enumerate() {
                    let mut join = Span::node(t, "join").at(u);
                    if let Some(&est) = info.est_join_sizes.get(i) {
                        join.arg("est_size", ArgValue::Float(est));
                    }
                    join.arg("candidates", ArgValue::UInt(mates[u].len() as u64));
                    order_span.child(join.finish());
                }
            }
        }
        order_span.arg("ms", ms(report.timings.order));
    }
    let order_node = order_span.finish();

    // Phase 4: DFS search (Alg. 4.1 lines 7–26).
    let cfg = SearchConfig {
        exhaustive: opts.exhaustive,
        max_matches: opts.max_matches,
        deadline: opts.time_limit.map(|d| Instant::now() + d),
        threads: opts.threads,
        trace: opts.telemetry.clone(),
    };
    // Per-edge checks: reuse the cached plan's (valid for this pattern
    // and index generation regardless of size drift), build them once
    // here on a planner miss, or let the search compile its own on the
    // unplanned path — identical checks in every case.
    let fresh_checks: Option<EdgeChecks> =
        (planner.is_some() && cached.is_none()).then(|| EdgeChecks::build(pattern, index));
    let checks_ref: Option<&EdgeChecks> =
        cached.as_ref().map(|p| &p.checks).or(fresh_checks.as_ref());
    let mut search = Span::timed(tel, "match.search", "match");
    let SearchOutcome {
        mappings,
        edge_bindings,
        steps,
        backtracks,
        timed_out,
    } = search_indexed_with_checks(
        pattern,
        g,
        Some(index),
        checks_ref,
        &mates,
        &report.order,
        &cfg,
    );
    report.timings.search = search.stop();
    report.mappings = mappings;
    report.edge_bindings = edge_bindings;
    report.search_steps = steps;
    report.search_backtracks = backtracks;
    report.timed_out = timed_out;
    search.count("match.queries", 1);
    search.count("search.steps", report.search_steps);
    search.count("search.backtracks", report.search_backtracks);
    search.count("search.matches", report.mappings.len() as u64);
    search.count("search.timeouts", u64::from(report.timed_out));
    if search.recording() {
        let space = mates
            .iter()
            .fold(1u64, |acc, m| acc.saturating_mul(m.len() as u64));
        search.arg("space", ArgValue::UInt(space));
        search.arg("steps", ArgValue::UInt(report.search_steps));
        search.arg("backtracks", ArgValue::UInt(report.search_backtracks));
        search.arg("matches", ArgValue::UInt(report.mappings.len() as u64));
        if let Some(info) = &report.plan {
            search.arg("est_matches", ArgValue::Float(info.est_matches));
        }
        search.arg("ms", ms(report.timings.search));
    }
    let search = search.finish();

    // Planner epilogue: record this run's observations and (re)install
    // the compiled plan for the next call of the same motif.
    if let (Some(pl), Some(k), Some(candidate_space)) = (planner, key, candidate_space) {
        pl.record_shape(
            k.shape,
            k.graph_scope,
            ShapeFeedback {
                runs: 0,
                candidate_space,
                refine_removed: report.refine_stats.removed,
                matches: report.mappings.len() as u64,
                estimated_size: est_join_sizes.last().copied().unwrap_or(0.0),
            },
        );
        if cached.is_none() || replanned {
            let checks = cached
                .as_ref()
                .map(|p| p.checks.clone())
                .or(fresh_checks)
                .unwrap_or_else(EdgeChecks::empty);
            pl.insert(
                k,
                Arc::new(CompiledPlan {
                    order: report.order.clone(),
                    estimated_cost: order_cost,
                    est_join_sizes,
                    refine_level: level,
                    refine_skipped,
                    refined_sizes,
                    access_paths: access.iter().map(|a| a.path).collect(),
                    checks,
                }),
            );
        }
    }

    // The run's operator tree: match → retrieve (→ per node) / refine
    // (→ per level) / order (→ per join) / search.
    if let Some(t) = tel.filter(|t| t.explains()) {
        let mut root = Span::node(t, "match");
        root.arg("pattern_nodes", ArgValue::UInt(pattern.node_count() as u64));
        root.arg("matches", ArgValue::UInt(report.mappings.len() as u64));
        root.arg("total_ms", ms(report.timings.total()));
        if report.timed_out {
            root.arg("timed_out", ArgValue::Bool(true));
        }
        for phase in [retrieve, refine, order_node, search] {
            root.child(phase);
        }
        report.explain = root.finish();
    }
    report
}

/// Milliseconds with microsecond precision, for explain annotations.
fn ms(d: Duration) -> ArgValue {
    ArgValue::Float(d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_clique};
    use gql_core::iso::find_embedding;

    #[test]
    fn optimized_and_baseline_agree_on_matches() {
        let (g, ids) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let opt = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        let base = match_pattern(&p, &g, &idx, &MatchOptions::baseline());
        assert_eq!(opt.mappings.len(), 1);
        assert_eq!(base.mappings.len(), 1);
        // Same mapping set regardless of order: compare as sets of
        // (pattern node, data node) pairs.
        let norm = |m: &Vec<NodeId>| m.clone();
        assert_eq!(norm(&opt.mappings[0]), norm(&base.mappings[0]));
        assert_eq!(opt.mappings[0], vec![ids[0], ids[2], ids[5]]);
        assert!(opt.spaces.refined_ln <= opt.spaces.local_ln + 1e-12);
        assert!(opt.spaces.local_ln <= opt.spaces.baseline_ln + 1e-12);
    }

    #[test]
    fn pipeline_agrees_with_oracle_on_cliques() {
        let g = labeled_clique(&["A", "B", "C", "D", "A"]);
        let p = Pattern::structural(labeled_clique(&["A", "B", "C"]));
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        assert!(find_embedding(&p.graph, &g, None).is_some());
        // Two A's to choose: 2 embeddings.
        assert_eq!(rep.mappings.len(), 2);
        for (m, eb) in rep.mappings.iter().zip(&rep.edge_bindings) {
            assert_eq!(m.len(), 3);
            assert_eq!(eb.len(), 3);
        }
    }

    #[test]
    fn max_matches_and_exhaustive_flags() {
        let g = labeled_clique(&["A", "A", "A", "A", "A"]);
        let p = Pattern::structural(labeled_clique(&["A", "A", "A"]));
        let idx = GraphIndex::build(&g);
        let mut opts = MatchOptions::optimized();
        opts.max_matches = 7;
        let rep = match_pattern(&p, &g, &idx, &opts);
        assert_eq!(rep.mappings.len(), 7);
        opts.exhaustive = false;
        opts.max_matches = usize::MAX;
        let rep1 = match_pattern(&p, &g, &idx, &opts);
        assert_eq!(rep1.mappings.len(), 1);
    }

    #[test]
    fn subgraph_pruning_config_works_end_to_end() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_full(&g, 1);
        let opts = MatchOptions {
            pruning: LocalPruning::Subgraphs { radius: 1 },
            ..MatchOptions::default()
        };
        let rep = match_pattern(&p, &g, &idx, &opts);
        assert_eq!(rep.mappings.len(), 1);
        // Subgraph pruning of a clique pattern collapses the space to the
        // answer itself: ratio log10(1/8).
        assert!((rep.spaces.local_ratio_log10() - (1f64 / 8f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn obs_sink_records_pipeline_counters_without_changing_results() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let plain = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        let obs = gql_core::Obs::new();
        let opts = MatchOptions {
            telemetry: Some(Arc::new(Telemetry::new().with_obs(Arc::clone(&obs)))),
            ..MatchOptions::optimized()
        };
        let profiled = match_pattern(&p, &g, &idx, &opts);
        assert_eq!(profiled.mappings, plain.mappings);
        assert_eq!(profiled.edge_bindings, plain.edge_bindings);
        assert_eq!(profiled.search_steps, plain.search_steps);

        let rep = obs.report();
        assert_eq!(rep.counter("match.queries"), Some(1));
        assert_eq!(rep.counter("search.matches"), Some(1));
        assert_eq!(rep.counter("search.steps"), Some(plain.search_steps));
        assert_eq!(rep.counter("search.timeouts"), Some(0));
        // Figure 4.17 bottom row: profile pruning keeps {A1}×{B1,B2}×{C2}.
        assert_eq!(rep.counter("retrieve.kept"), Some(4));
        let cands = rep.counter("retrieve.candidates").unwrap();
        assert_eq!(
            cands,
            rep.counter("retrieve.sig_rejected").unwrap()
                + rep.counter("retrieve.exact_rejected").unwrap()
                + rep.counter("retrieve.kept").unwrap()
        );
        assert_eq!(
            rep.counter("refine.removed"),
            Some(profiled.refine_stats.removed)
        );
        // Phase durations were recorded once each — the same durations
        // the report's step timings carry.
        let t = &profiled.timings;
        for (phase, d) in [
            ("match.retrieve", t.retrieve),
            ("match.refine", t.refine),
            ("match.order", t.order),
            ("match.search", t.search),
        ] {
            let stats = rep.phase(phase).unwrap_or_else(|| panic!("{phase}"));
            assert_eq!((stats.count, stats.total), (1, d), "{phase}");
        }
    }

    /// Trace + explain attached: results identical to the plain run,
    /// the sink holds phase and fine-grained events, and the explain
    /// tree's actuals agree with the report.
    #[test]
    fn trace_and_explain_record_without_changing_results() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let plain = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        let tel = Arc::new(Telemetry::new().with_tracing().with_explain());
        let opts = MatchOptions {
            telemetry: Some(Arc::clone(&tel)),
            ..MatchOptions::optimized()
        };
        let traced = match_pattern(&p, &g, &idx, &opts);
        assert_eq!(traced.mappings, plain.mappings);
        assert_eq!(traced.edge_bindings, plain.edge_bindings);
        assert_eq!(traced.search_steps, plain.search_steps);
        assert_eq!(traced.search_backtracks, plain.search_backtracks);
        assert_eq!(traced.refine_stats, plain.refine_stats);
        assert!(plain.explain.is_none());

        let names: Vec<String> = tel.events().iter().map(|e| e.name.clone()).collect();
        for phase in [
            "match.retrieve",
            "match.refine",
            "match.order",
            "match.search",
        ] {
            assert!(
                names.iter().any(|n| n == phase),
                "{phase} missing: {names:?}"
            );
        }
        assert!(names.iter().any(|n| n.starts_with("retrieve.node[")));
        assert!(names.iter().any(|n| n.starts_with("search.chunk[")));
        gql_core::validate_json(&tel.render_chrome_json()).unwrap();

        let tree = traced.explain.expect("explain requested");
        assert_eq!(tree.label, "match");
        let text = tree.render_text();
        assert!(text.contains("retrieve"), "{text}");
        assert!(text.contains("search"), "{text}");
        gql_core::validate_json(&tree.render_json()).unwrap();
        let search = tree
            .children
            .iter()
            .find(|c| c.label == "search")
            .expect("search node");
        assert!(
            search
                .props
                .iter()
                .any(|(k, v)| k == "steps" && *v == gql_core::ArgValue::UInt(plain.search_steps)),
            "{search:?}"
        );
    }

    #[test]
    fn report_timings_are_populated() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let idx = GraphIndex::build_with_profiles(&g, 1);
        let rep = match_pattern(&p, &g, &idx, &MatchOptions::optimized());
        assert!(rep.timings.total() >= rep.timings.search);
        assert!(rep.search_steps >= 3);
        assert_eq!(rep.order.len(), 3);
    }
}
