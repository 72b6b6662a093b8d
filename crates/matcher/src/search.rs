//! The depth-first search phase of Algorithm 4.1 (`Search` / `Check`),
//! with an optional work-partitioned parallel driver.
//!
//! # Parallel execution model
//!
//! The recursion tree of Algorithm 4.1 fans out at depth 0 over the
//! feasible mates of the first pattern node in the search order,
//! Φ(order\[0\]). Those subtrees are independent, so the parallel driver
//! partitions the root candidate list into contiguous chunks and hands
//! them to `threads` scoped workers, each running the unmodified
//! sequential recursion over its chunk.
//!
//! Determinism is preserved — parallel output is **identical** to the
//! sequential run, including under `max_matches` caps and the
//! non-`exhaustive` first-match mode:
//!
//! - each worker caps its own chunk at `take` matches (`take` = 1 when
//!   not exhaustive, else `max_matches`), so no chunk ever over-collects
//!   past what the merge can use;
//! - a chunk is *complete* when its subtree was exhausted or its local
//!   cap was reached. Completed chunk counts are folded into a
//!   completed-**prefix** total (chunks 0..p all complete); only when
//!   that prefix total reaches `take` is the shared stop flag raised.
//!   This guarantees the truncation point of the final result lies
//!   inside chunks that ran to completion, so later partial chunks can
//!   never perturb the reported prefix;
//! - outcomes are merged in chunk order and truncated to `take`, which
//!   reproduces exactly the first `take` matches in root order — the
//!   sequential answer.
//!
//! The wall-clock deadline also propagates through the stop flag: the
//! first worker to observe the deadline raises it, every worker aborts
//! at its next step-counter check, and the merged outcome carries
//! `timed_out` plus whatever was found (a lower bound, mirroring the
//! sequential protocol).
//!
//! # Interned edge checks
//!
//! [`search_indexed`] accepts the data graph's [`GraphIndex`] and
//! precomputes one `EdgeCheck` per pattern edge: a motif-edge `label`
//! constraint becomes a single `u32` compare against the index's
//! per-edge label-id table, executed *before* (and — when the label is
//! the edge's only constraint — *instead of*) the `Value`-typed tuple
//! subsumption and predicate evaluation. Label values intern to equal
//! ids exactly when they are equal `Value`s, so the fast path accepts
//! and rejects precisely the same data edges as
//! [`Pattern::edge_feasible`].
//!
//! When the index additionally carries a property index and a motif
//! edge's pushed-down predicates are all attr-op-literal conjuncts, the
//! edge's sorted runs are probed once at compile time and the
//! intersected allowed-edge id list replaces per-candidate predicate
//! evaluation with a binary search — the edge-side counterpart of the
//! retrieval phase's predicate pushdown, with the same equivalence
//! contract (identical verdicts, mappings, and counters).
//!
//! # CSR edge probes
//!
//! With an index, `Check`'s data-edge lookups run as binary searches
//! over the [`CsrGraph`] snapshot's label-sorted rows instead of
//! [`Graph::edge_between`] hash probes. The probe verdicts — and
//! therefore every mapping, step, and backtrack count — are identical;
//! only the memory access pattern changes. The index-less form
//! (`search_indexed(.., None, ..)`) keeps the `Value`-typed `Check` as
//! the oracle the equivalence tests compare against. The candidate
//! enumeration itself is deliberately left untouched: pre-intersecting
//! mate lists against CSR rows would change which candidates are
//! *considered* (not which match), and the step/backtrack counters are
//! part of the pipeline's observable, thread-count-invariant contract.

use crate::expr::Expr;
use crate::feasible::intersect_sorted;
use crate::index::GraphIndex;
use crate::pattern::Pattern;
use gql_core::{ArgValue, CsrGraph, EdgeId, Graph, NodeId, ProbeOp, Span, Telemetry, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Knobs for the search phase.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Return all mappings (`exhaustive`) or stop at the first (§3.3's
    /// selection option).
    pub exhaustive: bool,
    /// Hard cap on reported mappings; the paper terminates queries with
    /// more than 1000 hits.
    pub max_matches: usize,
    /// Wall-clock budget; exceeded runs set `timed_out` and return what
    /// they found (lower bound), mirroring the paper's protocol.
    pub deadline: Option<Instant>,
    /// Worker threads for the root-partitioned parallel driver: `1`
    /// runs the classic sequential search, `0` means one worker per
    /// available core. Any setting produces identical output.
    pub threads: usize,
    /// Telemetry handle: when set, each root chunk's exploration runs
    /// under a `search.chunk[c]` span (closed on the worker thread that
    /// ran it) carrying roots, steps, backtracks, and matches. `None`
    /// keeps the search on its unobserved path; the outcome is
    /// identical either way.
    pub trace: Option<Arc<Telemetry>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            exhaustive: true,
            max_matches: usize::MAX,
            deadline: None,
            threads: 1,
            trace: None,
        }
    }
}

/// Outcome of a search run.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Complete mappings found (pattern node index → data node).
    pub mappings: Vec<Vec<NodeId>>,
    /// For each mapping, the data edge bound to each pattern edge.
    pub edge_bindings: Vec<Vec<EdgeId>>,
    /// Candidate (node, mate) extension attempts — the paper's notion of
    /// search effort. Under a parallel run this aggregates the steps of
    /// every worker, so early-exit runs may report more steps than a
    /// sequential run that stopped at the same match.
    pub steps: u64,
    /// Extension attempts rejected by `Check` (the search backtracked
    /// without descending). Aggregated like `steps`.
    pub backtracks: u64,
    /// True if the deadline fired before the space was exhausted.
    pub timed_out: bool,
}

/// Poll the stop flag / deadline after this much work. Work counts both
/// candidate considerations (including injectivity skips, which the old
/// step counter missed) and per-incident-edge probes inside `Check`, so
/// a high-fan-out `Check` loop cannot run far past its budget between
/// polls.
const POLL_INTERVAL: u64 = 256;

/// Per-pattern-edge check, precomputed once per search when a
/// [`GraphIndex`] is available.
#[derive(Debug, Clone, Copy)]
struct EdgeCheck {
    /// Interned id the data edge's label must carry, or `None` when the
    /// motif edge has no `label` constraint. Unknown label values encode
    /// to [`gql_core::IMPOSSIBLE_LABEL`], which no data edge carries.
    label_id: Option<u32>,
    /// Whether [`Pattern::edge_feasible`] must still run after the label
    /// precheck (other attributes, a tag, or pushed-down predicates).
    full: bool,
    /// Index into [`EdgeChecks::allowed`] when the edge's pushed-down
    /// predicates were answered completely by sorted-run probes: after
    /// the label compare, a data edge is feasible iff its id is in that
    /// (ascending) list, and `F_e` never runs.
    allowed: Option<u32>,
}

/// Decomposes a pushed-down edge predicate into `(attr, op, key)` when a
/// sorted run can answer it: a comparison between this edge's attribute
/// and a literal, in either orientation — the edge-side mirror of the
/// retrieval phase's node-probe decomposition. Anything else stays on
/// the `edge_feasible` scan side.
fn indexable_edge_probe(pred: &Expr, pe: EdgeId) -> Option<(&str, ProbeOp, &Value)> {
    let Expr::Binary { op, lhs, rhs } = pred else {
        return None;
    };
    let op = ProbeOp::from_binop(*op)?;
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::EdgeAttr { edge, attr }, Expr::Literal(key)) if *edge == pe.index() => {
            Some((attr.as_str(), op, key))
        }
        (Expr::Literal(key), Expr::EdgeAttr { edge, attr }) if *edge == pe.index() => {
            Some((attr.as_str(), op.flip(), key))
        }
        _ => None,
    }
}

/// The pattern-sized half of the per-edge plan: one `EdgeCheck` per
/// pattern edge, plus the probe-derived allowed-edge id lists they point
/// into. Owns no index data beyond those materialized lists, so a
/// planner can cache it across searches and hand it back to the search
/// phase; the checks stay valid as long as the
/// index (whose interner encoded the label ids and whose property index
/// answered the probes) does.
#[derive(Debug, Clone, Default)]
pub struct EdgeChecks {
    checks: Vec<EdgeCheck>,
    /// Ascending data-edge id lists, one per probe-covered pattern edge.
    allowed: Vec<Vec<u32>>,
}

impl EdgeChecks {
    /// Compiles the per-edge label prechecks for `pattern` against
    /// `index`'s label dictionary. When the index carries a property
    /// index and a motif edge constrains exactly `{label}` with every
    /// pushed-down predicate an attr-op-literal conjunct, the edge's
    /// sorted runs are probed once here and the intersected id list
    /// replaces per-candidate `F_e` evaluation entirely. Probe verdicts
    /// equal scan verdicts by the property-index equivalence contract
    /// (equality probes are `Value::eq` equal-ranges; range probes
    /// re-check with `Value::compare`, dropping cross-rank pairs exactly
    /// as the scan's Undefined verdict does), so the outcome — every
    /// mapping, step, and backtrack count — is identical either way.
    pub fn build(pattern: &Pattern, index: &GraphIndex) -> Self {
        let mut allowed: Vec<Vec<u32>> = Vec::new();
        let checks = pattern
            .graph
            .edges()
            .map(|(pe, e)| {
                let label_id = e
                    .attrs
                    .get("label")
                    .map(|l| index.interner().encode_constraint(l));
                // The label compare fully covers the check iff the label
                // is the tuple's only constraint and no predicates were
                // pushed down to this edge.
                let preds = &pattern.edge_preds[pe.index()];
                let structural_only =
                    e.attrs.tag().is_none() && e.attrs.len() == usize::from(label_id.is_some());
                let covered = structural_only && preds.is_empty();
                let probe = match (structural_only && !preds.is_empty(), index.prop(), label_id) {
                    (true, Some(pi), Some(lid)) => {
                        Self::probe_allowed(pi, lid, preds, pe).map(|ids| {
                            allowed.push(ids);
                            (allowed.len() - 1) as u32
                        })
                    }
                    _ => None,
                };
                EdgeCheck {
                    label_id,
                    full: !covered && probe.is_none(),
                    allowed: probe,
                }
            })
            .collect();
        EdgeChecks { checks, allowed }
    }

    /// Intersected allowed-edge ids for a probe-covered edge, or `None`
    /// when any pushed-down predicate is not an attr-op-literal conjunct
    /// a sorted run can answer (the edge stays on the scan path). A
    /// missing run means no edge of the label carries the attribute —
    /// the predicate is Undefined bucket-wide, so the allowed set is
    /// empty, matching the scan's verdict.
    fn probe_allowed(
        pi: &gql_core::PropIndex,
        lid: u32,
        preds: &[Expr],
        pe: EdgeId,
    ) -> Option<Vec<u32>> {
        let mut merged: Option<Vec<u32>> = None;
        for pred in preds {
            let (attr, op, key) = indexable_edge_probe(pred, pe)?;
            let ids = pi.probe_edges(lid, attr, op, key).unwrap_or_default();
            merged = Some(match merged {
                None => ids,
                Some(prev) => intersect_sorted(&prev, &ids),
            });
        }
        merged
    }

    /// Checks for a zero-edge pattern (test fixtures).
    pub fn empty() -> Self {
        EdgeChecks::default()
    }
}

/// The per-edge checks plus what they read from the index: the
/// data-edge label-id table and the CSR snapshot `Check` probes.
struct EdgePlan<'a> {
    checks: &'a [EdgeCheck],
    /// Probe-derived allowed-edge lists the checks' `allowed` slots
    /// point into (borrowed from the same [`EdgeChecks`]).
    allowed: &'a [Vec<u32>],
    data_edge_labels: &'a [u32],
    csr: &'a CsrGraph,
}

impl EdgePlan<'_> {
    /// Fast-path equivalent of `pattern.edge_feasible(pe, g, ge)`.
    #[inline]
    fn edge_ok(&self, pattern: &Pattern, g: &Graph, pe: EdgeId, ge: EdgeId) -> bool {
        let check = self.checks[pe.index()];
        if let Some(want) = check.label_id {
            if self.data_edge_labels[ge.index()] != want {
                return false;
            }
        }
        if let Some(slot) = check.allowed {
            return self.allowed[slot as usize].binary_search(&ge.0).is_ok();
        }
        !check.full || pattern.edge_feasible(pe, g, ge)
    }
}

/// Shared read-only state for one (chunk of the) search.
struct Ctx<'a> {
    pattern: &'a Pattern,
    g: &'a Graph,
    mates: &'a [Vec<NodeId>],
    order: &'a [usize],
    /// Root candidates explored at depth 0 (a sub-slice of
    /// `mates[order[0]]` under the parallel driver).
    roots: &'a [NodeId],
    /// Interned edge-check plan and CSR snapshot (None without an
    /// index: the `Value`-typed oracle form).
    plan: Option<&'a EdgePlan<'a>>,
    /// Stop after this many mappings (checked after each push).
    take: usize,
    deadline: Option<Instant>,
    /// Cross-worker abort flag (None in the sequential path).
    stop: Option<&'a AtomicBool>,
}

/// Abort checks shared by the sequential and parallel paths: the
/// cross-worker stop flag, then the wall-clock deadline. A worker that
/// observes the deadline first raises the stop flag itself, so its
/// siblings abort at their next poll instead of re-deriving the timeout.
/// Returns true when the search must unwind.
fn poll_abort(ctx: &Ctx<'_>, out: &mut SearchOutcome) -> bool {
    if let Some(stop) = ctx.stop {
        if stop.load(Ordering::Relaxed) {
            return true;
        }
    }
    if let Some(d) = ctx.deadline {
        if Instant::now() >= d {
            out.timed_out = true;
            if let Some(stop) = ctx.stop {
                stop.store(true, Ordering::Relaxed);
            }
            return true;
        }
    }
    false
}

/// `Check(u_i, v)` (Algorithm 4.1 lines 19–26): every pattern edge
/// from `u_i` to an already-assigned node must map to a data edge
/// satisfying `F_e`. On success records the edge bindings. Each probed
/// incident edge charges one unit to `work`.
#[allow(clippy::too_many_arguments)]
fn check(
    ctx: &Ctx<'_>,
    u: NodeId,
    v: NodeId,
    assign: &[Option<NodeId>],
    edge_bind: &mut [Option<EdgeId>],
    touched: &mut Vec<u32>,
    work: &mut u64,
) -> bool {
    for &(w, pe) in ctx.pattern.incident(u) {
        *work += 1;
        let Some(mapped) = assign[w.index()] else {
            continue;
        };
        // Respect orientation for directed patterns: the motif edge
        // runs src→dst; look up the data edge the same way.
        let e = ctx.pattern.graph.edge(pe);
        let (from, to) = if ctx.pattern.graph.is_directed() && e.src != u {
            (mapped, v)
        } else {
            (v, mapped)
        };
        // Same verdict either way; the indexed probe is a binary search
        // over `from`'s label-sorted CSR row instead of a hash lookup.
        let bound = match ctx.plan {
            Some(plan) => plan
                .csr
                .edge_between(from, to)
                .filter(|&ge| plan.edge_ok(ctx.pattern, ctx.g, pe, ge)),
            None => ctx
                .g
                .edge_between(from, to)
                .filter(|&ge| ctx.pattern.edge_feasible(pe, ctx.g, ge)),
        };
        match bound {
            Some(ge) => {
                edge_bind[pe.index()] = Some(ge);
                touched.push(pe.0);
            }
            None => return false,
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    ctx: &Ctx<'_>,
    depth: usize,
    assign: &mut Vec<Option<NodeId>>,
    edge_bind: &mut Vec<Option<EdgeId>>,
    used: &mut Vec<bool>,
    out: &mut SearchOutcome,
    work: &mut u64,
) -> bool {
    // Returns false to abort the whole search (limit/deadline/stop hit).
    if depth == ctx.order.len() {
        // Complete mapping: evaluate the graph-wide predicate F.
        let mapping: Vec<NodeId> = assign.iter().map(|a| a.expect("complete")).collect();
        if ctx.pattern.global_holds(ctx.g, &mapping, edge_bind) {
            out.mappings.push(mapping);
            out.edge_bindings
                .push(edge_bind.iter().map(|e| e.expect("complete")).collect());
            if out.mappings.len() >= ctx.take {
                return false;
            }
        }
        return true;
    }
    let u = NodeId(ctx.order[depth] as u32);
    let cands: &[NodeId] = if depth == 0 {
        ctx.roots
    } else {
        &ctx.mates[u.index()]
    };
    for &v in cands {
        // Charge every candidate considered — injectivity skips too, so
        // a worker spinning over mostly-used candidates still reaches a
        // poll (`out.steps` only counts real extension attempts and
        // would starve the old modulo check).
        *work += 1;
        if *work >= POLL_INTERVAL {
            *work = 0;
            if poll_abort(ctx, out) {
                return false;
            }
        }
        if used[v.index()] {
            continue; // injectivity: v is not free
        }
        out.steps += 1;
        let mut touched: Vec<u32> = Vec::new();
        if !check(ctx, u, v, assign, edge_bind, &mut touched, work) {
            out.backtracks += 1;
            for pe in touched {
                edge_bind[pe as usize] = None;
            }
            continue;
        }
        assign[u.index()] = Some(v);
        used[v.index()] = true;
        let keep_going = recurse(ctx, depth + 1, assign, edge_bind, used, out, work);
        assign[u.index()] = None;
        used[v.index()] = false;
        for pe in touched {
            edge_bind[pe as usize] = None;
        }
        if !keep_going {
            return false;
        }
    }
    true
}

/// Scratch buffers reused across chunks by one worker.
struct Scratch {
    assign: Vec<Option<NodeId>>,
    edge_bind: Vec<Option<EdgeId>>,
    used: Vec<bool>,
}

impl Scratch {
    fn new(pattern: &Pattern, g: &Graph) -> Self {
        Scratch {
            assign: vec![None; pattern.node_count()],
            edge_bind: vec![None; pattern.edge_count()],
            used: vec![false; g.node_count()],
        }
    }
}

/// Runs the recursion over one root slice. Returns the outcome plus a
/// `complete` flag: true when the slice was exhausted or the local cap
/// was reached (i.e. this chunk's contribution to the merged prefix is
/// final), false when aborted by the stop flag or the deadline.
fn run_roots(ctx: &Ctx<'_>, scratch: &mut Scratch) -> (SearchOutcome, bool) {
    let mut out = SearchOutcome::default();
    // Poll up front so an already-expired deadline (or raised stop flag)
    // aborts before any work, however small the chunk.
    if poll_abort(ctx, &mut out) {
        return (out, false);
    }
    let mut work = 0u64;
    let finished = recurse(
        ctx,
        0,
        &mut scratch.assign,
        &mut scratch.edge_bind,
        &mut scratch.used,
        &mut out,
        &mut work,
    );
    let complete = finished || (!out.timed_out && out.mappings.len() >= ctx.take);
    (out, complete)
}

/// Runs the `Search(1)` recursion of Algorithm 4.1 over the given
/// feasible mates and search order. With `cfg.threads != 1` the root
/// candidates are partitioned across scoped workers; output is
/// identical to the sequential run (see module docs).
///
/// With the data graph's `index` (which must have been built from `g`),
/// pattern-edge `label` constraints are checked by a single interned-id
/// compare before (or instead of) the `Value`-typed tuple machinery and
/// data edges are probed in the CSR snapshot. `None` runs the
/// `Value`-typed oracle form; the outcome is identical.
pub fn search_indexed(
    pattern: &Pattern,
    g: &Graph,
    index: Option<&GraphIndex>,
    mates: &[Vec<NodeId>],
    order: &[usize],
    cfg: &SearchConfig,
) -> SearchOutcome {
    search_indexed_with_checks(pattern, g, index, None, mates, order, cfg)
}

/// [`search_indexed`] with optionally precompiled [`EdgeChecks`] (e.g.
/// from a plan cache); `None` compiles them here. The checks must have
/// been built for this `pattern` against this `index`'s dictionary —
/// the outcome is identical either way, compilation is just skipped.
pub(crate) fn search_indexed_with_checks(
    pattern: &Pattern,
    g: &Graph,
    index: Option<&GraphIndex>,
    checks: Option<&EdgeChecks>,
    mates: &[Vec<NodeId>],
    order: &[usize],
    cfg: &SearchConfig,
) -> SearchOutcome {
    let k = pattern.node_count();
    debug_assert_eq!(order.len(), k);
    let mut out = SearchOutcome::default();
    if k == 0 {
        // The empty pattern matches every graph once, vacuously.
        out.mappings.push(Vec::new());
        out.edge_bindings.push(Vec::new());
        return out;
    }
    if mates.iter().any(|m| m.is_empty()) {
        return out;
    }
    let built: Option<EdgeChecks> = match (index, checks) {
        (Some(idx), None) => Some(EdgeChecks::build(pattern, idx)),
        _ => None,
    };
    let plan = index.and_then(|idx| {
        checks.or(built.as_ref()).map(|c| EdgePlan {
            checks: &c.checks,
            allowed: &c.allowed,
            data_edge_labels: idx.edge_label_ids(),
            csr: idx.csr(),
        })
    });

    let roots: &[NodeId] = &mates[order[0]];
    // The sequential code stops once `mappings.len() >= cap` *after* a
    // push, so the effective result size is max(cap, 1); `exhaustive:
    // false` behaves as a cap of 1.
    let take = if cfg.exhaustive { cfg.max_matches } else { 1 }.max(1);
    let workers = gql_core::resolve_threads(cfg.threads).min(roots.len());

    if workers <= 1 {
        let ctx = Ctx {
            pattern,
            g,
            mates,
            order,
            roots,
            plan: plan.as_ref(),
            take,
            deadline: cfg.deadline,
            stop: None,
        };
        return run_chunk(&ctx, &mut Scratch::new(pattern, g), cfg, 0).0;
    }
    search_parallel(
        pattern,
        g,
        mates,
        order,
        cfg,
        plan.as_ref(),
        roots,
        take,
        workers,
    )
}

/// Explores `ctx.roots` as root chunk `chunk`, under a
/// `search.chunk[chunk]` span when `cfg` carries a telemetry handle.
fn run_chunk(
    ctx: &Ctx<'_>,
    scratch: &mut Scratch,
    cfg: &SearchConfig,
    chunk: usize,
) -> (SearchOutcome, bool) {
    let mut span = Span::phase(cfg.trace.as_deref(), "search.chunk", "search").at(chunk);
    let (out, complete) = run_roots(ctx, scratch);
    span.arg("roots", ArgValue::UInt(ctx.roots.len() as u64));
    span.arg("steps", ArgValue::UInt(out.steps));
    span.arg("backtracks", ArgValue::UInt(out.backtracks));
    span.arg("matches", ArgValue::UInt(out.mappings.len() as u64));
    (out, complete)
}

/// Per-chunk bookkeeping for the completed-prefix early-exit protocol.
struct Prefix {
    /// Match count per *complete* chunk (None while running/aborted).
    counts: Vec<Option<usize>>,
    /// First chunk index not yet folded into `total`.
    next: usize,
    /// Matches across the completed prefix `0..next`.
    total: usize,
}

#[allow(clippy::too_many_arguments)]
fn search_parallel(
    pattern: &Pattern,
    g: &Graph,
    mates: &[Vec<NodeId>],
    order: &[usize],
    cfg: &SearchConfig,
    plan: Option<&EdgePlan<'_>>,
    roots: &[NodeId],
    take: usize,
    workers: usize,
) -> SearchOutcome {
    // Over-partition so faster workers pick up slack from skewed
    // subtrees; chunks stay contiguous to keep the merge a simple
    // in-order concatenation. `nchunks` is recomputed from the rounded
    // chunk size so every chunk is non-empty (e.g. 20 roots over 8
    // requested chunks yields 7 chunks of ≤3, not an 8th starting past
    // the end of `roots`).
    let chunk = roots.len().div_ceil(roots.len().min(workers * 4));
    let nchunks = roots.len().div_ceil(chunk);

    let stop = AtomicBool::new(false);
    let next_chunk = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SearchOutcome>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    let prefix = Mutex::new(Prefix {
        counts: vec![None; nchunks],
        next: 0,
        total: 0,
    });

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut scratch = Scratch::new(pattern, g);
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = ((c + 1) * chunk).min(roots.len());
                    let ctx = Ctx {
                        pattern,
                        g,
                        mates,
                        order,
                        roots: &roots[lo..hi],
                        plan,
                        take,
                        deadline: cfg.deadline,
                        stop: Some(&stop),
                    };
                    let (outcome, complete) = run_chunk(&ctx, &mut scratch, cfg, c);
                    if outcome.timed_out {
                        stop.store(true, Ordering::Relaxed);
                    }
                    let found = outcome.mappings.len();
                    *slots[c].lock().expect("slot poisoned") = Some(outcome);
                    if complete {
                        let mut p = prefix.lock().expect("prefix poisoned");
                        p.counts[c] = Some(found);
                        while p.next < nchunks {
                            match p.counts[p.next] {
                                Some(n) => {
                                    p.total += n;
                                    p.next += 1;
                                }
                                None => break,
                            }
                        }
                        if p.total >= take {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Merge in chunk order: completed-prefix accounting guarantees the
    // first `take` matches come from complete chunks, so truncation
    // reproduces the sequential answer exactly. Partial (aborted)
    // chunks past the truncation point only contribute their step
    // counts and the timed-out flag.
    let mut merged = SearchOutcome::default();
    for slot in slots {
        let Some(o) = slot.into_inner().expect("slot poisoned") else {
            continue; // chunk never claimed (stop fired first)
        };
        merged.steps += o.steps;
        merged.backtracks += o.backtracks;
        merged.timed_out |= o.timed_out;
        if merged.mappings.len() < take {
            merged.mappings.extend(o.mappings);
            merged.edge_bindings.extend(o.edge_bindings);
        }
    }
    merged.mappings.truncate(take);
    merged.edge_bindings.truncate(take);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::feasible::{feasible_mates, LocalPruning};
    use crate::index::GraphIndex;
    use gql_core::fixtures::{figure_4_16_graph, figure_4_16_pattern, labeled_clique};
    use gql_core::Tuple;

    fn run(pattern: &Pattern, g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
        let idx = GraphIndex::build(g);
        let mates = feasible_mates(pattern, g, &idx, LocalPruning::NodeAttributes);
        let order: Vec<usize> = (0..pattern.node_count()).collect();
        search_indexed(pattern, g, Some(&idx), &mates, &order, cfg)
    }

    /// The edge-probe compiler actually fires for attr-op-literal edge
    /// predicates on a label-constrained motif edge (and only then):
    /// pins the internal path so the crate-level probe-vs-scan
    /// equivalence suite isn't vacuously comparing scan against scan.
    #[test]
    fn edge_probe_compilation_covers_indexable_predicates() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..6i64)
            .map(|_| g.add_node(Tuple::new().with("label", "P")))
            .collect();
        for i in 0..5usize {
            g.add_edge(
                ids[i],
                ids[i + 1],
                Tuple::new().with("label", "knows").with("w", i as i64),
            )
            .unwrap();
        }
        let idx = GraphIndex::build(&g);
        assert!(idx.prop().is_some());
        let motif = |preds: Vec<Expr>| {
            let mut m = Graph::new();
            let a = m.add_node(Tuple::new().with("label", "P"));
            let b = m.add_node(Tuple::new().with("label", "P"));
            m.add_edge(a, b, Tuple::new().with("label", "knows"))
                .unwrap();
            Pattern::new(m, preds)
        };
        // Indexable conjuncts compile to an allowed list; `w >= 2` on a
        // 5-edge chain keeps edges {2, 3, 4}.
        let p = motif(vec![Expr::binary(
            BinOp::Ge,
            Expr::edge_attr(0, "w"),
            Expr::Literal(2i64.into()),
        )]);
        let checks = EdgeChecks::build(&p, &idx);
        assert_eq!(checks.checks[0].allowed, Some(0));
        assert!(!checks.checks[0].full);
        assert_eq!(checks.allowed[0], vec![2, 3, 4]);
        // An absent attribute compiles to an *empty* allowed list (the
        // predicate is Undefined for every edge of the label).
        let p = motif(vec![Expr::edge_attr_eq(0, "nope", 1i64)]);
        let checks = EdgeChecks::build(&p, &idx);
        assert_eq!(checks.allowed[0], Vec::<u32>::new());
        // A non-indexable conjunct keeps the whole edge on the
        // `edge_feasible` path.
        let p = motif(vec![
            Expr::binary(
                BinOp::Ge,
                Expr::edge_attr(0, "w"),
                Expr::Literal(2i64.into()),
            ),
            Expr::binary(
                BinOp::Ne,
                Expr::edge_attr(0, "w"),
                Expr::Literal(3i64.into()),
            ),
        ]);
        let checks = EdgeChecks::build(&p, &idx);
        assert_eq!(checks.checks[0].allowed, None);
        assert!(checks.checks[0].full);
        // No property index: no probes.
        let scan_idx = GraphIndex::build_with(
            &g,
            &crate::index::IndexOptions {
                prop_index: false,
                ..Default::default()
            },
        );
        let p = motif(vec![Expr::edge_attr_eq(0, "w", 2i64)]);
        let checks = EdgeChecks::build(&p, &scan_idx);
        assert_eq!(checks.checks[0].allowed, None);
        assert!(checks.checks[0].full);
    }

    #[test]
    fn triangle_has_exactly_one_match() {
        let (g, ids) = figure_4_16_graph();
        let p = Pattern::structural(figure_4_16_pattern());
        let out = run(&p, &g, &SearchConfig::default());
        assert_eq!(out.mappings.len(), 1);
        assert_eq!(out.mappings[0], vec![ids[0], ids[2], ids[5]]); // A1,B1,C2
        assert_eq!(out.edge_bindings[0].len(), 3);
        assert!(!out.timed_out);
    }

    /// Root counts that don't divide evenly into `workers * 4` chunks
    /// must not index past the end of the root slice (20 roots over 8
    /// requested chunks of 3 used to compute a 9th chunk at offset 21).
    #[test]
    fn parallel_chunking_covers_uneven_root_counts() {
        let g = labeled_clique(&["A"; 20]);
        let p = Pattern::structural(labeled_clique(&["A", "A"]));
        let seq = run(&p, &g, &SearchConfig::default());
        assert_eq!(seq.mappings.len(), 20 * 19);
        for threads in [2, 3, 8] {
            let par = run(
                &p,
                &g,
                &SearchConfig {
                    threads,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(par.mappings, seq.mappings, "threads {threads}");
            assert_eq!(par.steps, seq.steps, "threads {threads}");
        }
    }

    #[test]
    fn non_exhaustive_stops_after_first() {
        let g = labeled_clique(&["A", "A", "A", "A"]);
        let p = Pattern::structural(labeled_clique(&["A", "A", "A"]));
        let all = run(&p, &g, &SearchConfig::default());
        assert_eq!(all.mappings.len(), 24, "4P3 ordered embeddings");
        let one = run(
            &p,
            &g,
            &SearchConfig {
                exhaustive: false,
                ..SearchConfig::default()
            },
        );
        assert_eq!(one.mappings.len(), 1);
        assert!(one.steps < all.steps);
    }

    #[test]
    fn max_matches_caps_results() {
        let g = labeled_clique(&["A", "A", "A", "A"]);
        let p = Pattern::structural(labeled_clique(&["A", "A", "A"]));
        let out = run(
            &p,
            &g,
            &SearchConfig {
                max_matches: 5,
                ..SearchConfig::default()
            },
        );
        assert_eq!(out.mappings.len(), 5);
    }

    #[test]
    fn injectivity_is_enforced() {
        // Pattern A-B-A (path) on a single edge A-B: the two A pattern
        // nodes would both need the single data A.
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        g.add_edge(a, b, Tuple::new()).unwrap();
        let p = Pattern::structural(gql_core::fixtures::labeled_path(&["A", "B", "A"]));
        let out = run(&p, &g, &SearchConfig::default());
        assert!(out.mappings.is_empty());
    }

    #[test]
    fn global_predicate_filters_mappings() {
        let (g, ids) = figure_4_16_graph();
        // Unlabeled 2-node pattern with an edge, plus a global predicate
        // u0.label == u1.label — no two adjacent nodes share a label.
        let mut motif = Graph::new();
        let x = motif.add_node(Tuple::new());
        let y = motif.add_node(Tuple::new());
        motif.add_edge(x, y, Tuple::new()).unwrap();
        let same = Pattern::new(
            motif.clone(),
            vec![Expr::binary(
                BinOp::Eq,
                Expr::node_attr(0, "label"),
                Expr::node_attr(1, "label"),
            )],
        );
        let out = run(&same, &g, &SearchConfig::default());
        assert!(out.mappings.is_empty());
        // Sanity: without the predicate there are 12 ordered pairs.
        let any = Pattern::structural(motif);
        let out2 = run(&any, &g, &SearchConfig::default());
        assert_eq!(out2.mappings.len(), 12);
        let _ = ids;
    }

    #[test]
    fn edge_predicates_checked_during_search() {
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b1 = g.add_labeled_node("B");
        let b2 = g.add_labeled_node("B");
        g.add_edge(a, b1, Tuple::new().with("w", 1)).unwrap();
        g.add_edge(a, b2, Tuple::new().with("w", 9)).unwrap();

        let mut motif = Graph::new();
        let x = motif.add_labeled_node("A");
        let y = motif.add_labeled_node("B");
        motif.add_edge(x, y, Tuple::new()).unwrap();
        let p = Pattern::new(
            motif,
            vec![Expr::binary(
                BinOp::Gt,
                Expr::EdgeAttr {
                    edge: 0,
                    attr: "w".into(),
                },
                Expr::Literal(5.into()),
            )],
        );
        let out = run(&p, &g, &SearchConfig::default());
        assert_eq!(out.mappings.len(), 1);
        assert_eq!(out.mappings[0][1], b2);
    }

    #[test]
    fn directed_pattern_respects_orientation() {
        let mut g = Graph::new_directed();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        g.add_edge(a, b, Tuple::new()).unwrap();

        let mut fwd = Graph::new_directed();
        let x = fwd.add_labeled_node("A");
        let y = fwd.add_labeled_node("B");
        fwd.add_edge(x, y, Tuple::new()).unwrap();
        assert_eq!(
            run(&Pattern::structural(fwd), &g, &SearchConfig::default())
                .mappings
                .len(),
            1
        );

        let mut bwd = Graph::new_directed();
        let x = bwd.add_labeled_node("A");
        let y = bwd.add_labeled_node("B");
        bwd.add_edge(y, x, Tuple::new()).unwrap();
        assert!(run(&Pattern::structural(bwd), &g, &SearchConfig::default())
            .mappings
            .is_empty());
    }

    #[test]
    fn empty_pattern_matches_vacuously() {
        let (g, _) = figure_4_16_graph();
        let p = Pattern::structural(Graph::new());
        let out = run(&p, &g, &SearchConfig::default());
        assert_eq!(out.mappings.len(), 1);
        assert!(out.mappings[0].is_empty());
    }

    #[test]
    fn deadline_in_the_past_times_out() {
        let g = labeled_clique(["A"; 10].as_slice());
        let p = Pattern::structural(labeled_clique(["A"; 8].as_slice()));
        let idx = GraphIndex::build(&g);
        let mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let order: Vec<usize> = (0..p.node_count()).collect();
        let cfg = SearchConfig {
            deadline: Some(Instant::now()),
            ..SearchConfig::default()
        };
        let out = search_indexed(&p, &g, Some(&idx), &mates, &order, &cfg);
        assert!(out.timed_out);
    }

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let g = labeled_clique(&["A"; 7]);
        let p = Pattern::structural(labeled_clique(&["A"; 4]));
        let seq = run(&p, &g, &SearchConfig::default());
        assert_eq!(seq.mappings.len(), 840, "7P4 ordered embeddings");
        for threads in [0, 2, 3, 8] {
            let par = run(
                &p,
                &g,
                &SearchConfig {
                    threads,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(par.mappings, seq.mappings, "threads={threads}");
            assert_eq!(par.edge_bindings, seq.edge_bindings, "threads={threads}");
        }
    }

    /// Tracing changes nothing observable; each explored chunk is
    /// recorded, and under parallel execution events land on worker
    /// threads.
    #[test]
    fn traced_search_is_equivalent_and_records_chunks() {
        let g = labeled_clique(&["A"; 7]);
        let p = Pattern::structural(labeled_clique(&["A"; 4]));
        let seq = run(&p, &g, &SearchConfig::default());
        for threads in [1, 2, 8] {
            let tel = Arc::new(Telemetry::new().with_tracing());
            let traced = run(
                &p,
                &g,
                &SearchConfig {
                    threads,
                    trace: Some(Arc::clone(&tel)),
                    ..SearchConfig::default()
                },
            );
            assert_eq!(traced.mappings, seq.mappings, "threads={threads}");
            assert_eq!(traced.steps, seq.steps, "threads={threads}");
            let events = tel.events();
            assert!(!events.is_empty(), "threads={threads}");
            let steps: u64 = events
                .iter()
                .flat_map(|e| &e.args)
                .filter(|(k, _)| *k == "steps")
                .map(|(_, v)| match v {
                    gql_core::ArgValue::UInt(n) => *n,
                    _ => 0,
                })
                .sum();
            assert_eq!(steps, seq.steps, "chunk steps sum, threads={threads}");
        }
    }

    #[test]
    fn parallel_respects_caps_and_first_match() {
        let g = labeled_clique(&["A"; 7]);
        let p = Pattern::structural(labeled_clique(&["A"; 4]));
        let seq_cap = run(
            &p,
            &g,
            &SearchConfig {
                max_matches: 17,
                ..SearchConfig::default()
            },
        );
        let seq_first = run(
            &p,
            &g,
            &SearchConfig {
                exhaustive: false,
                ..SearchConfig::default()
            },
        );
        for threads in [2, 8] {
            let par_cap = run(
                &p,
                &g,
                &SearchConfig {
                    max_matches: 17,
                    threads,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(par_cap.mappings, seq_cap.mappings, "threads={threads}");
            let par_first = run(
                &p,
                &g,
                &SearchConfig {
                    exhaustive: false,
                    threads,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(par_first.mappings, seq_first.mappings, "threads={threads}");
        }
    }

    /// The interned edge-check plan accepts/rejects exactly the data
    /// edges `edge_feasible` does: labeled edges, unlabeled edges,
    /// unknown motif labels, and label+predicate combinations.
    #[test]
    fn indexed_search_matches_plain_search() {
        let mut g = Graph::new();
        let a = g.add_labeled_node("A");
        let b1 = g.add_labeled_node("B");
        let b2 = g.add_labeled_node("B");
        let b3 = g.add_labeled_node("B");
        g.add_edge(a, b1, Tuple::new().with("label", "x").with("w", 1))
            .unwrap();
        g.add_edge(a, b2, Tuple::new().with("label", "x").with("w", 9))
            .unwrap();
        g.add_edge(a, b3, Tuple::new().with("label", "y").with("w", 9))
            .unwrap();
        let idx = GraphIndex::build(&g);

        let mk_motif = |edge_label: Option<&str>| {
            let mut m = Graph::new();
            let x = m.add_labeled_node("A");
            let y = m.add_labeled_node("B");
            let attrs = match edge_label {
                Some(l) => Tuple::new().with("label", l),
                None => Tuple::new(),
            };
            m.add_edge(x, y, attrs).unwrap();
            m
        };
        let w_gt_5 = Expr::binary(
            BinOp::Gt,
            Expr::EdgeAttr {
                edge: 0,
                attr: "w".into(),
            },
            Expr::Literal(5.into()),
        );
        let patterns = [
            Pattern::structural(mk_motif(None)),        // no constraint
            Pattern::structural(mk_motif(Some("x"))),   // label only
            Pattern::structural(mk_motif(Some("zzz"))), // unknown label
            Pattern::new(mk_motif(Some("x")), vec![w_gt_5.clone()]), // label + pred
            Pattern::new(mk_motif(None), vec![w_gt_5]), // pred only
        ];
        let expected = [3, 2, 0, 1, 2];
        for (p, want) in patterns.iter().zip(expected) {
            let mates = feasible_mates(p, &g, &idx, LocalPruning::NodeAttributes);
            let order: Vec<usize> = (0..p.node_count()).collect();
            for threads in [1, 4] {
                let cfg = SearchConfig {
                    threads,
                    ..SearchConfig::default()
                };
                let plain = search_indexed(p, &g, None, &mates, &order, &cfg);
                let fast = search_indexed(p, &g, Some(&idx), &mates, &order, &cfg);
                assert_eq!(fast.mappings, plain.mappings, "threads={threads}");
                assert_eq!(fast.edge_bindings, plain.edge_bindings);
                assert_eq!(fast.steps, plain.steps);
                assert_eq!(plain.mappings.len(), want);
            }
        }
    }

    #[test]
    fn indexed_search_respects_directed_orientation() {
        let mut g = Graph::new_directed();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        g.add_edge(a, b, Tuple::new().with("label", "x")).unwrap();
        let idx = GraphIndex::build(&g);

        let mut fwd = Graph::new_directed();
        let x = fwd.add_labeled_node("A");
        let y = fwd.add_labeled_node("B");
        fwd.add_edge(x, y, Tuple::new().with("label", "x")).unwrap();
        let p = Pattern::structural(fwd);
        let mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let order = vec![0, 1];
        let cfg = SearchConfig::default();
        let out = search_indexed(&p, &g, Some(&idx), &mates, &order, &cfg);
        assert_eq!(out.mappings.len(), 1);
    }

    /// Pre-fix, the deadline was polled only when `steps % 1024 == 0`,
    /// `steps` did not count injectivity skips or `Check` edge probes,
    /// and each root chunk restarted its counter — so a ~1ms budget on a
    /// large clique could overshoot by orders of magnitude. The fixed
    /// work-based cadence must return promptly at any thread count.
    #[test]
    fn tight_deadline_returns_promptly() {
        use std::time::Duration;
        // 24-clique / 12-node pattern: an exhaustive run is astronomically
        // large (24P12 ≈ 1.3e15 embeddings), so finishing at all within
        // the allowance proves the deadline fired, not exhaustion.
        let g = labeled_clique(["A"; 24].as_slice());
        let p = Pattern::structural(labeled_clique(["A"; 12].as_slice()));
        let idx = GraphIndex::build(&g);
        let mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let order: Vec<usize> = (0..p.node_count()).collect();
        for threads in [1, 8] {
            let cfg = SearchConfig {
                deadline: Some(Instant::now() + Duration::from_millis(1)),
                threads,
                ..SearchConfig::default()
            };
            let started = Instant::now();
            let out = search_indexed(&p, &g, Some(&idx), &mates, &order, &cfg);
            let elapsed = started.elapsed();
            assert!(out.timed_out, "threads={threads}");
            // Generous bound for slow CI machines; the pre-fix code blows
            // way past it (the 1024-step stride alone visits millions of
            // edge probes between polls on this workload).
            assert!(
                elapsed < Duration::from_millis(250),
                "threads={threads}: deadline overshot, took {elapsed:?}"
            );
        }
    }

    #[test]
    fn parallel_deadline_in_the_past_times_out() {
        let g = labeled_clique(["A"; 10].as_slice());
        let p = Pattern::structural(labeled_clique(["A"; 8].as_slice()));
        let idx = GraphIndex::build(&g);
        let mates = feasible_mates(&p, &g, &idx, LocalPruning::NodeAttributes);
        let order: Vec<usize> = (0..p.node_count()).collect();
        let cfg = SearchConfig {
            deadline: Some(Instant::now()),
            threads: 4,
            ..SearchConfig::default()
        };
        let out = search_indexed(&p, &g, Some(&idx), &mates, &order, &cfg);
        assert!(out.timed_out);
    }
}
