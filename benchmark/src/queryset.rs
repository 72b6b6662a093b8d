//! The two read-only workloads: one data graph `G` in an in-memory
//! `Database`, and a fixed list of FLWR programs run through
//! `Database::execute` pass after pass.

use crate::replay::{self, outcome_digest};
use crate::run::{Recorder, RunCfg, Workload};
use crate::stats::Digest;
use gql_core::{Graph, Value};
use gql_datagen::{
    clique_queries, erdos_renyi, ppi_network, subgraph_queries, ErConfig, PpiConfig,
};
use gql_engine::Database;
use gql_match::{match_pattern, GraphIndex, MatchOptions, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::Path;

/// The paper's protocol (§5.1): queries with more than 1000 answers are
/// terminated and dropped, as are — on the synthetic graphs — queries
/// with none.
pub const MAX_HITS: usize = 1000;

pub struct QueryInputs {
    pub graph: Graph,
    pub programs: Vec<String>,
}

/// Gives every node an `id` attribute, so that a result graph names the
/// data nodes it was matched on and the result digest pins the mapping,
/// not just the match count (labels alone are fixed by the pattern).
pub fn with_ids(mut g: Graph) -> Graph {
    for i in 0..g.node_count() {
        g.node_mut(gql_core::NodeId(i as u32))
            .attrs
            .set("id", i as i64);
    }
    g
}

/// Renders a structural query as a one-statement FLWR program over
/// `doc(source)`: label constraints only, exhaustive, returning one
/// graph per match that mirrors the pattern and carries the matched
/// nodes' ids and labels.
pub fn render_program(q: &Graph, source: &str) -> String {
    let mut s = String::from("for graph Q {\n");
    for (id, _) in q.nodes() {
        let label = q
            .node_label(id)
            .cloned()
            .unwrap_or(Value::Str(String::new()));
        let _ = writeln!(s, "  node n{} <label={label}>;", id.0);
    }
    for (id, e) in q.edges() {
        let _ = writeln!(s, "  edge e{} (n{}, n{});", id.0, e.src.0, e.dst.0);
    }
    let _ = writeln!(s, "}} exhaustive in doc(\"{source}\")\nreturn graph {{");
    for (id, _) in q.nodes() {
        let _ = writeln!(s, "  node m{0} <id=Q.n{0}.id, label=Q.n{0}.label>;", id.0);
    }
    for (id, e) in q.edges() {
        let _ = writeln!(s, "  edge r{} (m{}, m{});", id.0, e.src.0, e.dst.0);
    }
    s.push_str("};\n");
    s
}

/// Search effort above which a query is dropped, like one with too many
/// answers: a rare size-8 query has few answers yet takes 10^8 DFS steps
/// (seconds), and one of those in a list of 100 would be the whole
/// measurement. 10^5 steps is a few milliseconds.
pub const MAX_SEARCH_STEPS: u64 = 100_000;

/// Number of answers of `q` in `g`, or `None` if it has more than
/// [`MAX_HITS`] or needs more than [`MAX_SEARCH_STEPS`]. The time limit
/// only stops the counting of a search that is already far past the
/// step cap, so the verdict does not depend on timing.
fn hits(q: &Graph, g: &Graph, index: &GraphIndex) -> Option<usize> {
    let opts = MatchOptions {
        max_matches: MAX_HITS + 1,
        time_limit: Some(std::time::Duration::from_millis(500)),
        report_baseline_space: false,
        ..MatchOptions::optimized()
    };
    let report = match_pattern(&Pattern::structural(q.clone()), g, index, &opts);
    let within = !report.timed_out
        && report.search_steps <= MAX_SEARCH_STEPS
        && report.mappings.len() <= MAX_HITS;
    within.then_some(report.mappings.len())
}

/// `q` with every attribute but the node labels removed: an extracted
/// subgraph carries its nodes' ids, which would pin each pattern node to
/// the one data node it was cut from.
fn label_only(q: &Graph) -> Graph {
    let mut out = Graph::new();
    for (id, _) in q.nodes() {
        let label = q
            .node_label(id)
            .cloned()
            .unwrap_or(Value::Str(String::new()));
        out.add_labeled_node(label);
    }
    for (_, e) in q.edges() {
        out.add_edge(e.src, e.dst, gql_core::Tuple::new())
            .expect("edges of a simple graph stay unique");
    }
    out
}

/// `count` connected-subgraph queries of `size` nodes that have between
/// 1 and [`MAX_HITS`] answers in `g` within [`MAX_SEARCH_STEPS`].
pub fn answerable_subgraph_queries(g: &Graph, size: usize, count: usize, seed: u64) -> Vec<Graph> {
    let index = GraphIndex::build_with_profiles(g, 1);
    let mut out = Vec::with_capacity(count);
    let mut round = 0;
    while out.len() < count && round < 8 {
        for q in subgraph_queries(g, size, count, seed.wrapping_add(round)) {
            let q = label_only(&q);
            if out.len() < count && hits(&q, g, &index).is_some_and(|n| n >= 1) {
                out.push(q);
            }
        }
        round += 1;
    }
    out
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// State shared by both workloads.
pub struct QuerySet {
    db: Database,
    programs: Vec<String>,
    reference: Vec<Digest>,
}

impl QuerySet {
    fn setup(inputs: QueryInputs) -> Result<QuerySet, String> {
        // threads = 1: the second core is left to the OS.
        let mut db = Database::new().with_threads(1);
        db.add_graph("G", inputs.graph);
        let mut reference = Vec::with_capacity(inputs.programs.len());
        for p in &inputs.programs {
            let out = db.execute(p).map_err(|e| format!("warm-up: {e}"))?;
            reference.push(outcome_digest(&out));
        }
        Ok(QuerySet {
            db,
            programs: inputs.programs,
            reference,
        })
    }

    fn oracle_check(&self, seed: u64) -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dac1e);
        let sample = (self.programs.len() / 20).max(1);
        let mut wrong = 0;
        for _ in 0..sample {
            let i = rng.gen_range(0..self.programs.len());
            if replay::baseline_answer(&self.programs[i], &self.db) != self.reference[i] {
                wrong += 1;
            }
        }
        (sample as u64, wrong)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        for (i, p) in self.programs.iter().enumerate() {
            let out = replay::execute(&mut self.db, p, "G", "query", rec);
            if let Some(out) = out {
                let got = outcome_digest(&out);
                let want = self.reference[i];
                rec.check(got == want, || {
                    format!("op {i}: digest {got}, warm-up had {want}")
                });
            }
        }
    }

    fn input_bytes(inputs: &QueryInputs) -> Vec<u8> {
        let mut s = format!("{};\n", inputs.graph);
        for p in &inputs.programs {
            s.push_str(p);
        }
        s.into_bytes()
    }
}

/// `er100k_subgraph8`.
pub struct ErSubgraph(QuerySet);

pub fn er_nodes(quick: bool) -> usize {
    if quick {
        10_000
    } else {
        100_000
    }
}

impl Workload for ErSubgraph {
    const NAME: &'static str = "er100k_subgraph8";
    type Inputs = QueryInputs;

    fn generate(seed: u64, quick: bool) -> QueryInputs {
        let graph = with_ids(erdos_renyi(&ErConfig::paper_default(er_nodes(quick), seed)));
        let count = if quick { 20 } else { 100 };
        let programs = answerable_subgraph_queries(&graph, 8, count, seed)
            .iter()
            .map(|q| render_program(q, "G"))
            .collect();
        QueryInputs { graph, programs }
    }

    fn input_bytes(inputs: &QueryInputs) -> Vec<u8> {
        QuerySet::input_bytes(inputs)
    }

    fn setup(inputs: QueryInputs, _cfg: &RunCfg, _work: &Path) -> Result<Self, String> {
        QuerySet::setup(inputs).map(ErSubgraph)
    }

    fn reference(&self) -> Vec<Digest> {
        self.0.reference.clone()
    }

    fn oracle_check(&self, seed: u64) -> (u64, u64) {
        self.0.oracle_check(seed)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.0.pass(rec);
    }

    /// The thread rung (traced runs only, never held to a bound): the
    /// first 20 programs again on a database with one worker per core.
    fn finish(self, rec: &mut Recorder) {
        let Some(tracer) = &rec.tracer else { return };
        let n = self.0.programs.len().min(20);
        let single_ns: u64 = tracer
            .spans
            .iter()
            .filter(|s| s.name == "engine.execute" && (s.op as usize) < n)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let graph = self.0.db.collection("G").and_then(|c| c.get(0)).cloned();
        let Some(graph) = graph else { return };
        let mut db = Database::new().with_threads(0);
        db.add_graph("G", graph);
        let mut multi_ns = 0u64;
        for timed in [false, true] {
            for p in &self.0.programs[..n] {
                let start = std::time::Instant::now();
                let ok = db.execute(p).is_ok();
                if timed {
                    multi_ns += start.elapsed().as_nanos() as u64;
                    rec.attempted += 1;
                    rec.check(ok, || "thread rung: execute failed".to_string());
                }
            }
        }
        rec.extra.insert(
            "parallel_speedup",
            single_ns as f64 / multi_ns.max(1) as f64,
        );
    }
}

/// `ppi_clique_short`.
pub struct PpiClique(QuerySet);

/// Per clique size 2..=5: how many of its 100 queries have at least one
/// answer. Fixed, so that the median op is always an unanswered query
/// (parse + compile + plan + an empty retrieval: the fixed per-query
/// cost) and the 95th percentile always an answered one, whatever the
/// seed; the natural answered rates fall from ~95% to ~8% over these
/// sizes.
const PPI_ANSWERED: [usize; 4] = [80, 50, 20, 10];
const PPI_PER_SIZE: usize = 100;

impl Workload for PpiClique {
    const NAME: &'static str = "ppi_clique_short";
    type Inputs = QueryInputs;

    fn generate(seed: u64, _quick: bool) -> QueryInputs {
        // The network is the paper's one fixed dataset (§5.1); the seed
        // draws the queries.
        let graph = with_ids(ppi_network(&PpiConfig::default()));
        let index = GraphIndex::build_with_profiles(&graph, 1);
        let mut queries = Vec::with_capacity(4 * PPI_PER_SIZE);
        for (size, answered_quota) in (2..=5).zip(PPI_ANSWERED) {
            let mut answered = Vec::new();
            let mut unanswered = Vec::new();
            let unanswered_quota = PPI_PER_SIZE - answered_quota;
            for round in 0..64u64 {
                if answered.len() >= answered_quota && unanswered.len() >= unanswered_quota {
                    break;
                }
                let batch_seed = seed
                    .wrapping_mul(31)
                    .wrapping_add(size as u64 * 1000 + round);
                for q in clique_queries(&graph, size, PPI_PER_SIZE, batch_seed) {
                    match hits(&q, &graph, &index) {
                        Some(0) => unanswered.push(q),
                        Some(_) => answered.push(q),
                        None => {}
                    }
                }
            }
            // A seed that cannot fill a quota (never seen) still yields
            // a full list of runnable queries of this size.
            answered.truncate(answered_quota);
            let missing = answered_quota - answered.len();
            unanswered.truncate(unanswered_quota + missing);
            queries.extend(answered);
            queries.extend(unanswered);
        }
        shuffle(&mut queries, &mut StdRng::seed_from_u64(seed));
        let programs = queries.iter().map(|q| render_program(q, "G")).collect();
        QueryInputs { graph, programs }
    }

    fn input_bytes(inputs: &QueryInputs) -> Vec<u8> {
        QuerySet::input_bytes(inputs)
    }

    fn setup(inputs: QueryInputs, _cfg: &RunCfg, _work: &Path) -> Result<Self, String> {
        QuerySet::setup(inputs).map(PpiClique)
    }

    fn reference(&self) -> Vec<Digest> {
        self.0.reference.clone()
    }

    fn oracle_check(&self, seed: u64) -> (u64, u64) {
        self.0.oracle_check(seed)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        self.0.pass(rec);
    }

    fn finish(self, _rec: &mut Recorder) {}
}
