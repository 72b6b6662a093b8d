//! The graph database: named collections, declared patterns, graph
//! variables, and program execution (§3.4's FLWR semantics).

use crate::error::{EngineError, Result};
use crate::metrics::{MetricsRegistry, SlowQuery};
use crate::server::MetricsServer;
use gql_algebra::{compile_pattern, ops, CompiledPattern, PatternRegistry, TemplateEnv};
use gql_core::storage::{encode_collection, encode_graph};
use gql_core::{
    ArgValue, ExplainNode, Graph, GraphCollection, ObsMark, ObsReport, Span, Telemetry,
};
use gql_match::{GraphIndex, GraphSnapshot, IndexParts, MatchOptions, Pattern, Planner};
use gql_parser::ast::{FlwrAst, FlwrBody, GraphTemplateAst, PatternRef, Program, Statement};
use gql_parser::parse_program;
use gql_storage::{CollectionSnapshot, OpenOptions, Snapshot, Store, StoredOptions, WalRecord};
use rustc_hash::FxHashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Result of executing a program: every `return` clause contributes one
/// collection, in order.
#[derive(Debug, Default)]
pub struct ExecOutcome {
    /// Collections produced by `return` templates (one entry per FLWR
    /// statement with a `return` body; each entry has one graph per
    /// match).
    pub returned: Vec<GraphCollection>,
}

/// The index configuration this engine builds (and therefore
/// checkpoints) under — a checkpoint's record must match it at reopen
/// for the checkpointed derived sections to be adopted.
const STORED_OPTIONS: StoredOptions = StoredOptions {
    csr: true,
    prop_index: true,
    profiles: true,
    radius: 1,
};

/// A GraphQL database: "one or more collections of graphs" (§3.1) plus
/// the session state a program builds up (declared patterns and graph
/// variables).
pub struct Database {
    collections: FxHashMap<String, GraphCollection>,
    registry: PatternRegistry,
    compiled: FxHashMap<String, CompiledPattern>,
    vars: FxHashMap<String, Graph>,
    /// Per-collection immutable read-path snapshots (σ indexes +
    /// planner, stamped with a generation), built lazily on first query
    /// and handed out as `Arc`s until the collection is replaced —
    /// mutations drop the entry and the next query builds the *next*
    /// generation and swaps the `Arc`. Readers (including mapped
    /// checkpoint pages backing adopted index slabs) stay valid for as
    /// long as they hold the old snapshot.
    snapshots: FxHashMap<String, Arc<GraphSnapshot>>,
    /// Checkpointed index sections decoded at open (zero-copy views
    /// into the mapped segment) but not yet validated or published:
    /// adoption runs on the collection's *first read*, so a cold open
    /// stays O(manifest + directory) and collections a session never
    /// touches never fault in (or copy) their index pages at all.
    /// Retired alongside [`Database::snapshots`] on mutation.
    adoptable: FxHashMap<String, Vec<IndexParts>>,
    /// Monotonic generation source for [`Database::snapshots`]: every
    /// snapshot this engine builds gets a strictly larger epoch, so a
    /// plan compiled against one generation can never be replayed
    /// against another.
    next_generation: u64,
    /// Matching options used by `for` clauses (the `exhaustive` keyword
    /// still overrides the `exhaustive` field per query). The engine
    /// default skips the §5 baseline-space recomputation — it never
    /// reads the ratio report — and runs single-threaded; see
    /// [`Database::with_threads`]. Its `telemetry` handle is what the
    /// `enable_*` methods, [`Database::set_slow_query_threshold`] and
    /// [`Database::serve_metrics`] switch on.
    pub options: MatchOptions,
    /// `EXPLAIN ANALYZE` trees of executed FLWR statements, collected in
    /// execution order once [`Database::enable_explain`] was called
    /// (the handle also builds trees for the slow-query log alone).
    explain_trees: Option<Vec<ExplainNode>>,
    /// Wall-clock threshold above which a FLWR statement is logged with
    /// its ANALYZE tree in the registry's slow ring (`None` = slow-query
    /// log off).
    slow_threshold: Option<Duration>,
    /// Baseline of the registry taken by [`Database::enable_profiling`];
    /// the profile report is everything recorded since.
    profile: Option<ObsMark>,
    /// Attached persistence layer ([`Database::open`]); `None` for an
    /// in-memory database. Mutations are WAL-logged as they happen;
    /// [`Database::checkpoint`] folds them into a segment.
    store: Option<Store>,
    /// Whether the checkpoint segment backing this database was
    /// memory-mapped at open (false for in-memory databases, owned
    /// opens, and fresh directories with no checkpoint yet).
    mapped: bool,
    /// First WAL-append failure, if any. Mutation methods stay
    /// infallible; the deferred error surfaces at the next
    /// [`Database::checkpoint`] / [`Database::close`] so a disk-full
    /// condition cannot be silently dropped.
    store_error: Option<String>,
    /// The always-on metrics plane: the storage layer records into its
    /// [`Obs`] for the database's whole lifetime, and the live
    /// endpoints ([`Database::serve_metrics`]) read from it.
    metrics: Arc<MetricsRegistry>,
    /// The running metrics server, if [`Database::serve_metrics`] was
    /// called; dropped (and stopped) with the database.
    metrics_server: Option<MetricsServer>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// An empty database with default (optimized) matching options.
    pub fn new() -> Self {
        Database {
            collections: FxHashMap::default(),
            registry: PatternRegistry::default(),
            compiled: FxHashMap::default(),
            vars: FxHashMap::default(),
            snapshots: FxHashMap::default(),
            adoptable: FxHashMap::default(),
            next_generation: 0,
            options: MatchOptions {
                report_baseline_space: false,
                ..MatchOptions::default()
            },
            explain_trees: None,
            slow_threshold: None,
            profile: None,
            store: None,
            store_error: None,
            mapped: false,
            metrics: MetricsRegistry::new(),
            metrics_server: None,
        }
    }

    /// Opens (creating if absent) a persistent database at `dir`: loads
    /// the published checkpoint segment, replays the WAL over it
    /// (truncating any torn tail), and — when the checkpoint was written
    /// under the same index options — adopts the checkpointed index
    /// arrays instead of rebuilding them. Adoption is validated on each
    /// collection's *first read*, so a cold open costs O(manifest +
    /// directory) and untouched collections never fault in their index
    /// sections; collections touched by WAL records since the
    /// checkpoint re-index lazily on first query.
    pub fn open(dir: &Path) -> Result<Database> {
        Database::open_with(dir, OpenOptions::default())
    }

    /// [`Database::open`] with explicit storage options: `opts.mmap`
    /// controls whether the checkpoint segment is memory-mapped (the
    /// default; index slabs then adopt the mapped pages zero-copy and
    /// fault in on demand) or read into owned memory (the reference the
    /// mmap equivalence suite compares against), and `opts.verify`
    /// forces an eager whole-file checksum pass
    /// (`--verify-checkpoint`) instead of the default lazy per-section
    /// policy.
    pub fn open_with(dir: &Path, opts: OpenOptions) -> Result<Database> {
        // The registry exists before the store so recovery itself is
        // instrumented: WAL replay/torn-tail counters, segment open
        // counters, and the size gauges land in the same Obs the live
        // endpoints serve.
        let mut db = Database::new();
        let (store, restored) = Store::open_observed(dir, opts, Arc::clone(db.metrics.obs()))?;
        db.mapped = restored.mapped;
        let adopt = restored.options.as_ref() == Some(&STORED_OPTIONS);
        for rc in restored.collections {
            let mut coll = GraphCollection::named(&rc.name);
            for g in rc.graphs {
                coll.push(g);
            }
            if adopt {
                if let Some(parts) = rc.indexes {
                    if parts.len() == coll.len() {
                        // Defer validation/publication to first touch:
                        // the decoded parts are zero-copy views into
                        // the (possibly mapped) segment, so untouched
                        // collections cost nothing past the directory.
                        db.adoptable.insert(rc.name.clone(), parts);
                    }
                }
            }
            db.collections.insert(rc.name, coll);
        }
        for (name, g) in restored.vars {
            db.vars.insert(name, g);
        }
        db.store = Some(store);
        Ok(db)
    }

    /// Whether the checkpoint segment behind this database is
    /// memory-mapped (adopted index slabs then read straight from the
    /// page cache).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The data directory this database persists to, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir())
    }

    /// Appends one mutation record to the WAL (no-op without a store).
    /// Failures are deferred to [`Database::checkpoint`]/[`Database::close`].
    fn log_wal(&mut self, rec: WalRecord) {
        if let Some(store) = &mut self.store {
            if let Err(e) = store.log(&rec) {
                self.metrics.note_storage_error(&e.to_string());
                self.store_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// The first deferred WAL-append failure, if any. [`Database::checkpoint`]
    /// and [`Database::close`] also surface (and clear) it as an error.
    pub fn storage_error(&self) -> Option<&str> {
        self.store_error.as_deref()
    }

    /// Writes a checkpoint: every collection (with its index arrays) and
    /// variable is serialized into a fresh segment, atomically
    /// published, and the WAL is truncated. Snapshots not yet built are
    /// built now, exactly as a query would build them, so the
    /// checkpoint always carries the indexes. Errors if any earlier WAL
    /// append failed.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(err) = self.store_error.take() {
            return Err(EngineError::Storage(err));
        }
        if self.store.is_none() {
            return Err(EngineError::Storage(
                "no data directory attached; use Database::open".into(),
            ));
        }
        let mut snap = Snapshot {
            options: Some(STORED_OPTIONS),
            ..Snapshot::default()
        };
        let mut names: Vec<String> = self.collections.keys().cloned().collect();
        names.sort();
        let opts = self.options.clone();
        for name in names {
            let (snapshot, _) = self.read_snapshot(&name, &opts)?;
            snap.collections.push(CollectionSnapshot {
                payload: encode_collection(self.collections[&name].iter()),
                indexes: snapshot.indexes().iter().map(|ix| ix.to_parts()).collect(),
                name,
            });
        }
        let mut vars: Vec<(&String, &Graph)> = self.vars.iter().collect();
        vars.sort_by_key(|(n, _)| n.as_str());
        snap.vars = vars
            .into_iter()
            .map(|(n, g)| (n.clone(), encode_graph(g)))
            .collect();
        let result = self
            .store
            .as_mut()
            .expect("checked above")
            .checkpoint(&snap);
        match &result {
            Ok(()) => self.metrics.note_checkpoint(Ok(())),
            Err(e) => self.metrics.note_checkpoint(Err(&e.to_string())),
        }
        result?;
        Ok(())
    }

    /// Checkpoints (when a store is attached) and consumes the
    /// database — the clean-shutdown path. Reopening after `close`
    /// loads segments instead of rebuilding indexes.
    pub fn close(mut self) -> Result<()> {
        if self.store.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Committed WAL size in bytes (`None` without a store; `0` right
    /// after a checkpoint).
    pub fn wal_size(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.wal_size())
    }

    /// Sets the worker-thread count used by σ evaluation (`0` = one per
    /// available core; `1` = sequential). Results are identical for any
    /// setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Retires one collection's snapshot on mutation: removes the map
    /// entry (holders of the `Arc` keep their consistent view) and
    /// invalidates its planner so plans compiled against the retired
    /// generation can never be replayed against the new data.
    fn retire_snapshot(&mut self, name: &str) {
        self.adoptable.remove(name);
        if let Some(s) = self.snapshots.remove(name) {
            if let Some(pl) = s.planner() {
                pl.invalidate();
            }
        }
    }

    /// The immutable read-path snapshot currently serving a collection,
    /// if one has been built (by a query, a checkpoint, or adoption at
    /// open) since the collection was last replaced. Holders keep a
    /// consistent view across subsequent mutations — the engine swaps
    /// in a new generation rather than touching this one.
    pub fn snapshot(&self, source: &str) -> Option<&Arc<GraphSnapshot>> {
        self.snapshots.get(source)
    }

    /// Rebuilds the engine's telemetry handle with one more output on
    /// (the registry and any trace buffer carry over) and returns it.
    fn retool(&mut self, f: impl FnOnce(Telemetry) -> Telemetry) -> Arc<Telemetry> {
        let current = self.options.telemetry.as_deref().cloned();
        let tel = Arc::new(f(current.unwrap_or_default()));
        self.options.telemetry = Some(Arc::clone(&tel));
        tel
    }

    /// Starts a profile: every subsequent query records per-phase
    /// timings and pipeline counters into the metrics registry, and
    /// [`Database::profile_report`] reports what was recorded from now
    /// on (open-time storage metrics excluded). The registry itself is
    /// not cleared, so health signals and `/metrics` keep their
    /// lifetime values.
    pub fn enable_profiling(&mut self) {
        let obs = Arc::clone(self.metrics.obs());
        self.profile = Some(obs.mark());
        self.retool(|t| t.with_obs(obs));
    }

    /// The always-on metrics plane: storage-layer metrics, query-id
    /// allocation, health state, and the slow-query ring that
    /// [`Database::serve_metrics`] exposes over HTTP.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Starts the live telemetry endpoints on `addr` (`/metrics`,
    /// `/healthz`, `/slow`; port 0 picks an ephemeral port — the bound
    /// address is returned). Subsequent queries aggregate into the
    /// registry the endpoints read. The server runs on a background
    /// thread and answers mid-query; it stops when the database is
    /// dropped.
    pub fn serve_metrics(&mut self, addr: impl ToSocketAddrs) -> Result<SocketAddr> {
        let obs = Arc::clone(self.metrics.obs());
        self.retool(|t| t.with_obs(obs));
        let server = crate::server::serve(Arc::clone(&self.metrics), addr)
            .map_err(|e| EngineError::Metrics(e.to_string()))?;
        let addr = server.addr();
        self.metrics_server = Some(server);
        Ok(addr)
    }

    /// The bound address of the running metrics server, if any.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.addr())
    }

    /// What queries recorded since [`Database::enable_profiling`] (the
    /// whole registry when only a metrics server attached it; empty
    /// when neither did).
    pub fn profile_report(&self) -> ObsReport {
        let Some(obs) = self.options.telemetry.as_deref().and_then(Telemetry::obs) else {
            return ObsReport::default();
        };
        match &self.profile {
            Some(mark) => obs.report_since(mark),
            None => obs.report(),
        }
    }

    /// Starts a fresh trace buffer: every subsequent query records
    /// per-phase and fine-grained events into it. Returns the telemetry
    /// handle whose [`Telemetry::events`] /
    /// [`Telemetry::render_chrome_json`] export them.
    pub fn enable_tracing(&mut self) -> Arc<Telemetry> {
        self.retool(Telemetry::with_tracing)
    }

    /// Turns on `EXPLAIN ANALYZE` collection: each executed FLWR
    /// statement appends its operator tree to
    /// [`Database::explain_trees`].
    pub fn enable_explain(&mut self) {
        self.explain_trees.get_or_insert_with(Vec::new);
        self.retool(Telemetry::with_explain);
    }

    /// Operator trees of the FLWR statements executed since explain was
    /// enabled, in execution order.
    pub fn explain_trees(&self) -> &[ExplainNode] {
        self.explain_trees.as_deref().unwrap_or_default()
    }

    /// Enables the slow-query log: any FLWR statement whose wall-clock
    /// time reaches `threshold` is recorded in the registry's bounded
    /// slow ring together with its `EXPLAIN ANALYZE` tree (captured
    /// automatically — explain need not be enabled).
    pub fn set_slow_query_threshold(&mut self, threshold: Duration) {
        self.slow_threshold = Some(threshold);
        self.retool(Telemetry::with_explain);
    }

    /// The most recent statements that met the slow-query threshold,
    /// oldest first — at most [`SLOW_RING_CAP`](crate::metrics::SLOW_RING_CAP)
    /// of [`MetricsRegistry::slow_total`].
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.metrics.slow_queries()
    }

    /// Registers a collection under `name` (the target of
    /// `doc("name")`), invalidating any cached indexes for it. With a
    /// store attached, the full new contents are WAL-logged first.
    pub fn add_collection(&mut self, name: impl Into<String>, c: GraphCollection) {
        let name = name.into();
        // Drop our snapshot handle *and* evict any plans still
        // referenced by in-flight clones of its Arc (none in practice,
        // but the generation bump makes staleness structurally
        // impossible). The next query mints the next generation.
        self.retire_snapshot(&name);
        if self.store.is_some() {
            self.log_wal(WalRecord::PutCollection {
                name: name.clone(),
                payload: encode_collection(c.iter()),
            });
        }
        self.collections.insert(name, c);
    }

    /// Registers a single large graph as a one-graph collection,
    /// invalidating any cached indexes for it. With a store attached,
    /// the graph is WAL-logged first.
    pub fn add_graph(&mut self, name: impl Into<String>, g: Graph) {
        let name = name.into();
        self.retire_snapshot(&name);
        if self.store.is_some() {
            self.log_wal(WalRecord::PutCollection {
                name: name.clone(),
                payload: encode_collection([&g]),
            });
        }
        self.collections
            .insert(name, GraphCollection::from_graph(g));
    }

    /// Drops a collection (and its cached indexes and planner). With a
    /// store attached, a tombstone record is WAL-logged; the next
    /// checkpoint's compaction pass makes the deletion physical.
    /// Returns whether the collection existed.
    pub fn remove_collection(&mut self, name: &str) -> bool {
        self.retire_snapshot(name);
        let existed = self.collections.remove(name).is_some();
        if existed && self.store.is_some() {
            self.log_wal(WalRecord::DeleteCollection {
                name: name.to_string(),
            });
        }
        existed
    }

    /// Looks up a collection.
    pub fn collection(&self, name: &str) -> Option<&GraphCollection> {
        self.collections.get(name)
    }

    /// Iterates over the registered collections (unspecified order).
    pub fn collections(&self) -> impl Iterator<Item = (&str, &GraphCollection)> {
        self.collections.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The current value of a graph variable (e.g. the accumulator `C`
    /// after running Figure 4.12).
    pub fn var(&self, name: &str) -> Option<&Graph> {
        self.vars.get(name)
    }

    /// Iterates over all defined graph variables (name, value).
    pub fn vars(&self) -> impl Iterator<Item = (&str, &Graph)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A previously declared, compiled pattern.
    pub fn pattern(&self, name: &str) -> Option<&CompiledPattern> {
        self.compiled.get(name)
    }

    /// Parses and executes a whole program.
    pub fn execute(&mut self, src: &str) -> Result<ExecOutcome> {
        let program = parse_program(src)?;
        self.execute_program(&program)
    }

    /// Executes a parsed program.
    pub fn execute_program(&mut self, program: &Program) -> Result<ExecOutcome> {
        let mut outcome = ExecOutcome::default();
        for stmt in &program.statements {
            match stmt {
                Statement::Pattern(p) => {
                    let compiled = compile_pattern(p, &self.registry)?;
                    if let Some(name) = &p.name {
                        self.registry.insert(name.clone(), p.clone());
                        self.compiled.insert(name.clone(), compiled);
                    }
                }
                Statement::Assign { name, template } => {
                    let env = self.template_env(None);
                    let g = gql_algebra::instantiate(template, &env)?;
                    if self.store.is_some() {
                        self.log_wal(WalRecord::PutVar {
                            name: name.clone(),
                            payload: encode_graph(&g),
                        });
                    }
                    self.vars.insert(name.clone(), g);
                }
                Statement::Flwr(f) => {
                    if let Some(c) = self.eval_flwr(f)? {
                        outcome.returned.push(c);
                    }
                }
            }
        }
        Ok(outcome)
    }

    fn template_env<'a>(
        &'a self,
        param: Option<(&str, &'a gql_algebra::MatchedGraph)>,
    ) -> TemplateEnv<'a> {
        let mut env = TemplateEnv::new();
        for (k, v) in &self.vars {
            env.vars.insert(k.clone(), v);
        }
        if let Some((name, m)) = param {
            env.params.insert(name.to_string(), m);
        }
        env
    }

    /// The snapshot serving reads of `source` (which must exist) — a σ
    /// or a checkpoint — building the next generation if none is
    /// cached. Returns the `Arc` plus whether it was a cache hit.
    fn read_snapshot(
        &mut self,
        source: &str,
        opts: &MatchOptions,
    ) -> Result<(Arc<GraphSnapshot>, bool)> {
        if let Some(s) = self.snapshots.get(source) {
            return Ok((Arc::clone(s), true));
        }
        if let Some(snap) = self.adopt_pending(source)? {
            // The checkpoint *is* the cache: adopting it on first touch
            // is a hit, exactly like the pre-lazy behavior where
            // adoption happened at open.
            return Ok((snap, true));
        }
        self.next_generation += 1;
        let snap = ops::build_collection_snapshot(
            &self.collections[source],
            self.next_generation,
            Some(Arc::new(Planner::new())),
            opts,
        );
        self.snapshots.insert(source.to_string(), Arc::clone(&snap));
        Ok((snap, false))
    }

    /// Validates and publishes `name`'s checkpointed index parts, if a
    /// pending adoption exists. The mapped bytes are never trusted
    /// blindly: [`GraphIndex::from_parts`] re-checks every structural
    /// invariant and a rejection is a loud storage error surfaced to
    /// the query (or checkpoint) that first touched the collection.
    fn adopt_pending(&mut self, name: &str) -> Result<Option<Arc<GraphSnapshot>>> {
        let Some(parts) = self.adoptable.remove(name) else {
            return Ok(None);
        };
        let adopted: std::result::Result<Vec<Arc<GraphIndex>>, &'static str> = self.collections
            [name]
            .iter()
            .zip(parts)
            .map(|(g, p)| GraphIndex::from_parts(g, p).map(Arc::new))
            .collect();
        match adopted {
            Ok(ix) => {
                self.next_generation += 1;
                let snap = Arc::new(GraphSnapshot::new(
                    self.next_generation,
                    ix,
                    Some(Arc::new(Planner::new())),
                ));
                self.snapshots.insert(name.to_string(), Arc::clone(&snap));
                Ok(Some(snap))
            }
            Err(why) => {
                // A rejected adoption means the mapped index section is
                // corrupt (its CRC is deliberately deferred; structural
                // validation is its integrity check). Count it and
                // degrade /healthz — the error alone would vanish with
                // the failed query.
                self.metrics.obs().add("storage.crc_fail", 1);
                let msg = format!("checkpointed index for {name:?} rejected: {why}");
                self.metrics.note_storage_error(&msg);
                Err(EngineError::Storage(msg))
            }
        }
    }

    fn eval_flwr(&mut self, f: &FlwrAst) -> Result<Option<GraphCollection>> {
        // One span over the whole statement (pattern resolution, σ, and
        // the return/let body), on a handle of this statement's own so
        // that σ's published tree is this statement's.
        let tel = self
            .options
            .telemetry
            .as_deref()
            .map(|t| Arc::new(t.collecting()));
        let mut flwr = Span::timed(tel.as_deref(), "engine.flwr", "engine");
        // Statement-ordered id correlating this query's slow-log entry,
        // EXPLAIN tree, and trace events (deterministic for a fixed
        // program: thread count and open mode don't reorder statements).
        let query_id = self.metrics.next_query_id();
        // Per-query WAL attribution: the storage layer records into the
        // registry Obs unconditionally, so the delta across this
        // statement is exactly the WAL work it caused.
        let wal_work = |db: &Database| {
            let obs = db.metrics.obs();
            db.store.as_ref().map(|_| {
                let appends = obs.counter("storage.wal.appends").get();
                (appends, obs.counter("storage.wal.append_bytes").get())
            })
        };
        let wal_before = wal_work(self);
        // Resolve the pattern.
        let (compiled, pname) = match &f.pattern {
            PatternRef::Named(n) => (
                self.compiled
                    .get(n)
                    .cloned()
                    .ok_or_else(|| EngineError::UnknownPattern { name: n.clone() })?,
                n.clone(),
            ),
            PatternRef::Inline(ast) => {
                let c = compile_pattern(ast, &self.registry)?;
                let name = ast.name.clone().unwrap_or_else(|| "P".to_string());
                (c, name)
            }
        };

        // Fold the FLWR `where` into the pattern's predicate set so it is
        // pushed down and checked during matching.
        let compiled = match &f.where_clause {
            None => compiled,
            Some(w) => {
                let extra = gql_algebra::compile::resolve_pattern_expr(&compiled, w)?;
                let mut preds = compiled.pattern.global_preds.clone();
                for np in &compiled.pattern.node_preds {
                    preds.extend(np.iter().cloned());
                }
                for ep in &compiled.pattern.edge_preds {
                    preds.extend(ep.iter().cloned());
                }
                preds.push(extra);
                CompiledPattern {
                    pattern: Pattern::new(compiled.pattern.graph.clone(), preds),
                    ..compiled
                }
            }
        };

        if !self.collections.contains_key(&f.source) {
            return Err(EngineError::UnknownCollection {
                name: f.source.clone(),
            });
        }

        let mut opts = self.options.clone();
        opts.exhaustive = f.exhaustive;
        opts.telemetry = tel.clone();

        // σ against the collection's immutable snapshot: a stored
        // collection is indexed once and every subsequent query reuses
        // the snapshot's indexes and planner
        // (`add_collection`/`add_graph` retire the entry on mutation
        // and the next query swaps in the next generation).
        let (snapshot, cached) = self.read_snapshot(&f.source, &opts)?;
        if let Some(t) = &tel {
            let cache = if cached { "hits" } else { "misses" };
            t.count(&format!("engine.index_cache.{cache}"), 1);
        }
        let collection = &self.collections[&f.source];
        let matches = ops::select_with_snapshot(&compiled, collection, &snapshot, &opts)?;

        let result = {
            let mut compose = ops::compose_span(&opts);
            compose.arg("matches", ArgValue::UInt(matches.len() as u64));
            match &f.body {
                FlwrBody::Return(template) => {
                    let mut out = GraphCollection::new();
                    for m in &matches {
                        let env = self.template_env(Some((&pname, m)));
                        out.push(gql_algebra::instantiate(template, &env)?);
                    }
                    Some(out)
                }
                FlwrBody::Let { name, template } => {
                    // Sequential accumulation (Figure 4.13): each iteration
                    // sees the variable state left by the previous one.
                    for m in &matches {
                        let env = self.template_env(Some((&pname, m)));
                        let g = gql_algebra::instantiate(template, &env)?;
                        self.vars.insert(name.clone(), g);
                    }
                    // One WAL record for the whole loop: records carry
                    // full values, so only the final state matters.
                    if self.store.is_some() && !matches.is_empty() {
                        let payload = self.vars.get(name).map(encode_graph);
                        if let Some(payload) = payload {
                            self.log_wal(WalRecord::PutVar {
                                name: name.clone(),
                                payload,
                            });
                        }
                    }
                    // `let` over zero matches still defines the variable
                    // if a previous assignment did; otherwise leave it
                    // unset.
                    None
                }
            }
        };

        let elapsed = flwr.stop();
        if flwr.recording() {
            flwr.arg("query_id", ArgValue::UInt(query_id));
            flwr.arg("pattern", ArgValue::Str(pname.clone()));
            flwr.arg("source", ArgValue::Str(f.source.clone()));
            flwr.arg("exhaustive", ArgValue::Bool(f.exhaustive));
            flwr.arg("matches", ArgValue::UInt(matches.len() as u64));
            flwr.arg("elapsed_ms", ArgValue::Float(elapsed.as_secs_f64() * 1e3));
            // WAL work this statement caused (a `let` body logging its
            // final variable state). Deterministic: record counts and
            // byte sizes are logical quantities.
            if let (Some((a0, b0)), Some((a1, b1))) = (wal_before, wal_work(self)) {
                if a1 > a0 {
                    flwr.arg("wal_appends", ArgValue::UInt(a1 - a0));
                    flwr.arg("wal_bytes", ArgValue::UInt(b1 - b0));
                }
            }
        }
        if let Some(t) = tel.as_deref().filter(|t| t.explains()) {
            let mut ix = Span::node(t, "index");
            ix.arg("cached", ArgValue::Bool(cached));
            ix.arg("generation", ArgValue::UInt(snapshot.generation()));
            ix.arg("graphs", ArgValue::UInt(snapshot.indexes().len() as u64));
            flwr.child(ix.finish());
            flwr.child(t.take_published());
        }
        let slow = self.slow_threshold.is_some_and(|th| elapsed >= th);
        if slow {
            flwr.count("engine.slow_queries", 1);
        }
        if let Some(tree) = flwr.finish() {
            if slow {
                self.metrics.record_slow(SlowQuery {
                    id: query_id,
                    pattern: pname,
                    source: f.source.clone(),
                    elapsed,
                    explain: tree.clone(),
                });
            }
            if let Some(trees) = &mut self.explain_trees {
                trees.push(tree);
            }
        }
        Ok(result)
    }

    /// Runs `template` once with no pattern parameter — public so callers
    /// can instantiate ad-hoc templates against the database variables.
    pub fn instantiate(&self, template: &GraphTemplateAst) -> Result<Graph> {
        Ok(gql_algebra::instantiate(
            template,
            &self.template_env(None),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gql_core::fixtures::{figure_4_13_dblp, figure_4_16_graph};
    use gql_core::Value;

    /// The paper's running example: Figure 4.12 executed over the
    /// Figure 4.13 DBLP collection must produce the co-authorship graph
    /// A–B, C–D, A–C, A–D (4 nodes, 4 edges... let's trace: pairs are
    /// (A,B) in G1; (C,D), (C,A), (D,A) in G2 → edges A-B, C-D, C-A,
    /// D-A → 4 nodes {A,B,C,D} and 4 edges).
    #[test]
    fn figure_4_12_coauthorship_end_to_end() {
        let mut db = Database::new();
        db.add_collection("DBLP", figure_4_13_dblp().into());
        db.execute(
            r#"
            graph P {
                node v1 <author>;
                node v2 <author>;
            } where P.booktitle="SIGMOD";
            C := graph {};
            for P exhaustive in doc("DBLP")
            let C := graph {
                graph C;
                node P.v1, P.v2;
                edge e1 (P.v1, P.v2);
                unify P.v1, C.v1 where P.v1.name=C.v1.name;
                unify P.v2, C.v2 where P.v2.name=C.v2.name;
            };
        "#,
        )
        .unwrap();
        let c = db.var("C").expect("accumulator defined");
        assert_eq!(c.node_count(), 4, "{c}");
        assert_eq!(c.edge_count(), 4, "{c}");
        let names: Vec<String> = c
            .nodes()
            .filter_map(|(_, n)| {
                n.attrs
                    .get("name")
                    .and_then(|v| v.as_str())
                    .map(String::from)
            })
            .collect();
        for expected in ["A", "B", "C", "D"] {
            assert!(names.contains(&expected.to_string()), "{names:?}");
        }
        // A co-authored with B, C, D; B only with A.
        let a = c
            .nodes()
            .find(|(_, n)| n.attrs.get("name") == Some(&Value::Str("A".into())))
            .unwrap()
            .0;
        assert_eq!(c.degree(a), 3);
    }

    #[test]
    fn return_body_yields_collection() {
        let mut db = Database::new();
        let (g, _) = figure_4_16_graph();
        db.add_graph("G", g);
        let out = db
            .execute(
                r#"
                for graph Q {
                    node a <label="A">;
                    node b <label="B">;
                    edge e (a, b);
                } exhaustive in doc("G")
                return graph { node n <who=Q.a.label>; };
            "#,
            )
            .unwrap();
        assert_eq!(out.returned.len(), 1);
        assert_eq!(out.returned[0].len(), 2, "A1-B1 and A2-B2");
    }

    #[test]
    fn non_exhaustive_for_takes_one_match_per_graph() {
        let mut db = Database::new();
        let (g, _) = figure_4_16_graph();
        db.add_graph("G", g);
        let out = db
            .execute(
                r#"
                for graph Q { node a <label="B">; } in doc("G")
                return graph { node n; };
            "#,
            )
            .unwrap();
        assert_eq!(out.returned[0].len(), 1);
    }

    #[test]
    fn flwr_where_filters_matches() {
        let mut db = Database::new();
        db.add_collection("DBLP", figure_4_13_dblp().into());
        let out = db
            .execute(
                r#"
                for graph Q { node a <author>; } exhaustive in doc("DBLP")
                where Q.a.name = "A"
                return graph { node n <name=Q.a.name>; };
            "#,
            )
            .unwrap();
        assert_eq!(out.returned[0].len(), 2, "author A appears in G1 and G2");
    }

    /// Repeated queries over the same stored collection must reuse the
    /// cached σ indexes (pre-fix, every σ call rebuilt them), and
    /// mutating the collection must invalidate the cache.
    #[test]
    fn index_cache_hits_across_queries_and_invalidates_on_mutation() {
        let mut db = Database::new();
        db.enable_profiling();
        let (g, _) = figure_4_16_graph();
        db.add_graph("G", g.clone());
        let query = r#"
            for graph Q { node a <label="A">; node b <label="B">; edge e (a, b); }
            exhaustive in doc("G")
            return graph { node n <who=Q.a.label>; };
        "#;
        let first = db.execute(query).unwrap();
        let rep = db.profile_report();
        // Counters are created lazily: no hit has been recorded yet.
        assert_eq!(rep.counter("engine.index_cache.hits").unwrap_or(0), 0);
        assert_eq!(rep.counter("engine.index_cache.misses"), Some(1));
        assert_eq!(rep.counter("index.builds"), Some(1));

        let second = db.execute(query).unwrap();
        assert_eq!(second.returned[0].len(), first.returned[0].len());
        let rep = db.profile_report();
        assert_eq!(rep.counter("engine.index_cache.hits"), Some(1));
        assert_eq!(rep.counter("engine.index_cache.misses"), Some(1));
        assert_eq!(
            rep.counter("index.builds"),
            Some(1),
            "cache hit must not rebuild the index"
        );

        // Replacing the collection invalidates the cached indexes.
        db.add_graph("G", g);
        db.execute(query).unwrap();
        let rep = db.profile_report();
        assert_eq!(rep.counter("engine.index_cache.misses"), Some(2));
        assert_eq!(rep.counter("index.builds"), Some(2));
        // Per-statement spans were recorded for all three FLWRs.
        assert_eq!(rep.phase("engine.flwr").map(|p| p.count), Some(3));
        assert_eq!(
            db.profile_report().phase("op.select").map(|p| p.count),
            Some(3)
        );
    }

    /// Explain + tracing on: results unchanged, one operator tree per
    /// FLWR with the full flwr → index/select → graph[i] → match
    /// hierarchy, and the sink holds engine-through-search events.
    #[test]
    fn explain_and_tracing_capture_flwr_statements() {
        let query = r#"
            for graph Q { node a <label="A">; node b <label="B">; edge e (a, b); }
            exhaustive in doc("G")
            return graph { node n <who=Q.a.label>; };
        "#;
        let (g, _) = figure_4_16_graph();
        let mut plain_db = Database::new();
        plain_db.add_graph("G", g.clone());
        let plain = plain_db.execute(query).unwrap();

        let mut db = Database::new();
        let sink = db.enable_tracing();
        db.enable_explain();
        db.add_graph("G", g);
        let out = db.execute(query).unwrap();
        assert_eq!(out.returned[0].len(), plain.returned[0].len());

        let trees = db.explain_trees();
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.label, "flwr");
        let labels: Vec<&str> = tree.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["index", "select"]);
        let select = &tree.children[1];
        assert_eq!(select.children[0].label, "graph[0]");
        assert_eq!(select.children[0].children[0].label, "match");
        gql_core::validate_json(&tree.render_json()).unwrap();

        let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
        for expected in ["engine.flwr", "op.select", "op.index_build", "match.search"] {
            assert!(names.iter().any(|n| n == expected), "{expected}: {names:?}");
        }
        gql_core::validate_json(&sink.render_chrome_json()).unwrap();

        // A second run reuses cached indexes; the tree records that.
        db.execute(query).unwrap();
        let trees = db.explain_trees();
        assert_eq!(trees.len(), 2);
        assert!(trees[1].children[0]
            .props
            .iter()
            .any(|(k, v)| k == "cached" && *v == gql_core::ArgValue::Bool(true)));
    }

    /// A zero threshold logs every statement with its ANALYZE tree even
    /// though explain was never enabled; a huge threshold logs nothing.
    #[test]
    fn slow_query_log_captures_offending_statements() {
        let query = r#"
            for graph Q { node a <label="B">; } exhaustive in doc("G")
            return graph { node n; };
        "#;
        let (g, _) = figure_4_16_graph();
        let mut db = Database::new();
        db.set_slow_query_threshold(Duration::ZERO);
        db.add_graph("G", g.clone());
        db.execute(query).unwrap();
        assert_eq!(db.slow_queries().len(), 1);
        let slow = &db.slow_queries()[0];
        assert_eq!(slow.pattern, "Q");
        assert_eq!(slow.source, "G");
        assert_eq!(slow.explain.label, "flwr");
        assert!(
            db.explain_trees().is_empty(),
            "explain was not enabled; the tree goes to the slow log only"
        );

        let mut fast_db = Database::new();
        fast_db.set_slow_query_threshold(Duration::from_secs(3600));
        fast_db.add_graph("G", g);
        fast_db.execute(query).unwrap();
        assert!(fast_db.slow_queries().is_empty());
    }

    /// Repeated FLWR statements over the same collection must hit the
    /// plan cache (the planner persists across statements) and mutation
    /// must invalidate it — with identical results throughout.
    #[test]
    fn plan_cache_hits_across_statements_and_invalidates_on_mutation() {
        let query = r#"
            for graph Q { node a <label="A">; node b <label="B">; edge e (a, b); }
            exhaustive in doc("G")
            return graph { node n <who=Q.a.label>; };
        "#;
        let (g, _) = figure_4_16_graph();

        let mut db = Database::new();
        db.enable_profiling();
        db.add_graph("G", g.clone());
        let first = db.execute(query).unwrap();
        let rep = db.profile_report();
        assert_eq!(rep.counter("planner.cache.hits").unwrap_or(0), 0);
        assert_eq!(rep.counter("planner.cache.misses"), Some(1));

        let second = db.execute(query).unwrap();
        assert_eq!(second.returned[0].len(), first.returned[0].len());
        let rep = db.profile_report();
        assert_eq!(rep.counter("planner.cache.hits"), Some(1));
        assert_eq!(rep.counter("planner.cache.misses"), Some(1));
        let planner = db
            .snapshot("G")
            .and_then(|s| s.planner())
            .expect("planner created")
            .clone();
        assert_eq!(planner.cached_plans(), 1);
        let generation = planner.generation();

        // Mutation: the planner is invalidated alongside the indexes.
        db.add_graph("G", g.clone());
        assert!(db.snapshot("G").is_none());
        assert!(planner.generation() > generation, "generation bumped");
        assert_eq!(planner.cached_plans(), 0);
        let third = db.execute(query).unwrap();
        assert_eq!(third.returned[0].len(), first.returned[0].len());
        let rep = db.profile_report();
        assert_eq!(rep.counter("planner.cache.misses"), Some(2));
    }

    #[test]
    fn missing_references_error_cleanly() {
        let mut db = Database::new();
        assert!(matches!(
            db.execute(r#"for P in doc("X") return graph {};"#),
            Err(EngineError::UnknownPattern { .. })
        ));
        db.execute("graph P { node v; };").unwrap();
        assert!(matches!(
            db.execute(r#"for P in doc("X") return graph {};"#),
            Err(EngineError::UnknownCollection { .. })
        ));
        assert!(matches!(db.execute("graph {"), Err(EngineError::Parse(_))));
    }

    #[test]
    fn assignment_defines_variables() {
        let mut db = Database::new();
        db.execute("C := graph { node a <x=1>, b <x=2>; edge e (a, b); };")
            .unwrap();
        let c = db.var("C").unwrap();
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.edge_count(), 1);
        db.execute("D := C;").unwrap();
        assert_eq!(db.var("D").unwrap().node_count(), 2);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gql-db-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const PERSIST_QUERY: &str = r#"
        for graph Q { node a <label="A">; node b <label="B">; edge e (a, b); }
        exhaustive in doc("G")
        return graph { node n <who=Q.a.label>; };
    "#;

    /// Open → mutate → checkpoint → reopen: collections, variables, and
    /// query results survive; the WAL is empty after the checkpoint and
    /// reopen adopts the checkpointed indexes instead of rebuilding.
    #[test]
    fn checkpoint_reopen_round_trips_collections_vars_and_results() {
        let dir = tmpdir("roundtrip");
        let (g, _) = figure_4_16_graph();
        let mut db = Database::open(&dir).unwrap();
        db.add_graph("G", g.clone());
        db.execute("C := graph { node a <x=1>, b <x=2>; edge e (a, b); };")
            .unwrap();
        let before = db.execute(PERSIST_QUERY).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.wal_size(), Some(0));
        drop(db);

        let mut db = Database::open(&dir).unwrap();
        db.enable_profiling();
        assert_eq!(db.collection("G").unwrap().len(), 1);
        assert_eq!(db.var("C").unwrap().node_count(), 2);
        let after = db.execute(PERSIST_QUERY).unwrap();
        assert_eq!(after.returned[0].len(), before.returned[0].len());
        let rep = db.profile_report();
        assert_eq!(
            rep.counter("index.builds").unwrap_or(0),
            0,
            "reopen must adopt checkpointed indexes, not rebuild"
        );
        assert_eq!(rep.counter("engine.index_cache.hits"), Some(1));
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Mutations after the checkpoint live in the WAL; a reopen without
    /// a second checkpoint (the kill -9 path, minus the kill) must
    /// replay them — and a WAL-rewritten collection re-indexes fresh.
    #[test]
    fn wal_replay_restores_post_checkpoint_mutations() {
        let dir = tmpdir("walreplay");
        let (g, _) = figure_4_16_graph();
        let mut db = Database::open(&dir).unwrap();
        db.add_graph("G", g.clone());
        db.checkpoint().unwrap();
        db.add_graph("H", g.clone()); // WAL only
        db.add_graph("G", g.clone()); // rewrite: stale indexes dropped
        db.execute("C := graph { node a <x=9>; };").unwrap(); // WAL only
        assert!(db.wal_size().unwrap() > 0);
        drop(db); // no checkpoint — simulates an unclean exit

        let mut db = Database::open(&dir).unwrap();
        assert!(db.collection("H").is_some(), "WAL-created collection");
        assert_eq!(db.var("C").unwrap().node_count(), 1);
        let out = db.execute(PERSIST_QUERY).unwrap();
        assert_eq!(out.returned[0].len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `feedback_runs` of every order node in `node`'s tree, in order.
    fn feedback_runs(node: &ExplainNode, out: &mut Vec<u64>) {
        for (k, v) in &node.props {
            if let ("feedback_runs", ArgValue::UInt(n)) = (k.as_str(), v) {
                out.push(*n);
            }
        }
        for c in &node.children {
            feedback_runs(c, out);
        }
    }

    /// Planner feedback is in-memory state: a checkpoint-built snapshot
    /// carries its planner from the start (later queries reuse it), and
    /// a reopened database plans from no feedback — with identical
    /// query results.
    #[test]
    fn planner_feedback_starts_cold_after_reopen() {
        let dir = tmpdir("feedback");
        let (g, _) = figure_4_16_graph();
        let runs = |db: &Database| {
            let mut out = Vec::new();
            for tree in db.explain_trees() {
                feedback_runs(tree, &mut out);
            }
            out
        };
        let mut db = Database::open(&dir).unwrap();
        db.add_graph("G", g);
        db.checkpoint().unwrap();
        let built = Arc::clone(db.snapshot("G").expect("checkpoint built a snapshot"));
        assert!(built.planner().is_some(), "built with its planner");
        db.enable_explain();
        let before = db.execute(PERSIST_QUERY).unwrap();
        db.execute(PERSIST_QUERY).unwrap();
        assert!(Arc::ptr_eq(&built, db.snapshot("G").unwrap()));
        assert_eq!(runs(&db), [0, 1]);
        db.checkpoint().unwrap();
        drop(db);

        let mut db = Database::open(&dir).unwrap();
        db.enable_explain();
        let after = db.execute(PERSIST_QUERY).unwrap();
        assert_eq!(after.returned[0].len(), before.returned[0].len());
        assert_eq!(runs(&db), [0], "feedback is not persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tombstones: a removed collection stays removed across reopen, and
    /// the checkpoint compacts it away physically.
    #[test]
    fn remove_collection_tombstone_survives_reopen_and_compaction() {
        let dir = tmpdir("tombstone");
        let (g, _) = figure_4_16_graph();
        let mut db = Database::open(&dir).unwrap();
        db.add_graph("G", g.clone());
        db.add_graph("DOOMED", g);
        db.checkpoint().unwrap();
        assert!(db.remove_collection("DOOMED"));
        assert!(!db.remove_collection("DOOMED"), "already gone");
        drop(db); // tombstone lives in the WAL

        let mut db = Database::open(&dir).unwrap();
        assert!(db.collection("DOOMED").is_none(), "tombstone replayed");
        assert!(db.collection("G").is_some());
        db.checkpoint().unwrap(); // compaction: deletion becomes physical
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert!(db.collection("DOOMED").is_none());
        assert_eq!(db.wal_size(), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_store_errors_cleanly() {
        let mut db = Database::new();
        assert!(matches!(db.checkpoint(), Err(EngineError::Storage(_))));
        assert!(db.data_dir().is_none());
        assert_eq!(db.wal_size(), None);
        assert!(Database::new().close().is_ok(), "close without store");
    }
}
