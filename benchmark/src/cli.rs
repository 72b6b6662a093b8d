//! `cli_cold_run`: child processes of the real `gql` binary, each a cold
//! start — from a checkpointed data directory, or from a text file.

use crate::queryset::{answerable_subgraph_queries, er_nodes, render_program, with_ids};
use crate::replay::{self, outcome_digest};
use crate::run::{Recorder, RunCfg, Workload};
use crate::stats::Digest;
use crate::sys::{self, run_child};
use crate::trace::{SpanId, Tracer};
use gql_core::Graph;
use gql_datagen::{erdos_renyi, ErConfig};
use gql_engine::{collection_from_text, Database, ExecOutcome};
use gql_storage::{OpenOptions, Store};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Children per pass that start from the data directory, before the one
/// that starts from text. With four fast starts to one slow one the
/// median op is a directory start and the 95th percentile a text start.
const DIR_PER_PASS: usize = 4;

pub struct CliInputs {
    graph: Graph,
    /// A second collection of the same size that no query ever names:
    /// opening the directory must not pay for it.
    cold: Graph,
    program: String,
}

pub struct CliCold {
    gql: PathBuf,
    dir: PathBuf,
    text: PathBuf,
    program: PathBuf,
    program_src: String,
    /// What `gql run` must print, rendered by the runner from the
    /// in-process `Database` answer.
    expected_stdout: Vec<u8>,
    /// The same answer as an order-insensitive digest, for the oracle
    /// (the baseline search enumerates matches in another order).
    expected: Digest,
    user_bytes: u64,
}

/// `gql run`'s stdout for what a program returned.
fn render_stdout(out: &ExecOutcome) -> Vec<u8> {
    let mut s = String::new();
    for (i, coll) in out.returned.iter().enumerate() {
        let _ = writeln!(s, "-- result {} ({} graph(s)) --", i + 1, coll.len());
        for g in coll {
            let _ = writeln!(s, "{g}");
        }
    }
    s.into_bytes()
}

/// The `gql` binary is built next to this one.
fn gql_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let gql = me.with_file_name("gql");
    if gql.is_file() {
        Ok(gql)
    } else {
        Err(format!(
            "{} not found; build with benchmark/run.sh",
            gql.display()
        ))
    }
}

impl CliCold {
    fn child_args(&self, from_dir: bool) -> Vec<String> {
        let path = |p: &Path| p.display().to_string();
        let mut args = vec!["run".to_string(), path(&self.program)];
        args.extend(["--threads".to_string(), "1".to_string()]);
        if from_dir {
            args.extend(["--data-dir".to_string(), path(&self.dir)]);
        } else {
            args.extend(["--data".to_string(), format!("G={}", path(&self.text))]);
        }
        args
    }

    /// One timed child; returns its span for the replay to hang off.
    fn child(&self, from_dir: bool, rec: &mut Recorder) -> Option<(u32, SpanId)> {
        let class = if from_dir { "dir" } else { "text" };
        let start = Instant::now();
        match run_child(&self.gql, &self.child_args(from_dir)) {
            Err(e) => {
                rec.attempted += 1;
                rec.check(false, || format!("cannot run gql: {e}"));
                None
            }
            Ok(run) => {
                let span = rec.op_measured(class, "cli.process", start, run.wall);
                rec.child_rss_mb = Some(rec.child_rss_mb.unwrap_or(0.0).max(run.max_rss_mb));
                rec.check(run.success && run.stdout == self.expected_stdout, || {
                    format!(
                        "gql ({class}) exited ok={} with stdout digest {}, expected {}",
                        run.success,
                        Digest::of_bytes(&run.stdout),
                        Digest::of_bytes(&self.expected_stdout)
                    )
                });
                span
            }
        }
    }

    /// The same open/load + execute the child just did, in this process,
    /// as children of the child's span: what they leave of its wall time
    /// is `cli.process` (exec, runtime start, argument and file handling,
    /// printing, exit).
    fn replay_in_process(&self, from_dir: bool, op: u32, child: SpanId, t: &mut Tracer) {
        let mut db = if from_dir {
            // The store open that engine.open contains, on its own first
            // (returned, not dropped, inside the span: engine.open keeps
            // what it restores, too).
            let start = Instant::now();
            let store = Store::open_with(&self.dir, OpenOptions::default());
            let store_opened = Instant::now();
            let Ok(store) = store else { return };
            drop(store);
            let (db, open) = t.span("engine.open", op, Some(child), || Database::open(&self.dir));
            t.span_at("storage.open", op, Some(open), start, store_opened);
            let Ok(db) = db else { return };
            let mapped = db.metrics().obs().gauge("storage.live_segment_bytes").get();
            t.count("storage.open.bytes_mapped", mapped);
            db.with_threads(1)
        } else {
            let (coll, _) = t.span("engine.data_parse", op, Some(child), || {
                std::fs::read_to_string(&self.text)
                    .map_err(|e| e.to_string())
                    .and_then(|s| collection_from_text(&s).map_err(|e| e.to_string()))
            });
            let Ok(coll) = coll else { return };
            t.count("engine.data_parse.bytes", self.user_bytes);
            t.count("engine.data_parse.graphs", coll.len() as u64);
            let mut db = Database::new().with_threads(1);
            db.add_collection("G", coll);
            db
        };
        // First execute: from a directory it adopts the mapped index
        // (which the engine itself counts as an index-cache hit); from
        // text it builds the index.
        let (first, exec) = t.span("engine.execute", op, Some(child), || {
            db.execute(&self.program_src).map(drop)
        });
        if first.is_err() {
            return;
        }
        replay::replay_children(&db, &self.program_src, from_dir, t, op, exec);
        if from_dir {
            let verified = db.metrics().obs().counter("storage.crc.lazy_checks").get();
            t.count("storage.open.sections_verified", verified);
            // First touch: what the first execute cost on top of a warm one.
            let (_, warm) = t.span("engine.warm_execute", op, None, || {
                db.execute(&self.program_src).map(drop)
            });
            let first_touch = t.duration_ns(exec).saturating_sub(t.duration_ns(warm));
            t.count("engine.first_touch_ns", first_touch);
        }
        t.count(
            "cli.process.stdout_bytes",
            self.expected_stdout.len() as u64,
        );
    }
}

impl Workload for CliCold {
    const NAME: &'static str = "cli_cold_run";
    type Inputs = CliInputs;

    fn generate(seed: u64, quick: bool) -> CliInputs {
        let n = er_nodes(quick);
        let graph = with_ids(erdos_renyi(&ErConfig::paper_default(n, seed)));
        let cold = with_ids(erdos_renyi(&ErConfig::paper_default(n, seed ^ 0xc01d)));
        let program = answerable_subgraph_queries(&graph, 8, 1, seed)
            .first()
            .map(|q| render_program(q, "G"))
            .expect("an answerable query exists");
        CliInputs {
            graph,
            cold,
            program,
        }
    }

    fn input_bytes(inputs: &CliInputs) -> Vec<u8> {
        format!("{};\n{};\n{}", inputs.graph, inputs.cold, inputs.program).into_bytes()
    }

    fn setup(inputs: CliInputs, _cfg: &RunCfg, work: &Path) -> Result<Self, String> {
        let gql = gql_binary()?;
        let io = |e: std::io::Error| e.to_string();
        let text = work.join("er.gql");
        let text_src = format!("{};\n", inputs.graph);
        std::fs::write(&text, &text_src).map_err(io)?;
        let program = work.join("q.gql");
        std::fs::write(&program, &inputs.program).map_err(io)?;
        let dir = work.join("db");
        let mut db = Database::open(&dir)
            .map_err(|e| e.to_string())?
            .with_threads(1);
        db.add_graph("G", inputs.graph);
        db.add_graph("COLD", inputs.cold);
        // The warm-up: the in-process answer every child is held to.
        let answer = db.execute(&inputs.program).map_err(|e| e.to_string())?;
        db.close().map_err(|e| e.to_string())?;
        let cold = CliCold {
            gql,
            dir,
            text,
            program,
            program_src: inputs.program,
            expected_stdout: render_stdout(&answer),
            expected: outcome_digest(&answer),
            user_bytes: text_src.len() as u64,
        };
        // Warm-up: one untimed child of each kind.
        for from_dir in [true, false] {
            let run = run_child(&cold.gql, &cold.child_args(from_dir)).map_err(io)?;
            if !run.success {
                return Err("warm-up gql child failed".to_string());
            }
        }
        Ok(cold)
    }

    fn reference(&self) -> Vec<Digest> {
        vec![Digest::of_bytes(&self.expected_stdout)]
    }

    fn oracle_check(&self, _seed: u64) -> (u64, u64) {
        // One program: re-answer it on the baseline path from the text
        // file the children read.
        let answer = std::fs::read_to_string(&self.text)
            .map_err(|e| e.to_string())
            .and_then(|s| collection_from_text(&s).map_err(|e| e.to_string()))
            .and_then(|coll| {
                let mut db = Database::new().with_threads(1);
                db.add_collection("G", coll);
                db.options = gql_match::MatchOptions {
                    report_baseline_space: false,
                    ..gql_match::MatchOptions::baseline()
                };
                db.execute(&self.program_src).map_err(|e| e.to_string())
            });
        let agrees = answer.is_ok_and(|out| outcome_digest(&out) == self.expected);
        (1, u64::from(!agrees))
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let mut spans = Vec::with_capacity(DIR_PER_PASS + 1);
        for i in 0..=DIR_PER_PASS {
            let from_dir = i < DIR_PER_PASS;
            spans.push((from_dir, self.child(from_dir, rec)));
        }
        // Replays after the pass's children, not between them: holding
        // and dropping a 100K-node database next to a child slows it.
        if let Some(t) = rec.tracer.as_mut() {
            for (from_dir, span) in spans {
                if let Some((op, child)) = span {
                    self.replay_in_process(from_dir, op, child, t);
                }
            }
        }
    }

    fn finish(self, rec: &mut Recorder) {
        // Both the directory and the text hold G; the directory also
        // holds COLD, of the same size.
        rec.extra.insert(
            "storage.stored_bytes_per_user_byte",
            sys::dir_bytes(&self.dir) as f64 / (2 * self.user_bytes) as f64,
        );
    }
}
