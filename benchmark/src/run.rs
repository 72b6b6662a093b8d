//! One run of one workload: repeated set-up, one untimed warm-up pass,
//! whole timed passes until `--seconds` have elapsed, end checks, and the
//! metrics of either kind.

use crate::stats::{median, percentile, sorted, Digest};
use crate::sys;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Sleep-free slowdown injected into the *runner's* op loop, in
    /// percent of each op's own latency (the compare gate's live test).
    pub slowdown_pct: f64,
    pub root: PathBuf,
}

/// How often set-up runs in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// What a workload does. One value of the type is one set-up.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Generated inputs; everything the program is handed derives from
    /// the seed.
    type Inputs;

    fn generate(seed: u64, quick: bool) -> Self::Inputs;
    /// The generated inputs as bytes (the self-test compares two
    /// invocations byte for byte).
    fn input_bytes(inputs: &Self::Inputs) -> Vec<u8>;
    /// Load + index/checkpoint + one untimed warm-up pass. `work` is an
    /// empty scratch directory.
    fn setup(inputs: Self::Inputs, cfg: &RunCfg, work: &Path) -> Result<Self, String>;
    /// The reference digests the warm-up pass produced, in a fixed
    /// order: compared with the golden file at seed 1.
    fn reference(&self) -> Vec<Digest>;
    /// Re-answers a seeded 5% sample of the reference on a different
    /// code path (`MatchOptions::baseline()`); returns (checked, wrong).
    fn oracle_check(&self, seed: u64) -> (u64, u64);
    /// One whole timed pass.
    fn pass(&mut self, rec: &mut Recorder);
    /// End-of-run checks and workload-specific layer metrics.
    fn finish(self, rec: &mut Recorder);
}

/// Collects per-op latencies, failures, spans and layer metrics.
pub struct Recorder {
    /// Latency samples in ms, by op class.
    pub samples: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
    /// Layer metrics a workload computes itself (class medians are
    /// derived from `samples`).
    pub extra: BTreeMap<&'static str, f64>,
    /// Largest peak RSS among child processes, if the workload has any.
    pub child_rss_mb: Option<f64>,
    slowdown: f64,
    op_seq: u32,
}

impl Recorder {
    fn new(cfg: &RunCfg) -> Recorder {
        Recorder {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: cfg.trace.then(Tracer::new),
            extra: BTreeMap::new(),
            child_rss_mb: None,
            slowdown: cfg.slowdown_pct / 100.0,
            op_seq: 0,
        }
    }

    /// Times one operation. Traced runs also record it as the root span
    /// `span` of a fresh op id, returned for the replays to hang off.
    pub fn op<T>(
        &mut self,
        class: &'static str,
        span: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<(u32, crate::trace::SpanId)>) {
        let op = self.op_seq;
        self.op_seq += 1;
        self.attempted += 1;
        let start = Instant::now();
        let out = f();
        let mut elapsed = start.elapsed();
        if self.slowdown > 0.0 {
            let until = start + elapsed.mul_f64(1.0 + self.slowdown);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            elapsed = start.elapsed();
        }
        self.samples.push((class, elapsed.as_secs_f64() * 1e3));
        let id = self
            .tracer
            .as_mut()
            .map(|t| (op, t.span_at(span, op, None, start, start + elapsed)));
        (out, id)
    }

    /// A timed op whose interval the caller measured (child processes).
    pub fn op_measured(
        &mut self,
        class: &'static str,
        span: &'static str,
        start: Instant,
        wall: Duration,
    ) -> Option<(u32, crate::trace::SpanId)> {
        let op = self.op_seq;
        self.op_seq += 1;
        self.attempted += 1;
        self.samples.push((class, wall.as_secs_f64() * 1e3));
        self.tracer
            .as_mut()
            .map(|t| (op, t.span_at(span, op, None, start, start + wall)))
    }

    /// Records the verdict of a check on an op's result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    fn class_p50(&self, class: &str) -> f64 {
        let xs: Vec<f64> = self
            .samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Timed op samples behind the latency metrics.
    pub samples: usize,
    pub passes: usize,
}

pub fn golden_path(root: &Path, workload: &str, quick: bool) -> PathBuf {
    let scale = if quick { ".quick" } else { "" };
    root.join(format!("benchmark/golden/{workload}.seed1{scale}.digests"))
}

fn golden_check(cfg: &RunCfg, workload: &str, reference: &[Digest], rec: &mut Recorder) {
    if cfg.seed != 1 {
        return;
    }
    let path = golden_path(&cfg.root, workload, cfg.quick);
    let golden: Vec<Option<Digest>> = match std::fs::read_to_string(&path) {
        Ok(text) => text.lines().map(Digest::parse).collect(),
        Err(e) => {
            rec.attempted += 1;
            rec.check(false, || format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    rec.attempted += reference.len() as u64;
    rec.check(golden.len() == reference.len(), || {
        format!(
            "{}: {} golden digests, {} reference digests",
            path.display(),
            golden.len(),
            reference.len()
        )
    });
    for (i, (g, r)) in golden.iter().zip(reference).enumerate() {
        rec.check(*g == Some(*r), || {
            format!("{workload} op {i}: digest {r} differs from golden")
        });
    }
}

/// Writes the golden file for `W` at seed 1 (the `golden` subcommand).
pub fn write_golden<W: Workload>(cfg: &RunCfg) -> Result<PathBuf, String> {
    let work = sys::WorkDir::create(&cfg.root, W::NAME).map_err(|e| e.to_string())?;
    let w = W::setup(W::generate(cfg.seed, cfg.quick), cfg, &work.0)?;
    let text: String = w.reference().iter().map(|d| format!("{d}\n")).collect();
    let path = golden_path(&cfg.root, W::NAME, cfg.quick);
    std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

pub fn run<W: Workload>(cfg: &RunCfg) -> Result<RunResult, String> {
    let work = sys::WorkDir::create(&cfg.root, W::NAME).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new(cfg);

    // Set-up, several times over: a single set-up's time is too noisy to
    // hold a later change to. Traced runs do not report it.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 0..reps {
        drop(state.take());
        let dir = work.0.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let w = W::setup(W::generate(cfg.seed, cfg.quick), cfg, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");

    // Whole passes until the time is up, so every run measures the same
    // op mix and overshoots by less than one pass.
    let timed = Instant::now();
    let mut passes = 0usize;
    loop {
        w.pass(&mut rec);
        passes += 1;
        if timed.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let loop_wall = timed.elapsed().as_secs_f64();

    // Verification comes after the timed passes: the oracle allocates
    // and frees as much as a set-up does, and the pass that follows such
    // a free is measurably slower on this kind of host.
    golden_check(cfg, W::NAME, &w.reference(), &mut rec);
    let (checked, wrong) = w.oracle_check(cfg.seed);
    rec.attempted += checked;
    rec.failed += wrong;
    if wrong > 0 {
        eprintln!(
            "FAILED: {wrong} of {checked} sampled ops disagree with MatchOptions::baseline()"
        );
    }
    w.finish(&mut rec);

    let lat = sorted(rec.samples.iter().map(|(_, ms)| *ms).collect());
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let mut metrics = BTreeMap::new();
    if let Some(tracer) = &rec.tracer {
        layer_metrics(&rec, tracer, busy_s, loop_wall, &mut metrics);
        let path = cfg
            .root
            .join(format!("benchmark/results/{}.trace.json", W::NAME));
        std::fs::write(&path, tracer.to_json(W::NAME, 20_000).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        metrics.insert("setup_s".to_string(), median(&setup_s));
        // Closed loop, one client, no think time: the client is busy for
        // exactly the sum of its op latencies (digesting results between
        // ops is the harness's time, not the program's).
        metrics.insert("ops_per_s".to_string(), lat.len() as f64 / busy_s);
        metrics.insert("op_p50_ms".to_string(), percentile(&lat, 0.50));
        metrics.insert("op_p95_ms".to_string(), percentile(&lat, 0.95));
        metrics.insert(
            "peak_rss_mb".to_string(),
            rec.child_rss_mb.unwrap_or_else(sys::peak_rss_mb),
        );
    }
    Ok(RunResult {
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        samples: lat.len(),
        passes,
    })
}

/// Span name → the layer row it is reported as. Rows are self times.
const LAYER_ROWS: &[&str] = &[
    "parser.parse",
    "engine.data_parse",
    "algebra.compile",
    "matcher.index_build",
    "matcher.retrieve",
    "matcher.refine",
    "matcher.order",
    "matcher.plan",
    "matcher.search",
    "algebra.select",
    "algebra.compose",
    "engine.execute",
    "engine.drop_matches",
    "engine.put",
    "storage.wal_append",
    "storage.checkpoint",
    "storage.open",
    "engine.open",
    "cli.process",
];

fn layer_metrics(
    rec: &Recorder,
    tracer: &Tracer,
    busy_s: f64,
    loop_wall: f64,
    out: &mut BTreeMap<String, f64>,
) {
    let ops = rec.samples.len().max(1) as f64;
    let layers = tracer.layers();
    for row in LAYER_ROWS {
        let l = layers.get(row).copied().unwrap_or_default();
        out.insert(format!("{row}.ms"), l.self_ns() as f64 / 1e6 / ops);
    }
    // Three "counts" are nanosecond totals the replays accumulate.
    let ns = |name: &str| tracer.counts.get(name).copied().unwrap_or(0) as f64;
    for (name, n) in &tracer.counts {
        if !name.ends_with("_ns") {
            out.insert((*name).to_string(), *n as f64 / ops);
        }
    }
    // First execute after a cold open minus a warm one.
    out.insert(
        "engine.first_touch.ms".into(),
        ns("engine.first_touch_ns") / 1e6 / ops,
    );
    // The runner's four phase spans against `MatchReport::timings` of the
    // `match_pattern` call they decompose.
    let own = ns("matcher.steptimings_ns");
    out.insert(
        "matcher.timings_disagreement".into(),
        if own == 0.0 {
            0.0
        } else {
            ns("matcher.phase_spans_ns") / own - 1.0
        },
    );
    let ratio = |num: &str, den: &str| {
        let d = tracer.counts.get(den).copied().unwrap_or(0);
        if d == 0 {
            0.0
        } else {
            tracer.counts.get(num).copied().unwrap_or(0) as f64 / d as f64
        }
    };
    out.insert(
        "matcher.retrieve.kept_ratio".into(),
        ratio("matcher.retrieve.kept", "matcher.retrieve.scanned"),
    );
    out.insert(
        "matcher.refine.removed_ratio".into(),
        ratio("matcher.refine.removed", "matcher.refine.checks"),
    );
    out.insert(
        "matcher.search.match_ratio".into(),
        ratio("matcher.search.matches", "matcher.search.steps"),
    );
    let exec = layers.get("engine.execute").copied().unwrap_or_default();
    out.insert(
        "engine.execute.total_ms".into(),
        exec.total_ns as f64 / 1e6 / ops,
    );
    out.insert(
        "unattributed_share".into(),
        if exec.total_ns == 0 {
            0.0
        } else {
            exec.self_ns() as f64 / exec.total_ns as f64
        },
    );
    // Wall of the traced loop over the time the same ops took themselves.
    out.insert("trace_overhead".into(), loop_wall / busy_s - 1.0);
    for class in ["read", "write", "dir", "text"] {
        out.insert(format!("{class}_p50_ms"), rec.class_p50(class));
    }
    for (k, v) in &rec.extra {
        out.insert((*k).to_string(), *v);
    }
}
