//! The standing benchmark's runner. See `benchmark/README.md`.
//!
//! ```text
//! bench-runner --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! bench-runner [--seed N] [--quick] [--runs K] [--out FILE]      every workload, untraced then traced
//! bench-runner compare BASE.json NEW.json                        verdict per workload × metric
//! bench-runner golden [--quick]                                  rewrite benchmark/golden/ at seed 1
//! bench-runner inputs --workload NAME --seed N [--quick]          the generated inputs, on stdout
//! bench-runner spawn-timed PROGRAM [ARGS…]                        internal: the helper `cli_cold_run` times children through
//! ```

use gql_benchmark::json::{obj, Json};
use gql_benchmark::run::{self, RunCfg, RunResult, Workload};
use gql_benchmark::spec::Spec;
use gql_benchmark::{cli, compare, mol, queryset, stats, sys};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const FLUSH_POLICY: &str =
    "shipped default: WAL fsync (sync_data) per append, checkpoint fsync + rename; OS page cache warm, so disk latency is the sandbox's";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    slowdown_pct: f64,
    runs: usize,
    out: Option<PathBuf>,
    /// The all-workloads mode's children also report their sample counts.
    extended: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        slowdown_pct: 0.0,
        runs: 1,
        out: None,
        extended: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(flag, value()?)?,
            "--seconds" => a.seconds = Some(num(flag, value()?)?),
            "--trace" => a.trace = num::<u8>(flag, value()?)? != 0,
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            "--inject-slowdown-pct" => a.slowdown_pct = num(flag, value()?)?,
            "--runs" => a.runs = num::<usize>(flag, value()?)?.max(1),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--extended" => a.extended = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn cfg(args: &Args, spec: &Spec, root: PathBuf) -> RunCfg {
    RunCfg {
        seed: args.seed,
        // Quick scale is a self-test, not a measurement.
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 0.5 } else { spec.run_seconds }),
        trace: args.trace,
        quick: args.quick,
        slowdown_pct: args.slowdown_pct,
        root,
    }
}

/// Calls `$f::<W>($args)` for the workload type named `$name`.
macro_rules! dispatch {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            queryset::ErSubgraph::NAME => $f::<queryset::ErSubgraph>($($arg),*),
            queryset::PpiClique::NAME => $f::<queryset::PpiClique>($($arg),*),
            mol::MolMixed::NAME => $f::<mol::MolMixed>($($arg),*),
            cli::CliCold::NAME => $f::<cli::CliCold>($($arg),*),
            other => Err(format!("unknown workload {other:?}")),
        }
    };
}

fn inputs_of<W: Workload>(seed: u64, quick: bool) -> Result<Vec<u8>, String> {
    Ok(W::input_bytes(&W::generate(seed, quick)))
}

fn context_line(args: &Args, cfg: &RunCfg) -> String {
    format!(
        "machine_cores={} rustc={:?} commit={} seed={} scale={} seconds={} engine_threads=1 flush_policy={:?}",
        gql_core::resolve_threads(0),
        sys::tool_line("rustc", &["--version"]),
        sys::tool_line("git", &["rev-parse", "--short", "HEAD"]),
        cfg.seed,
        if args.quick { "quick" } else { "full" },
        cfg.seconds,
        FLUSH_POLICY
    )
}

/// One run of one workload; the driver's contract.
fn single(args: &Args, spec: &Spec, root: PathBuf) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().expect("checked by caller");
    let cfg = cfg(args, spec, root);
    println!(
        "workload={name} trace={} {}",
        u8::from(cfg.trace),
        context_line(args, &cfg)
    );
    let result: RunResult = dispatch!(name, run_workload(&cfg))?;
    let wanted = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(unlisted) = result
        .metrics
        .keys()
        .find(|k| !wanted.iter().any(|m| &m.name == *k))
    {
        return Err(format!("metric {unlisted:?} is not in BENCHMARK.json"));
    }
    println!(
        "passes={} samples={} attempted={} failed={}",
        result.passes, result.samples, result.attempted, result.failed
    );
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        // A layer the workload does not exercise reports 0.
        let value = match result.metrics.get(&m.name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => return Err(format!("end-to-end metric {:?} was not measured", m.name)),
        };
        println!("  {:<40} {value:>16.6} {}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    let mut line = vec![
        ("correct".to_string(), Json::Bool(result.correct)),
        ("attempted".to_string(), Json::Num(result.attempted as f64)),
        ("failed".to_string(), Json::Num(result.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ];
    if args.extended {
        line.push(("samples".to_string(), Json::Num(result.samples as f64)));
    }
    println!("{}", Json::Obj(line).render());
    Ok(ExitCode::SUCCESS)
}

fn run_workload<W: Workload>(cfg: &RunCfg) -> Result<RunResult, String> {
    run::run::<W>(cfg)
}

/// Runs this binary again for one workload and parses its result line.
/// A process per run keeps `peak_rss_mb` (VmHWM) per workload.
fn child_run(args: &Args, cfg: &RunCfg, workload: &str, trace: bool) -> Result<Json, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(me);
    cmd.current_dir(&cfg.root)
        .args(["--workload", workload, "--extended"])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--inject-slowdown-pct", &args.slowdown_pct.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace={trace}) exited with {}",
            out.status
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload: `--runs` untraced runs for the end-to-end metrics,
/// then one traced run for the layers. Prints every metric by name and
/// writes the summary `compare` reads.
fn all(args: &Args, spec: &Spec, root: PathBuf) -> Result<ExitCode, String> {
    let cfg = cfg(args, spec, root);
    println!("{}", context_line(args, &cfg));
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (name, why) in &spec.workloads {
        println!("\n== {name} ==\n   {why}");
        let mut untraced = Vec::with_capacity(args.runs);
        for _ in 0..args.runs {
            untraced.push(child_run(args, &cfg, name, false)?);
        }
        let traced = child_run(args, &cfg, name, true)?;
        let count = |key: &str| -> f64 {
            untraced
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0.0;
        let samples = untraced[0].get("samples").cloned().unwrap_or(Json::Null);
        let mut end_to_end = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = untraced
                .iter()
                .map(|r| metric_value(r, &m.name).ok_or_else(|| format!("{name}: no {}", m.name)))
                .collect::<Result<_, String>>()?;
            let median = stats::median(&values);
            let mut entry = vec![("median", Json::Num(median))];
            let mut spread = String::new();
            if let Some((q1, q3)) = stats::quartiles(&values) {
                entry.push(("q1", Json::Num(q1)));
                entry.push(("q3", Json::Num(q3)));
                spread = format!("  q1 {q1:.4}  q3 {q3:.4}  spread {:.3}", (q3 - q1) / median);
            }
            entry.push(("unit", Json::Str(m.unit.clone())));
            entry.push(("runs", Json::Num(values.len() as f64)));
            entry.push(("samples", samples.clone()));
            entry.push((
                "values",
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            ));
            println!("  {:<40} {median:>16.4} {}{spread}", m.name, m.unit);
            end_to_end.push((m.name.clone(), obj(entry)));
        }
        println!(
            "  {:<40} {:>16.4} share",
            "failed_share",
            failed / attempted
        );
        let mut per_layer = Vec::new();
        for m in &spec.per_layer {
            let value =
                metric_value(&traced, &m.name).ok_or_else(|| format!("{name}: no {}", m.name))?;
            if value != 0.0 {
                println!("  {:<40} {value:>16.4} {}", m.name, m.unit);
            }
            per_layer.push((
                m.name.clone(),
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.clone())),
                    (
                        "samples",
                        traced.get("samples").cloned().unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
        workloads.push((
            name.clone(),
            obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }
    let summary = obj([
        ("schema", Json::Num(1.0)),
        (
            "machine_cores",
            Json::Num(gql_core::resolve_threads(0) as f64),
        ),
        ("rustc", Json::Str(sys::tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(sys::tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        (
            "scale",
            Json::Str(if args.quick { "quick" } else { "full" }.to_string()),
        ),
        ("seconds", Json::Num(cfg.seconds)),
        ("engine_threads", Json::Num(1.0)),
        ("flush_policy", Json::Str(FLUSH_POLICY.to_string())),
        ("runs", Json::Num(args.runs as f64)),
        ("inject_slowdown_pct", Json::Num(args.slowdown_pct)),
        ("workloads", Json::Obj(workloads)),
        // This benchmark defines names; it claims no gain.
        ("claim", Json::Null),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| cfg.root.join("benchmark/results/latest.json"));
    std::fs::write(&out, summary.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nsummary written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(spec: &Spec, base: &str, new: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(spec, &load(base)?, &load(new)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    println!("{regressed} regressed of {} rows", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn write_golden<W: Workload>(cfg: &RunCfg) -> Result<(), String> {
    let path = run::write_golden::<W>(cfg)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = sys::repo_root().map_err(|e| e.to_string())?;
    let spec = Spec::load(&root)?;
    std::fs::create_dir_all(root.join("benchmark/results")).map_err(|e| e.to_string())?;
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [base, new] => compare_files(&spec, base, new),
            _ => Err("usage: compare BASE.json NEW.json".to_string()),
        },
        Some("golden") => {
            let args = parse_args(&argv[1..])?;
            let cfg = RunCfg {
                seed: 1,
                ..cfg(&args, &spec, root)
            };
            for (name, _) in &spec.workloads {
                dispatch!(name.as_str(), write_golden(&cfg))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("spawn-timed") => match &argv[1..] {
            [program, args @ ..] => sys::spawn_timed(program, args)
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| format!("{program}: {e}")),
            [] => Err("usage: spawn-timed PROGRAM [ARGS…]".to_string()),
        },
        Some("inputs") => {
            let args = parse_args(&argv[1..])?;
            let name = args.workload.as_deref().ok_or("inputs needs --workload")?;
            let bytes = dispatch!(name, inputs_of(args.seed, args.quick))?;
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let args = parse_args(&argv)?;
            if args.workload.is_some() {
                single(&args, &spec, root)
            } else {
                all(&args, &spec, root)
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
