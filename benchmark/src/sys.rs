//! The few things std does not expose: peak RSS of this process and of
//! a child, via `/proc` and an inline `wait4` declaration (no libc
//! crate in the offline build).

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a tool's output, or "unknown" (the driver's checkout is
/// not a git repository, and nothing here may fail a run).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then 14 longs, of
/// which `ru_maxrss` (kB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
pub struct ChildRun {
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub success: bool,
    pub max_rss_mb: f64,
}

/// Runs `program args…` to completion through a small helper process
/// (this binary again, as `spawn-timed`) and returns what the helper
/// measured.
///
/// Why a helper: Linux seeds a child's `ru_maxrss` with the peak RSS of
/// the process that spawned it, so reaped from the runner — which has
/// just generated and loaded a 100K-node graph — every child would
/// report the *runner's* peak. The helper is a few MB, so what `wait4`
/// tells it is the child's own peak.
pub fn run_child(program: &Path, args: &[String]) -> io::Result<ChildRun> {
    let out = Command::new(std::env::current_exe()?)
        .arg("spawn-timed")
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .output()?;
    let report = String::from_utf8_lossy(&out.stderr);
    let mut fields = report.split_whitespace().map(str::parse::<u64>);
    match (fields.next(), fields.next(), fields.next()) {
        (Some(Ok(wall_ns)), Some(Ok(max_rss_kb)), Some(Ok(ok))) => Ok(ChildRun {
            wall: Duration::from_nanos(wall_ns),
            stdout: out.stdout,
            success: ok == 1,
            max_rss_mb: max_rss_kb as f64 / 1024.0,
        }),
        _ => Err(io::Error::other(format!("spawn-timed reported {report:?}"))),
    }
}

/// The helper behind [`run_child`]: spawns the program with this
/// process's stdout (the runner drains it), times it from spawn to exit,
/// reaps it with `wait4`, and reports `wall_ns max_rss_kb ok` on stderr.
pub fn spawn_timed(program: &str, args: &[String]) -> io::Result<()> {
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let mut status = 0i32;
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `ru` are valid for writes for the duration of
    // the call and `Rusage` matches the kernel's 64-bit layout (144
    // bytes); the pid is our own un-reaped child, which `Child` never
    // reaps behind our back because we do not call `wait` on it.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall = start.elapsed();
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    eprintln!("{} {} {}", wall.as_nanos(), ru.ru_maxrss, u8::from(ok));
    Ok(())
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The checkout root: the nearest ancestor of the current directory
/// holding `BENCHMARK.json` (the runner is started from the root by
/// `run.sh` and from `benchmark/` by `cargo test`).
pub fn repo_root() -> io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    cwd.ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "BENCHMARK.json not found"))
}

/// A scratch directory under `benchmark/results/`, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> io::Result<WorkDir> {
        let dir = root
            .join("benchmark/results/work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
