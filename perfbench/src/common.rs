//! Shared plumbing: the run configuration, the result line, order
//! statistics, and child processes with their wall time and peak memory.

use compc::json::Value;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A deliberately wrong expected answer, planted by the benchmark's own
/// tests to show that each output check fails the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plant {
    /// Every answer is the honest one.
    None,
    /// The first input's expected verdict is flipped (check-files, reduce).
    FlipVerdict,
    /// One acked append is dropped from the restart check (serve-grow).
    DropAckedAppend,
    /// The expected representative count is one too high (explore).
    ExploreCountOffByOne,
}

/// What one run measures.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// A planted wrong answer (tests only).
    pub plant: Plant,
    /// Scratch directory for spec files, sockets and journals.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one run: what was attempted, what failed, the metrics,
/// and every output check that did not hold.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The single JSON line the benchmark prints last.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::from(m.unit)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .to_compact()
    }
}

/// SplitMix64: derives independent generator seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a sample (0 for an empty one).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if pct == 50.0 && sorted.len().is_multiple_of(2) {
        let upper = sorted.len() / 2;
        return (sorted[upper - 1] + sorted[upper]) / 2.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Where cargo puts build output: `CARGO_TARGET_DIR`, else this
/// package's `target` directory.
pub fn default_target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
}

/// The repository binaries the workloads drive.
#[derive(Clone, Debug)]
pub struct Bins {
    pub check: PathBuf,
    pub serve: PathBuf,
    pub explore: PathBuf,
}

impl Bins {
    /// Builds `compc-check`, `compc-serve` and `compc-explore` from the
    /// repository this package sits in, into `target_dir`.
    pub fn build(target_dir: &Path) -> Result<Bins, String> {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("the benchmark package has no parent directory")?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir)
            .args(["-p", "compc", "-p", "compc-explore"])
            .args(["--bin", "compc-check", "--bin", "compc-serve"])
            .args(["--bin", "compc-explore"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the repository binaries failed: {status}"));
        }
        let release = target_dir.join("release");
        Ok(Bins {
            check: release.join("compc-check"),
            serve: release.join("compc-serve"),
            explore: release.join("compc-explore"),
        })
    }
}

/// A finished child process.
pub struct Finished {
    /// Exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    pub stdout: String,
    /// From just before spawn to just after the child was reaped.
    pub wall: Duration,
    /// The child's peak resident set size in MB.
    pub peak_rss_mb: f64,
}

/// Runs `cmd` to completion, capturing stdout, and reports its wall time
/// and peak RSS.
pub fn run_measured(cmd: &mut Command) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, max_rss_kb) = wait_with_rusage(child.id())?;
    let wall = start.elapsed();
    read.map_err(|e| format!("cannot read the output of {cmd:?}: {e}"))?;
    Ok(Finished {
        code: exit_code(status),
        stdout,
        wall,
        peak_rss_mb: max_rss_kb as f64 / 1024.0,
    })
}

/// `struct rusage` on LP64 Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps child `pid`, returning its raw wait status and `ru_maxrss` (KB).
/// `std::process::Child::wait` drops the resource usage, so this calls
/// `wait4` directly; the caller must not wait on the child again.
fn wait_with_rusage(pid: u32) -> Result<(i32, u64), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("child pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage { fields: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4 expects (`RUsage` has the size and layout of
        // `struct rusage` on LP64 Linux), and `pid` is a child of this
        // process that has not been reaped yet.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            // ru_maxrss follows the two timevals (four 8-byte words).
            return Ok((status, u64::try_from(usage.fields[4]).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}) failed: {err}"));
        }
    }
}

fn exit_code(status: i32) -> Option<i32> {
    // WIFEXITED / WEXITSTATUS.
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// Peak resident set size (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
