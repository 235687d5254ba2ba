//! `explore`: whole `compc-explore` sweeps at fixed bounds. Tens of
//! thousands of tiny systems are each checked by three backends, the
//! oracle and a session replay, so per-call constant costs dominate.
//!
//! The enumeration is exhaustive, so the inputs are the bounds alone and do
//! not depend on the workload seed.

use crate::common::{median, ms, run_measured, Bins, Finished, Metric, Outcome, Plant, RunConfig};
use std::process::Command;
use std::time::Instant;

/// Node bound of every sweep (the other bounds keep their defaults).
pub const MAX_NODES: &str = "8";
/// The skeleton shapes; their sweeps partition the representatives.
pub const SHAPES: [&str; 3] = ["flat", "stack1", "stack2"];

/// The counters of one sweep report.
#[derive(Debug, PartialEq, Eq)]
pub struct Sweep {
    pub representatives: u64,
    pub infeasible: u64,
}

/// Reads a sweep's counters, demanding a completed, clean sweep (and, for
/// `--naive`, the agreeing naive cross-check).
pub fn parse_sweep(code: Option<i32>, stdout: &str, naive: bool) -> Result<Sweep, String> {
    if code != Some(0) {
        return Err(format!("compc-explore exited {code:?}"));
    }
    if !stdout.lines().any(|l| l.starts_with("clean sweep:")) {
        return Err("the sweep is not reported clean".to_string());
    }
    if naive && !stdout.contains("counts agree with sleep-set classes") {
        return Err("no agreeing naive cross-check".to_string());
    }
    // "trace classes: N per-schedule, R composite representatives checked,
    //  I infeasible combinations"
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace classes: "))
        .ok_or("no trace-class line")?;
    let number_before = |suffix: &str| -> Result<u64, String> {
        line.split(", ")
            .find_map(|part| part.strip_suffix(suffix))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("no {suffix:?} count"))
    };
    Ok(Sweep {
        representatives: number_before(" composite representatives checked")?,
        infeasible: number_before(" infeasible combinations")?,
    })
}

/// One sweep over every shape.
pub fn sweep(bins: &Bins) -> Result<Finished, String> {
    run_measured(Command::new(&bins.explore).args(["--max-nodes", MAX_NODES]))
}

pub fn run(cfg: &RunConfig, bins: &Bins) -> Result<Outcome, String> {
    // Set-up: the naive cross-check per shape gives the expected count.
    let mut setup = Vec::new();
    let mut expected = 0u64;
    for shape in SHAPES {
        let done = run_measured(Command::new(&bins.explore).args([
            "--max-nodes",
            MAX_NODES,
            "--shapes",
            shape,
            "--naive",
        ]))?;
        setup.push(done.wall.as_secs_f64());
        expected += parse_sweep(done.code, &done.stdout, true)
            .map_err(|e| format!("naive sweep of {shape}: {e}"))?
            .representatives;
    }
    if cfg.plant == Plant::ExploreCountOffByOne {
        expected += 1;
    }

    let mut latencies = Vec::new();
    let mut peak_rss_mb: f64 = 0.0;
    let mut checked = 0u64;
    let mut problems = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let done = sweep(bins)?;
        latencies.push(ms(done.wall));
        peak_rss_mb = peak_rss_mb.max(done.peak_rss_mb);
        match parse_sweep(done.code, &done.stdout, false) {
            Ok(sweep) if sweep.representatives == expected => checked += sweep.representatives,
            Ok(sweep) => {
                checked += sweep.representatives;
                problems.push(format!(
                    "sweep checked {} representatives, the naive sweeps give {expected}",
                    sweep.representatives
                ));
            }
            Err(e) => problems.push(e),
        }
    }
    let window = start.elapsed().as_secs_f64();
    eprintln!(
        "explore: {} sweeps, {checked} representatives in {window:.2} s",
        latencies.len()
    );
    Ok(Outcome {
        attempted: checked,
        failed: 0,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_s", checked as f64 / window, "1/s"),
            Metric::new("p50_ms", median(&latencies), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        problems,
    })
}
