//! `check-files`: the `compc-check` binary, one process per spec file.

use crate::common::{median, ms, run_measured, Bins, Metric, Outcome, Plant, RunConfig};
use crate::inputs::{self, Input, SLICES};
use crate::validate::{check_decision, parse_phase, Decision};
use compc::core::Checker;
use compc::spec::SystemSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// One spec file of the corpus.
pub struct SpecFile {
    pub input: Input,
    pub path: PathBuf,
    pub bytes: usize,
}

/// Generates, serializes (as `compc-gen` does) and writes the first
/// `slices` slices of the corpus. Returns the files and each slice's set-up
/// time.
pub fn write_corpus(cfg: &RunConfig, slices: u64) -> Result<(Vec<SpecFile>, Vec<f64>), String> {
    let dir = cfg.work_dir.join("check-files");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    let mut setup = Vec::new();
    for slice in 0..slices {
        let start = Instant::now();
        for (i, input) in inputs::check_files_slice(cfg.seed, slice)?
            .into_iter()
            .enumerate()
        {
            let text = SystemSpec::from_system(&input.sys).to_json().to_pretty() + "\n";
            let path = dir.join(format!("s{slice}-{i:02}-{}.json", input.label));
            std::fs::write(&path, &text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            files.push(SpecFile {
                input,
                path,
                bytes: text.len(),
            });
        }
        setup.push(start.elapsed().as_secs_f64());
    }
    Ok((files, setup))
}

/// What one `compc-check` process reported.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Report {
    code: Option<i32>,
    stdout: String,
}

/// Reads the verdict, failing level/phase and witness cycle from
/// `compc-check`'s single-system output.
fn parse_report(stdout: &str) -> Result<(Decision, Vec<String>), String> {
    let verdict = stdout
        .lines()
        .find_map(|l| l.strip_prefix("verdict: "))
        .ok_or("no verdict line")?;
    let correct = match verdict.trim() {
        "Comp-C (correct)" => true,
        "NOT Comp-C" => false,
        other => return Err(format!("unknown verdict {other:?}")),
    };
    if correct {
        return Ok((
            Decision {
                correct,
                failure: None,
            },
            Vec::new(),
        ));
    }
    // "reduction failed at level L (phase): cycle a -> b -> c"
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("reduction failed at level "))
        .ok_or("rejection without a failure line")?;
    let (level, rest) = line.split_once(" (").ok_or("malformed failure line")?;
    let (phase, cycle) = rest
        .split_once("): cycle ")
        .ok_or("malformed failure line")?;
    let level: usize = level.parse().map_err(|_| "malformed failure level")?;
    let phase = parse_phase(phase).ok_or_else(|| format!("unknown phase {phase:?}"))?;
    let cycle = cycle.trim().split(" -> ").map(str::to_string).collect();
    Ok((
        Decision {
            correct,
            failure: Some((level, phase)),
        },
        cycle,
    ))
}

pub fn run(cfg: &RunConfig, bins: &Bins) -> Result<Outcome, String> {
    let (files, setup) = write_corpus(cfg, SLICES)?;
    let mut latencies = Vec::new();
    let mut reports: Vec<BTreeSet<Report>> = vec![BTreeSet::new(); files.len()];
    let mut peak_rss_mb: f64 = 0.0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        for (file, seen) in files.iter().zip(&mut reports) {
            let done = run_measured(Command::new(&bins.check).arg(&file.path))?;
            attempted += 1;
            peak_rss_mb = peak_rss_mb.max(done.peak_rss_mb);
            latencies.push(ms(done.wall));
            // Exit 0 = Comp-C, 1 = not Comp-C; anything else failed.
            if !matches!(done.code, Some(0 | 1)) {
                failed += 1;
            }
            seen.insert(Report {
                code: done.code,
                stdout: done.stdout,
            });
        }
    }
    let window = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    for (i, (file, seen)) in files.iter().zip(&reports).enumerate() {
        let label = file.path.display();
        if seen.len() != 1 {
            problems.push(format!(
                "{label}: {} different outputs across rounds",
                seen.len()
            ));
        }
        let mut expected = Decision::of(&Checker::new().check(&file.input.sys));
        if file.input.comp_c_by_construction && !expected.correct {
            problems.push(format!(
                "{label}: in-process check rejects a Comp-C-by-construction export"
            ));
        }
        if cfg.plant == Plant::FlipVerdict && i == 0 {
            expected = expected.flipped();
        }
        for report in seen.iter().filter(|r| matches!(r.code, Some(0 | 1))) {
            let checked = parse_report(&report.stdout).and_then(|(decision, cycle)| {
                if (report.code == Some(0)) != decision.correct {
                    return Err(format!(
                        "exit code {:?} contradicts the verdict",
                        report.code
                    ));
                }
                check_decision(&file.input.sys, &expected, &decision, &cycle)
            });
            if let Err(e) = checked {
                problems.push(format!("{label}: {e}"));
            }
        }
    }
    let bytes: usize = files.iter().map(|f| f.bytes).sum();
    eprintln!(
        "check-files: {} files ({:.1} MB) per round, {attempted} checks in {window:.2} s",
        files.len(),
        bytes as f64 / 1e6
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_s", attempted as f64 / window, "1/s"),
            Metric::new("p50_ms", median(&latencies), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        problems,
    })
}
