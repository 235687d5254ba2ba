//! `reduce`: in-process `Checker::check` with default options on
//! pre-built in-memory systems, so the reducer and its closure backends do
//! the work and the front end does none.

use crate::common::{median, ms, vm_hwm_mb, Bins, Metric, Outcome, Plant, RunConfig};
use crate::inputs::{self, Input, SLICES};
use crate::validate::{check_decision, Decision};
use compc::core::{Backend, CheckOptions, Checker, Verdict};
use std::hint::black_box;
use std::time::Instant;

/// Builds the systems of the first `slices` slices. Returns them and each
/// slice's set-up time.
pub fn build_systems(cfg: &RunConfig, slices: u64) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut systems = Vec::new();
    let mut setup = Vec::new();
    for slice in 0..slices {
        let start = Instant::now();
        systems.extend(inputs::reduce_slice(cfg.seed, slice)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    Ok((systems, setup))
}

/// A forced-backend checker.
pub fn backend_checker(backend: Backend) -> Checker {
    Checker::with_options(CheckOptions::new().backend(backend))
}

pub fn run(cfg: &RunConfig, _bins: &Bins) -> Result<Outcome, String> {
    let (systems, setup) = build_systems(cfg, SLICES)?;
    let checker = Checker::new();
    let mut latencies = Vec::new();
    let mut first: Vec<Option<Verdict>> = vec![None; systems.len()];
    let mut drift = vec![false; systems.len()];
    let mut attempted = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        for (i, input) in systems.iter().enumerate() {
            let t = Instant::now();
            let verdict = black_box(checker.check(black_box(&input.sys)));
            latencies.push(ms(t.elapsed()));
            attempted += 1;
            match &first[i] {
                None => first[i] = Some(verdict),
                Some(seen) => drift[i] |= Decision::of(seen) != Decision::of(&verdict),
            }
        }
    }
    let window = start.elapsed().as_secs_f64();
    let peak_rss_mb = vm_hwm_mb("self").unwrap_or(0.0);

    // Outside the timed window: every backend must agree bit for bit with
    // the sparse reference, and every rejection's cycle must re-derive.
    let mut problems = Vec::new();
    for (i, input) in systems.iter().enumerate() {
        let label = format!("{} #{i}", input.label);
        let reference = backend_checker(Backend::Sparse).check(&input.sys);
        let reference_text = format!("{reference:?}");
        for backend in [Backend::Dense, Backend::Compressed] {
            if format!("{:?}", backend_checker(backend).check(&input.sys)) != reference_text {
                problems.push(format!(
                    "{label}: {backend:?} differs from the sparse reference"
                ));
            }
        }
        let Some(timed) = &first[i] else { continue };
        if format!("{timed:?}") != reference_text {
            problems.push(format!(
                "{label}: the default check differs from the sparse reference"
            ));
        }
        if drift[i] {
            problems.push(format!("{label}: verdict changed between rounds"));
        }
        if input.comp_c_by_construction && !reference.is_correct() {
            problems.push(format!(
                "{label}: a Comp-C-by-construction export is rejected"
            ));
        }
        let mut expected = Decision::of(&reference);
        if cfg.plant == Plant::FlipVerdict && i == 0 {
            expected = expected.flipped();
        }
        let cycle = timed
            .counterexample()
            .map(|c| c.cycle_names.clone())
            .unwrap_or_default();
        if let Err(e) = check_decision(&input.sys, &expected, &Decision::of(timed), &cycle) {
            problems.push(format!("{label}: {e}"));
        }
    }
    let nodes: usize = systems.iter().map(|s| s.sys.node_count()).sum();
    eprintln!(
        "reduce: {} systems ({nodes} nodes) per round, {attempted} checks in {window:.2} s",
        systems.len()
    );
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_s", attempted as f64 / window, "1/s"),
            Metric::new("p50_ms", median(&latencies), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        problems,
    })
}
