//! The output checks bite: each planted wrong answer must fail its run,
//! while the same run with honest answers passes.

use compc_perfbench::common::{default_target_dir, Bins, Outcome, Plant, RunConfig};
use compc_perfbench::Workload;
use std::path::PathBuf;
use std::sync::OnceLock;

fn bins() -> &'static Bins {
    static BINS: OnceLock<Bins> = OnceLock::new();
    BINS.get_or_init(|| Bins::build(&default_target_dir()).expect("the repository binaries build"))
}

/// One shortest run (a single round) of `workload` with `plant`.
fn run(workload: Workload, plant: Plant) -> Outcome {
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "test-{}-{plant:?}-{}",
        workload.name(),
        std::process::id()
    ));
    let cfg = RunConfig {
        seed: 7,
        seconds: 1e-3,
        plant,
        work_dir: work_dir.clone(),
    };
    let outcome = workload.run(&cfg, bins());
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome.expect("the harness runs")
}

fn assert_bites(workload: Workload, plant: Plant, symptom: &str) {
    let honest = run(workload, Plant::None);
    assert!(honest.correct(), "honest run failed: {:?}", honest.problems);
    assert!(honest.attempted > 0 && honest.failed == 0);
    let planted = run(workload, plant);
    assert!(!planted.correct(), "{plant:?} went unnoticed");
    assert!(
        planted.problems.iter().any(|p| p.contains(symptom)),
        "{plant:?} failed for another reason: {:?}",
        planted.problems
    );
}

#[test]
fn a_flipped_verdict_fails_check_files() {
    assert_bites(Workload::CheckFiles, Plant::FlipVerdict, "verdict");
}

#[test]
fn a_flipped_verdict_fails_reduce() {
    assert_bites(Workload::Reduce, Plant::FlipVerdict, "verdict");
}

#[test]
fn a_dropped_acked_append_fails_the_restart_check() {
    assert_bites(
        Workload::ServeGrow,
        Plant::DropAckedAppend,
        "after the restart",
    );
}

#[test]
fn an_explore_count_off_by_one_fails_explore() {
    assert_bites(
        Workload::Explore,
        Plant::ExploreCountOffByOne,
        "representatives",
    );
}
