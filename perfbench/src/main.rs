//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the repository binaries, runs one workload for `S` seconds on
//! inputs derived from seed `N`, checks every output, and prints the
//! result as one JSON line (the last line of stdout). `--trace 1` runs the
//! traced per-layer pass instead. Exit 0 = every output check held, 1 = a
//! check failed (the result line says `"correct": false`), 2 = usage or
//! harness error (no result line).

use compc_perfbench::common::{default_target_dir, Bins, Plant, RunConfig};
use compc_perfbench::{traced, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload check-files|reduce|serve-grow|explore \
--seed N --seconds S [--trace 0|1]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        match (argv[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some("0")) => trace = false,
            ("--trace", Some("1")) => trace = true,
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let bins = match Bins::build(&default_target_dir()) {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    let cfg = RunConfig {
        seed,
        seconds,
        plant: Plant::None,
        work_dir: work_dir.clone(),
    };
    let result = if trace {
        traced::run(workload, &cfg, &bins)
    } else {
        workload.run(&cfg, &bins)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("CHECK FAILED: {problem}");
            }
            println!("{}", outcome.json_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload:?}: {e}");
            ExitCode::from(2)
        }
    }
}
