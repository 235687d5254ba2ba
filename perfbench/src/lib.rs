//! The repository benchmark: four workloads over `compc-check`, the Comp-C
//! reducer, growing `compc-serve` sessions and `compc-explore`, each
//! checking every output against an answer computed apart from the
//! program, plus a traced run that times each layer's public functions
//! from this package's own code. See `README.md` next to this file.

pub mod check_files;
pub mod common;
pub mod explore;
pub mod inputs;
pub mod reduce;
pub mod serve_grow;
pub mod traced;
pub mod validate;

use common::{Bins, Outcome, RunConfig};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CheckFiles,
    Reduce,
    ServeGrow,
    Explore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CheckFiles,
        Workload::Reduce,
        Workload::ServeGrow,
        Workload::Explore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckFiles => "check-files",
            Workload::Reduce => "reduce",
            Workload::ServeGrow => "serve-grow",
            Workload::Explore => "explore",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The untraced run: end-to-end metrics only.
    pub fn run(self, cfg: &RunConfig, bins: &Bins) -> Result<Outcome, String> {
        match self {
            Workload::CheckFiles => check_files::run(cfg, bins),
            Workload::Reduce => reduce::run(cfg, bins),
            Workload::ServeGrow => serve_grow::run(cfg, bins),
            Workload::Explore => explore::run(cfg, bins),
        }
    }
}
