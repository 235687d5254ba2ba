//! The seeded inputs of every workload. The `check-files` and `reduce`
//! inputs come in three *slices* of the same make-up (same shapes, sizes a
//! small step apart, different generator seeds), so that set-up can be
//! timed three times per run and reported as a median.

use crate::common::derive_seed;
use compc::model::CompositeSystem;
use compc::sim::{Engine, LockScope, Protocol, SimConfig};
use compc::workload::random::{generate, GenParams, Shape};
use compc::workload::scenarios::{banking_tpmonitor, federated_travel, inventory_join, Scenario};

/// Slices per workload (set-up is timed once per slice).
pub const SLICES: u64 = 3;

/// One input system and how its verdict is known in advance.
pub struct Input {
    pub label: String,
    pub sys: CompositeSystem,
    /// A simulator export under closed strict 2PL or the CC scheduler on a
    /// stack: Comp-C by construction, so it must be accepted.
    pub comp_c_by_construction: bool,
}

/// A random general configuration (`compc-gen --shape general` with
/// client-imposed input orders, so both failure phases occur), cut down to
/// its first roots with at most `nodes` nodes in all. Sizing by nodes
/// rather than roots keeps every seed's inputs the same size.
fn general(
    label: &str,
    seed: u64,
    levels: usize,
    scheds_per_level: usize,
    nodes: usize,
) -> Result<Input, String> {
    let sys = generate(&GenParams {
        shape: Shape::General {
            levels,
            scheds_per_level,
        },
        roots: nodes / 7 + 4,
        ops_per_tx: (1, 3),
        conflict_density: 0.5,
        sequential_tx_prob: 0.7,
        client_input_prob: 0.2,
        strong_input_prob: 0.1,
        sound_abstractions: false,
        seed,
    });
    let input = Input {
        label: format!("{label}-n{nodes}"),
        sys,
        comp_c_by_construction: false,
    };
    at_most(input, nodes)
}

/// The projection of `input` onto its longest prefix of roots (in id
/// order) with at most `nodes` nodes.
pub fn at_most(input: Input, nodes: usize) -> Result<Input, String> {
    let mut total = 0;
    let keep: Vec<_> = input
        .sys
        .roots()
        .take_while(|&r| {
            total += input.sys.composite_transaction(r).len();
            total <= nodes
        })
        .collect();
    let sys = input
        .sys
        .project_roots(&keep)
        .map_err(|e| format!("{}: projection failed: {e:?}", input.label))?;
    Ok(Input { sys, ..input })
}

/// A simulated run exported as a composite system.
fn simulated(label: &str, scenario: Scenario, seed: u64) -> Result<Input, String> {
    let report = Engine::new(
        scenario.topology,
        scenario.templates,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
    .run();
    let sys = report
        .export_system()
        .map_err(|e| format!("{label}: simulator export failed: {e:?}"))?;
    Ok(Input {
        label: label.to_string(),
        sys,
        comp_c_by_construction: true,
    })
}

const CLOSED_2PL: Protocol = Protocol::TwoPhase {
    scope: LockScope::Composite,
};

/// One slice of the `check-files` corpus: six random general systems of
/// 100 to 440 nodes and four simulator exports.
pub fn check_files_slice(seed: u64, slice: u64) -> Result<Vec<Input>, String> {
    let s = |stream: u64| derive_seed(seed, 100 + slice * 16 + stream);
    // Sizes step by 20 nodes across the slices, so the corpus has no gap
    // for the median latency to straddle.
    let step = 20 * slice as usize;
    let mut inputs = [100, 160, 220, 280, 340, 400]
        .iter()
        .enumerate()
        .map(|(i, &nodes)| general("general", s(i as u64), 3, 2, nodes + step))
        .collect::<Result<Vec<Input>, String>>()?;
    let clients = 30 + 3 * slice as usize;
    inputs.push(simulated(
        "banking-2pl",
        banking_tpmonitor(CLOSED_2PL, clients, 8, s(8)),
        s(8),
    )?);
    inputs.push(simulated(
        "travel-2pl",
        federated_travel(CLOSED_2PL, 2 * clients, 9, s(9)),
        s(9),
    )?);
    inputs.push(simulated(
        "inventory-2pl",
        inventory_join(CLOSED_2PL, 3 * clients, 11, s(10)),
        s(10),
    )?);
    inputs.push(simulated(
        "banking-cc",
        banking_tpmonitor(Protocol::CcSched, clients + 8, 8, s(11)),
        s(11),
    )?);
    Ok(inputs)
}

/// One slice of the `reduce` systems: three random general systems and
/// four simulator exports of 416 to 1,400 nodes.
pub fn reduce_slice(seed: u64, slice: u64) -> Result<Vec<Input>, String> {
    let s = |stream: u64| derive_seed(seed, 200 + slice * 16 + stream);
    // As in `check_files_slice`, sizes step across the slices.
    let (step, k) = (60 * slice as usize, slice as usize);
    Ok(vec![
        general("general", s(0), 3, 2, 420 + step)?,
        general("general", s(1), 3, 2, 720 + step)?,
        general("general-wide", s(2), 3, 4, 1140 + step)?,
        simulated(
            "banking-2pl",
            banking_tpmonitor(CLOSED_2PL, 100 + 8 * k, 12, s(3)),
            s(3),
        )?,
        simulated(
            "banking-cc",
            banking_tpmonitor(Protocol::CcSched, 104 + 8 * k, 12, s(4)),
            s(4),
        )?,
        simulated(
            "travel-2pl",
            federated_travel(CLOSED_2PL, 240 + 20 * k, 20, s(5)),
            s(5),
        )?,
        simulated(
            "inventory-2pl",
            inventory_join(CLOSED_2PL, 300 + 20 * k, 24, s(6)),
            s(6),
        )?,
    ])
}

/// The two systems one `serve-grow` round streams, one per connection: a
/// random general system and a closed-2PL banking export, each of at most
/// [`SESSION_NODES`] nodes.
pub fn serve_round(seed: u64, round: u64) -> Result<[Input; 2], String> {
    let s = |stream: u64| derive_seed(seed, 1000 + round * 4 + stream);
    Ok([
        general("general", s(0), 3, 2, SESSION_NODES)?,
        at_most(
            simulated(
                "banking-2pl",
                banking_tpmonitor(CLOSED_2PL, 60, 10, s(1)),
                s(1),
            )?,
            SESSION_NODES,
        )?,
    ])
}

/// The size a `serve-grow` session grows to.
pub const SESSION_NODES: usize = 400;
