//! The traced run: the inputs of all four workloads (for the run's seed)
//! are fed through each layer's public functions, called from this file
//! with a span around every call. Spans stay in memory and are written
//! out as NDJSON when the run ends; the per-layer metrics are medians of
//! span durations (or counts taken at the same boundaries). Nothing inside
//! the program is instrumented, so the untraced workloads are unaffected.
//!
//! Every per-layer metric is printed whichever `--workload` is named: each
//! is measured on the workload whose path its layer lies on.

use crate::check_files::write_corpus;
use crate::common::{
    median, ms, percentile, run_measured, Bins, Metric, Outcome, Plant, RunConfig,
};
use crate::explore::{parse_sweep, sweep, MAX_NODES};
use crate::reduce::{backend_checker, build_systems};
use crate::serve_grow::{check_final_verdicts, plan_round, run_round};
use crate::Workload;
use compc::core::{Backend, CheckOptions, Checker, Session};
use compc::session::SpecSession;
use compc::spec::SystemSpec;
use compc::trace::{MemorySink, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The smallest valid spec: one root with one leaf.
const TINY_SPEC: &str = r#"{"schedules": ["S"], "nodes": [{"name": "T1", "kind": "root", "home": "S"}, {"name": "o1", "kind": "leaf", "parent": "T1"}]}"#;

/// One timed call at a layer boundary.
struct Span {
    workload: &'static str,
    /// The operation (file, system, fragment, representative) it served.
    op: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            workload: "",
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn start(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            workload: self.workload,
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, op, parent);
        let value = black_box(f());
        self.end(id);
        value
    }

    fn span_ms(span: &Span) -> f64 {
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// The duration (ms) of the span recorded last.
    fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, Tracer::span_ms)
    }

    /// Durations (ms) of this workload's spans called `name`, keyed by op.
    fn by_op(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.workload == self.workload && s.name == name)
        {
            *out.entry(s.op).or_insert(0.0) += Tracer::span_ms(s);
        }
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.by_op(name).into_values().collect()
    }

    fn ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.workload, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `check-files` inputs through JSON parse, spec decode, model build and
/// the check, next to the `compc-check` process on the same file.
fn check_files_pass(
    cfg: &RunConfig,
    bins: &Bins,
    tr: &mut Tracer,
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    tr.workload = "check-files";
    let (files, _) = write_corpus(cfg, 1)?;
    let mut process_ms = BTreeMap::new();
    let mut bare_ms = 0.0;
    let mut traced_ms = 0.0;
    for (op, file) in files.iter().enumerate() {
        let text = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
        // The same pipeline once without spans, for the tracing overhead.
        let t = Instant::now();
        let value = compc::json::parse(&text).map_err(|e| e.to_string())?;
        let spec = SystemSpec::from_json(&value).map_err(|e| e.to_string())?;
        let sys = spec.build().map_err(|e| e.to_string())?;
        black_box(Checker::new().check(&sys));
        bare_ms += ms(t.elapsed());

        let t = Instant::now();
        let root = tr.start("check.file", op, None);
        let value = tr.time("json.parse", op, Some(root), || compc::json::parse(&text));
        let value = value.map_err(|e| e.to_string())?;
        let spec = tr.time("spec.decode", op, Some(root), || {
            SystemSpec::from_json(&value)
        });
        let spec = spec.map_err(|e| e.to_string())?;
        let sys = tr.time("spec.build", op, Some(root), || spec.build());
        let sys = sys.map_err(|e| e.to_string())?;
        let verdict = tr.time("core.check", op, Some(root), || Checker::new().check(&sys));
        tr.end(root);
        traced_ms += ms(t.elapsed());
        if verdict.is_correct() != Checker::new().check(&file.input.sys).is_correct() {
            problems.push(format!(
                "{}: the parsed spec decides differently",
                file.path.display()
            ));
        }
        let done = run_measured(Command::new(&bins.check).arg(&file.path))?;
        process_ms.insert(op, ms(done.wall));
    }
    let parse = tr.by_op("json.parse");
    let decode = tr.by_op("spec.decode");
    let build = tr.by_op("spec.build");
    let check = tr.by_op("core.check");
    let layer = |m: &BTreeMap<usize, f64>, op: usize| m.get(&op).copied().unwrap_or(0.0);
    // What a `compc-check` process costs besides the layers: process start,
    // file read and verdict render, timed on a one-node spec. (Per-file wall
    // time minus in-process layer times is no estimate of it: the quadratic
    // parse loop is so sensitive to code layout that this package's copy
    // of `compc_json` runs it up to 1.6x slower than `compc-check` does.)
    let tiny = cfg.work_dir.join("tiny.json");
    std::fs::write(&tiny, TINY_SPEC)
        .map_err(|e| format!("cannot write {}: {e}", tiny.display()))?;
    let mut other = Vec::new();
    for _ in 0..30 {
        let done = run_measured(Command::new(&bins.check).arg(&tiny))?;
        if done.code != Some(0) {
            problems.push(format!(
                "the one-node spec is not accepted: exit {:?}",
                done.code
            ));
        }
        other.push(ms(done.wall));
    }
    let bytes: f64 = files.iter().map(|f| f.bytes as f64).sum();
    let parse_total_s: f64 = parse.values().sum::<f64>() / 1000.0;
    let process_total_s: f64 = process_ms.values().sum::<f64>() / 1000.0;

    println!("check-files cost curve (per file, by size; layers timed in process):");
    println!(
        "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>12} {:>7}",
        "KB", "nodes", "parse_ms", "decode_ms", "build_ms", "check_ms", "process_ms", "parse%"
    );
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by_key(|&op| files[op].bytes);
    for op in order {
        let layers = layer(&parse, op) + layer(&decode, op) + layer(&build, op) + layer(&check, op);
        println!(
            "{:>8.1} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>12.2} {:>6.1}%",
            files[op].bytes as f64 / 1000.0,
            files[op].input.sys.node_count(),
            layer(&parse, op),
            layer(&decode, op),
            layer(&build, op),
            layer(&check, op),
            process_ms[&op],
            share(layer(&parse, op), layers)
        );
    }
    metrics.extend([
        Metric::new("json.parse_ms", median(&tr.durations("json.parse")), "ms"),
        Metric::new("json.parse_mb_per_s", bytes / 1e6 / parse_total_s, "MB/s"),
        Metric::new("spec.decode_ms", median(&tr.durations("spec.decode")), "ms"),
        Metric::new("spec.build_ms", median(&tr.durations("spec.build")), "ms"),
        Metric::new("check.other_ms", median(&other), "ms"),
        Metric::new("check.mb_per_s", bytes / 1e6 / process_total_s, "MB/s"),
        Metric::new(
            "trace.overhead_pct",
            share(traced_ms - bare_ms, bare_ms),
            "%",
        ),
    ]);
    Ok(())
}

/// `reduce` systems through the default check, each forced backend, and
/// a traced check for the per-level events.
fn reduce_pass(
    tr: &mut Tracer,
    cfg: &RunConfig,
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    tr.workload = "reduce";
    let (systems, _) = build_systems(cfg, 1)?;
    let mut level_ms = Vec::new();
    let mut closure_edges = Vec::new();
    for (op, input) in systems.iter().enumerate() {
        let verdict = tr.time("core.check", op, None, || Checker::new().check(&input.sys));
        let reference = format!("{verdict:?}");
        for (name, backend) in [
            ("core.check.sparse", Backend::Sparse),
            ("core.check.dense", Backend::Dense),
            ("core.check.compressed", Backend::Compressed),
        ] {
            let checker = backend_checker(backend);
            let forced = tr.time(name, op, None, || checker.check(&input.sys));
            if format!("{forced:?}") != reference {
                problems.push(format!("{} #{op}: {backend:?} disagrees", input.label));
            }
        }
        let mut sink = MemorySink::new();
        Checker::new().check_traced(&input.sys, &mut sink);
        let mut edges = 0;
        for event in &sink.events {
            if let TraceEvent::Level {
                elapsed_ns,
                closure_edges,
                ..
            } = event
            {
                level_ms.push(*elapsed_ns as f64 / 1e6);
                edges += closure_edges;
            }
        }
        closure_edges.push(edges as f64);
    }
    metrics.extend([
        Metric::new("core.check_ms", median(&tr.durations("core.check")), "ms"),
        Metric::new(
            "core.check_ms.sparse",
            median(&tr.durations("core.check.sparse")),
            "ms",
        ),
        Metric::new(
            "core.check_ms.dense",
            median(&tr.durations("core.check.dense")),
            "ms",
        ),
        Metric::new(
            "core.check_ms.compressed",
            median(&tr.durations("core.check.compressed")),
            "ms",
        ),
        Metric::new("core.level_ms", median(&level_ms), "ms"),
        Metric::new(
            "core.closure_edges",
            closure_edges.iter().sum::<f64>() / closure_edges.len().max(1) as f64,
            "count",
        ),
    ]);
    Ok(())
}

/// Traced `serve-grow` rounds: each fragment through clone-and-merge,
/// build, `compc_core::Session::append`, `SpecSession::append` and
/// `SpecSession::snapshot` in process, and through a journaled daemon.
fn serve_pass(
    cfg: &RunConfig,
    bins: &Bins,
    tr: &mut Tracer,
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    const ROUNDS: u64 = 2;
    tr.workload = "serve-grow";
    let mut op = 0;
    let mut rows: Vec<(usize, usize)> = Vec::new(); // (op, session nodes)
    let mut ack_other = Vec::new();
    let mut ack_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut restart_s = Vec::new();
    let (mut acked, mut fsyncs, mut journal_bytes, mut fragment_bytes) = (0u64, 0u64, 0u64, 0usize);
    let (mut reused, mut computed, mut spliced, mut recomputed) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..ROUNDS {
        let sessions = plan_round(cfg.seed, round)?;
        let dir = cfg.work_dir.join(format!("serve-trace-r{round}"));
        let r = run_round(bins, &dir, &sessions, Plant::None)?;
        let _ = std::fs::remove_dir_all(&dir);
        problems.extend(r.problems.iter().cloned());
        check_final_verdicts(&sessions, &r.grown, problems);
        restart_s.push(r.restart_s);
        fsyncs += r.fsyncs;
        journal_bytes += r.journal_bytes;
        for (session, grown) in sessions.iter().zip(&r.grown) {
            acked += grown.acked;
            fragment_bytes += session.fragment_bytes;
            read_ms.extend(&grown.read_ms);
            let mut spec_session = SpecSession::new();
            let mut core_session = Session::new();
            let mut merged_so_far = SpecSession::new().spec().clone();
            for (i, fragment) in session.fragments.iter().enumerate() {
                let root = tr.start("serve.fragment", op, None);
                let merged = tr.time("spec.merge", op, Some(root), || {
                    let mut merged = merged_so_far.clone();
                    merged.merge(fragment).map(|()| merged)
                });
                match merged {
                    Ok(merged) => {
                        let sys = tr.time("serve.build", op, Some(root), || merged.build());
                        merged_so_far = merged;
                        match sys {
                            Ok(sys) => {
                                let nodes = sys.node_count();
                                let appended =
                                    tr.time("core.session_append", op, Some(root), || {
                                        core_session.append(sys).is_ok()
                                    });
                                if !appended {
                                    problems.push(format!(
                                        "{}: core session refused fragment {i}",
                                        session.name
                                    ));
                                }
                                rows.push((op, nodes));
                            }
                            Err(e) => problems.push(format!(
                                "{}: fragment {i} does not build: {e}",
                                session.name
                            )),
                        }
                    }
                    Err(e) => problems.push(format!(
                        "{}: fragment {i} does not merge: {e}",
                        session.name
                    )),
                }
                tr.end(root);
                let appended = tr.time("session.append", op, None, || {
                    spec_session.append(fragment).is_ok()
                });
                let append_ms = tr.last_ms();
                if !appended {
                    problems.push(format!(
                        "{}: SpecSession refused fragment {i}",
                        session.name
                    ));
                }
                tr.time("session.snapshot", op, None, || spec_session.snapshot());
                if let Some(&ack) = grown.ack_ms.get(i) {
                    ack_ms.push(ack);
                    ack_other.push(ack - append_ms);
                }
                op += 1;
            }
            let stats = spec_session.stats();
            reused += stats.levels_reused;
            computed += stats.levels_computed;
            spliced += stats.rows_spliced;
            recomputed += stats.rows_recomputed;
        }
    }

    let merge = tr.by_op("spec.merge");
    let build = tr.by_op("serve.build");
    let core_append = tr.by_op("core.session_append");
    let append = tr.by_op("session.append");
    let snapshot = tr.by_op("session.snapshot");
    println!("serve-grow cost curve (per append, by session size after the append):");
    println!(
        "{:>9} {:>6} {:>9} {:>9} {:>10} {:>10} {:>11} {:>7}",
        "nodes", "n", "merge_ms", "build_ms", "core_ms", "append_ms", "snapshot_ms", "front%"
    );
    for low in (0..)
        .step_by(100)
        .take_while(|l| rows.iter().any(|&(_, n)| n >= *l))
    {
        let ops: Vec<usize> = rows
            .iter()
            .filter(|&&(_, n)| n >= low && n < low + 100)
            .map(|&(op, _)| op)
            .collect();
        let med = |m: &BTreeMap<usize, f64>| {
            median(
                &ops.iter()
                    .filter_map(|op| m.get(op).copied())
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "{:>4}-{:<4} {:>6} {:>9.2} {:>9.2} {:>10.2} {:>10.2} {:>11.2} {:>6.1}%",
            low,
            low + 99,
            ops.len(),
            med(&merge),
            med(&build),
            med(&core_append),
            med(&append),
            med(&snapshot),
            share(
                med(&merge) + med(&build),
                med(&merge) + med(&build) + med(&core_append)
            )
        );
    }
    let ratio = |a: u64, b: u64| {
        if a + b > 0 {
            a as f64 / (a + b) as f64
        } else {
            0.0
        }
    };
    metrics.extend([
        Metric::new("spec.merge_ms", median(&tr.durations("spec.merge")), "ms"),
        Metric::new(
            "session.append_ms",
            median(&tr.durations("session.append")),
            "ms",
        ),
        Metric::new(
            "session.snapshot_ms",
            median(&tr.durations("session.snapshot")),
            "ms",
        ),
        Metric::new(
            "core.session_append_ms",
            median(&tr.durations("core.session_append")),
            "ms",
        ),
        Metric::new("core.level_reuse_ratio", ratio(reused, computed), "ratio"),
        Metric::new(
            "core.rows_spliced_ratio",
            ratio(spliced, recomputed),
            "ratio",
        ),
        Metric::new("serve.ack_other_ms", median(&ack_other), "ms"),
        Metric::new("serve.ack_p95_ms", percentile(&ack_ms, 95.0), "ms"),
        Metric::new("serve.read_p50_ms", median(&read_ms), "ms"),
        Metric::new("serve.restart_s", median(&restart_s), "s"),
        Metric::new(
            "serve.fsyncs_per_append",
            fsyncs as f64 / acked.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serve.journal_bytes_per_byte",
            journal_bytes as f64 / fragment_bytes.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(())
}

/// `explore` representatives through enumeration, the oracle and the
/// bit-identical session replay; one `compc-explore` sweep for the share
/// of order combinations that were executions.
fn explore_pass(
    bins: &Bins,
    tr: &mut Tracer,
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    tr.workload = "explore";
    let bounds = compc_explore::Bounds {
        max_nodes: MAX_NODES.parse().expect("MAX_NODES is a number"),
        ..compc_explore::Bounds::default()
    };
    let reps = tr.time("explore.enumerate", 0, None, || {
        compc_explore::representatives(&bounds)
    });
    for (op, sys) in reps.iter().enumerate() {
        let oracle = tr.time("oracle.decide", op, None, || compc::oracle::decide(sys));
        if oracle.accepted() != Checker::new().check(sys).is_correct() {
            problems.push(format!(
                "representative {op}: the oracle and the checker disagree"
            ));
        }
        let fragments = SystemSpec::from_system(sys).into_appends();
        let replay = tr.time("session.replay", op, None, || {
            SpecSession::replay_bit_identical(&fragments, CheckOptions::default())
        });
        if let Err(e) = replay {
            problems.push(format!("representative {op}: {e}"));
        }
    }
    let done = sweep(bins)?;
    let swept = parse_sweep(done.code, &done.stdout, false)?;
    if swept.representatives != reps.len() as u64 {
        problems.push(format!(
            "compc-explore checked {} representatives, the enumeration gives {}",
            swept.representatives,
            reps.len()
        ));
    }
    metrics.extend([
        Metric::new(
            "explore.enumerate_ms",
            median(&tr.durations("explore.enumerate")),
            "ms",
        ),
        Metric::new(
            "explore.useful_ratio",
            swept.representatives as f64 / (swept.representatives + swept.infeasible).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "oracle.decide_ms",
            median(&tr.durations("oracle.decide")),
            "ms",
        ),
        Metric::new(
            "session.replay_ms",
            median(&tr.durations("session.replay")),
            "ms",
        ),
    ]);
    Ok(())
}

pub fn run(workload: Workload, cfg: &RunConfig, bins: &Bins) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut tr = Tracer::new(start);
    let mut metrics = Vec::new();
    let mut problems = Vec::new();
    let mut walls = Vec::new();
    for pass in Workload::ALL {
        let t = Instant::now();
        match pass {
            Workload::CheckFiles => {
                check_files_pass(cfg, bins, &mut tr, &mut metrics, &mut problems)?
            }
            Workload::Reduce => reduce_pass(&mut tr, cfg, &mut metrics, &mut problems)?,
            Workload::ServeGrow => serve_pass(cfg, bins, &mut tr, &mut metrics, &mut problems)?,
            Workload::Explore => explore_pass(bins, &mut tr, &mut metrics, &mut problems)?,
        }
        walls.push((pass.name(), t.elapsed().as_secs_f64()));
    }
    let wall_s = start.elapsed().as_secs_f64();
    metrics.push(Metric::new("trace.wall_s", wall_s, "s"));
    for (name, s) in &walls {
        println!("traced pass {name}: {s:.2} s");
    }
    println!(
        "traced run (named workload {}): {wall_s:.2} s wall; an untraced run measures for {} s plus set-up",
        workload.name(),
        cfg.seconds
    );
    let spans =
        cfg.work_dir
            .with_file_name(format!("spans-{}-{}.ndjson", workload.name(), cfg.seed));
    std::fs::write(&spans, tr.ndjson())
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    println!("spans: {} ({} spans)", spans.display(), tr.spans.len());
    Ok(Outcome {
        attempted: tr.spans.iter().filter(|s| s.parent.is_none()).count() as u64,
        failed: 0,
        metrics,
        problems,
    })
}
