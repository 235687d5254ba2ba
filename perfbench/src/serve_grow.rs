//! `serve-grow`: the `compc-serve` daemon with `--journal` and
//! `--checkpoint`, driven closed-loop over two Unix-socket connections.
//! Each connection grows its own named session from empty, one root
//! subtree per append (the fragments `compc-serve --split` prints), with a
//! `stats` read every few appends. After the last ack the daemon is
//! SIGKILLed and restarted on the same journal and checkpoint, and every
//! session must come back with exactly its acked appends and verdict.
//! Every round uses a fresh daemon, fresh sessions and fresh systems, so
//! no fragment is ever sent twice into a session.

use crate::common::{median, ms, vm_hwm_mb, Bins, Metric, Outcome, Plant, RunConfig};
use crate::inputs::{self, Input};
use crate::validate::{parse_phase, Decision};
use compc::core::Checker;
use compc::json::Value;
use compc::spec::SystemSpec;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `stats` read follows every this many appends on each connection.
pub const STATS_EVERY: usize = 4;

/// One named session of a round and the request lines that grow it.
pub struct Session {
    pub name: String,
    pub input: Input,
    pub fragments: Vec<SystemSpec>,
    /// One `{"session": .., "append": ..}` line per fragment.
    pub lines: Vec<String>,
    /// Bytes of the fragment documents inside `lines`.
    pub fragment_bytes: usize,
}

/// The two sessions of round `round`.
pub fn plan_round(seed: u64, round: u64) -> Result<Vec<Session>, String> {
    let sessions = inputs::serve_round(seed, round)?;
    Ok(sessions
        .into_iter()
        .enumerate()
        .map(|(c, input)| {
            let name = format!("r{round}c{c}");
            let fragments = SystemSpec::from_system(&input.sys).into_appends();
            let mut fragment_bytes = 0;
            let lines = fragments
                .iter()
                .map(|f| {
                    let doc = f.to_json();
                    fragment_bytes += doc.to_compact().len();
                    Value::Object(vec![
                        ("session".to_string(), Value::from(name.as_str())),
                        ("append".to_string(), doc),
                    ])
                    .to_compact()
                        + "\n"
                })
                .collect();
            Session {
                name,
                input,
                fragments,
                lines,
                fragment_bytes,
            }
        })
        .collect())
}

/// A running `compc-serve`; killed and reaped on drop if still running.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon on `dir`'s socket, checkpoint and journal and waits
    /// until it answers a `stats` request.
    pub fn start(bins: &Bins, dir: &Path) -> Result<Daemon, String> {
        let socket = dir.join("serve.sock");
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))
            .map_err(|e| format!("cannot open the daemon log: {e}"))?;
        let child = Command::new(&bins.serve)
            .arg("--socket")
            .arg(&socket)
            .arg("--checkpoint")
            .arg(dir.join("state.json"))
            .arg("--journal")
            .arg(dir.join("journal.ndjson"))
            .args(["--idle-timeout-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bins.serve.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(mut conn) = Conn::connect(&daemon.socket) {
                if conn.request(r#"{"op": "stats"}"#).is_ok() {
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.try_exit() {
                return Err(format!(
                    "compc-serve exited before answering ({status}); see {}",
                    dir.join("daemon.log").display()
                ));
            }
            if Instant::now() > deadline {
                return Err("compc-serve did not answer within 120 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn try_exit(&mut self) -> Option<std::process::ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    pub fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Asks for a clean shutdown and reaps the daemon (killing it if it
    /// does not exit within 30 s).
    pub fn shutdown(&mut self) {
        if let Ok(mut conn) = Conn::connect(&self.socket) {
            let _ = conn.request(r#"{"op": "shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.try_exit().is_some() {
                self.child = None;
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One closed-loop client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and returns the raw response line.
    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        if !line.ends_with('\n') {
            self.writer
                .write_all(b"\n")
                .map_err(|e| format!("send: {e}"))?;
        }
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// [`Conn::round_trip`] with the response parsed.
    pub fn request(&mut self, line: &str) -> Result<Value, String> {
        let response = self.round_trip(line)?;
        compc::json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

fn stats_line(session: &str) -> String {
    format!("{{\"op\": \"stats\", \"session\": \"{session}\"}}\n")
}

/// The decision an append's verdict line reports.
fn ack_decision(ack: &Value) -> Option<Decision> {
    match ack.get("verdict")?.as_str()? {
        "comp-c" => Some(Decision {
            correct: true,
            failure: None,
        }),
        "not-comp-c" => {
            let level = usize::try_from(ack.get("level")?.as_u64()?).ok()?;
            let phase = parse_phase(ack.get("phase")?.as_str()?)?;
            Some(Decision {
                correct: false,
                failure: Some((level, phase)),
            })
        }
        _ => None,
    }
}

/// What one connection saw while growing its session.
#[derive(Default)]
pub struct Grown {
    /// Send-to-ack latency per append, in fragment order.
    pub ack_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub acked: u64,
    pub last: Option<Decision>,
    pub problems: Vec<String>,
}

fn grow(socket: &Path, session: &Session) -> Result<Grown, String> {
    let mut conn = Conn::connect(socket)?;
    let mut grown = Grown::default();
    let stats = stats_line(&session.name);
    for (i, line) in session.lines.iter().enumerate() {
        let t = Instant::now();
        let response = conn.round_trip(line)?;
        grown.ack_ms.push(ms(t.elapsed()));
        let ack = compc::json::parse(response.trim_end())
            .map_err(|e| format!("{}: bad ack: {e}", session.name))?;
        if ack.get("ok").and_then(Value::as_bool) != Some(true) {
            // A refused append is a failed operation, counted by the caller.
            eprintln!(
                "{} append {}: refused: {}",
                session.name,
                i + 1,
                response.trim_end()
            );
            continue;
        }
        grown.acked += 1;
        if ack.get("appends").and_then(Value::as_u64) != Some(grown.acked) {
            grown.problems.push(format!(
                "{} append {}: ack reports {:?} appends",
                session.name,
                i + 1,
                ack.get("appends")
            ));
        }
        grown.last = ack_decision(&ack);
        if (i + 1) % STATS_EVERY == 0 {
            let t = Instant::now();
            conn.round_trip(&stats)?;
            grown.read_ms.push(ms(t.elapsed()));
        }
    }
    Ok(grown)
}

/// Everything one round measured.
pub struct Round {
    /// Daemon spawn to the first answered request.
    pub start_s: f64,
    /// From the first append sent to the last ack received.
    pub growth_s: f64,
    pub grown: Vec<Grown>,
    /// The daemon's `stats` after the last ack.
    pub fsyncs: u64,
    pub journal_bytes: u64,
    /// From SIGKILL to the restarted daemon's first answered request.
    pub restart_s: f64,
    pub peak_rss_mb: f64,
    pub problems: Vec<String>,
}

/// Runs one round: start a daemon in `dir`, grow every session
/// concurrently, SIGKILL, restart, and check the restored sessions.
pub fn run_round(
    bins: &Bins,
    dir: &Path,
    sessions: &[Session],
    plant: Plant,
) -> Result<Round, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t = Instant::now();
    let mut daemon = Daemon::start(bins, dir)?;
    let start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let grown: Vec<Result<Grown, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|s| scope.spawn(|| grow(&daemon.socket, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let growth_s = t.elapsed().as_secs_f64();
    let grown = grown.into_iter().collect::<Result<Vec<_>, _>>()?;

    let gauges = Conn::connect(&daemon.socket)?.request(&stats_line(&sessions[0].name))?;
    let gauge = |field: &str| gauges.get(field).and_then(Value::as_u64).unwrap_or(0);
    let (fsyncs, journal_bytes) = (gauge("fsyncs"), gauge("journal_bytes"));
    let mut peak_rss_mb = vm_hwm_mb(&daemon.pid()).unwrap_or(0.0);

    let t = Instant::now();
    daemon.kill();
    let mut daemon = Daemon::start(bins, dir)?;
    let restart_s = t.elapsed().as_secs_f64();

    let mut problems: Vec<String> = grown.iter().flat_map(|g| g.problems.clone()).collect();
    let mut conn = Conn::connect(&daemon.socket)?;
    for (i, (session, g)) in sessions.iter().zip(&grown).enumerate() {
        let mut acked = g.acked;
        if plant == Plant::DropAckedAppend && i == 0 {
            acked -= 1;
        }
        let stats = conn.request(&stats_line(&session.name))?;
        let restored = stats.get("session_appends").and_then(Value::as_u64);
        if restored != Some(acked) {
            problems.push(format!(
                "{}: {acked} acked appends but {restored:?} after the restart",
                session.name
            ));
        }
        // Re-sending the last fragment is an idempotent merge: its ack
        // carries the restored session's verdict.
        let last = session.lines.last().ok_or("a session without fragments")?;
        let ack = conn.request(last)?;
        if ack_decision(&ack) != g.last {
            problems.push(format!(
                "{}: verdict {:?} after the restart, {:?} before",
                session.name,
                ack_decision(&ack),
                g.last
            ));
        }
    }
    peak_rss_mb = peak_rss_mb.max(vm_hwm_mb(&daemon.pid()).unwrap_or(0.0));
    daemon.shutdown();
    Ok(Round {
        start_s,
        growth_s,
        grown,
        fsyncs,
        journal_bytes,
        restart_s,
        peak_rss_mb,
        problems,
    })
}

/// Checks each session's final acked verdict against a from-scratch
/// check of the whole system the fragments merge into.
pub fn check_final_verdicts(sessions: &[Session], grown: &[Grown], problems: &mut Vec<String>) {
    for (session, g) in sessions.iter().zip(grown) {
        let expected = Decision::of(&Checker::new().check(&session.input.sys));
        if g.last.as_ref() != Some(&expected) {
            problems.push(format!(
                "{}: final acked verdict {:?}, a from-scratch check gives {expected:?}",
                session.name, g.last
            ));
        }
        if session.input.comp_c_by_construction && !expected.correct {
            problems.push(format!(
                "{}: a Comp-C-by-construction export is rejected",
                session.name
            ));
        }
    }
}

pub fn run(cfg: &RunConfig, bins: &Bins) -> Result<Outcome, String> {
    let root = cfg.work_dir.join("serve-grow");
    let mut setup = Vec::new();
    let mut ack_ms = Vec::new();
    let mut growth_s = 0.0;
    let mut peak_rss_mb: f64 = 0.0;
    let mut attempted = 0u64;
    let mut acked = 0u64;
    let mut problems = Vec::new();
    let mut round = 0u64;
    while growth_s < cfg.seconds {
        let t = Instant::now();
        let sessions = plan_round(cfg.seed, round)?;
        let plan_s = t.elapsed().as_secs_f64();
        let dir = root.join(format!("r{round}"));
        let r = run_round(bins, &dir, &sessions, cfg.plant)?;
        let _ = std::fs::remove_dir_all(&dir);
        setup.push(plan_s + r.start_s);
        growth_s += r.growth_s;
        peak_rss_mb = peak_rss_mb.max(r.peak_rss_mb);
        attempted += sessions.iter().map(|s| s.lines.len() as u64).sum::<u64>();
        acked += r.grown.iter().map(|g| g.acked).sum::<u64>();
        ack_ms.extend(r.grown.iter().flat_map(|g| g.ack_ms.iter().copied()));
        problems.extend(r.problems);
        check_final_verdicts(&sessions, &r.grown, &mut problems);
        round += 1;
    }
    eprintln!("serve-grow: {round} rounds, {acked} acked appends in {growth_s:.2} s of growth");
    Ok(Outcome {
        attempted,
        failed: attempted - acked,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("ops_per_s", acked as f64 / growth_s, "1/s"),
            Metric::new("p50_ms", median(&ack_ms), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        problems,
    })
}
