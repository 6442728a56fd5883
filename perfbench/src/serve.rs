//! The two serving workloads, driven over one proto-2 connection by one
//! generator thread.
//!
//! * `serve-closed`: 16 default sessions (N100, SpikeDyn) on one
//!   in-process `SnnServer`, cycling the four drift scenarios, each with
//!   exactly one 8-sample ingest in flight. 16 sessions on a few cores
//!   keep the tick barrier, the shared replica pool and the nested
//!   `par_iter` fan-out busy; there is no router and no checkpoint
//!   traffic.
//! * `cluster-open`: the same sessions through a `Cluster` router with two
//!   spawned shards and shadowing on, fed 1-sample ingests at seeded
//!   Poisson arrival times. Per-request costs (router relay, two mux hops,
//!   spans) dominate, periodic checkpoint blobs share the wire, and every
//!   24th ingest of a session refits its assignment, so the tail is
//!   structural.
//!
//! Each session's stream has a fixed length, and every sample is
//! ingested before the run ends, so the final state of every session is
//! a pure function of the seed. The timed window stops at `--seconds` or
//! when the first session runs out of samples, whichever comes first;
//! the rest is drained untimed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use neuro_energy::GpuSpec;
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_core::rng::derive_seed;
use snn_data::{Image, Scenario, SyntheticDigits};
use snn_obs::{HistogramSnapshot, Snapshot, TraceShares};
use snn_online::{ModelSnapshot, OnlineLearner};
use snn_serve::protocol::{decode_predictions, format_request, hex_decode, parse_response};
use snn_serve::{Request, Response, ServerConfig, SessionSpec, SnnServer};

use crate::learn::{count_correct, op_counts};
use crate::metrics::PER_LAYER;
use crate::schedule::poisson_arrivals;
use crate::stats::{hist_delta, median, percentile, supported_tail, MIN_BEYOND};
use crate::wire::Conn;
use crate::{host, ladder, Args, Outcome};

/// Concurrent sessions on both serving workloads.
const SESSIONS: usize = 16;

/// The frozen `cluster-open` offered rate (samples/s over all sessions):
/// one the seed commit sustains with a flat backlog on two cores.
pub const OPEN_RATE_SPS: f64 = 120.0;

/// The router's shadowing interval on `cluster-open`.
const SHADOW_INTERVAL: Duration = Duration::from_millis(250);

/// Samples per `serve-closed` session, warm-up batch included: enough
/// that the window ends on `--seconds`, not on a session running dry.
const CLOSED_SAMPLES: u64 = 1000;

/// Samples per `serve-closed` ingest.
const CLOSED_BATCH: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Generator lateness (p99) past which an open-loop run is invalid.
const MAX_LATE_MS: f64 = 0.15e3 * SESSIONS as f64 / OPEN_RATE_SPS;

/// Achieved/offered ratio below which an open-loop run is invalid.
const MIN_ACHIEVED_SHARE: f64 = 0.95;

/// The load generator: this thread plus its connection's reader, on one
/// connection.
const GENERATOR_THREADS: usize = 1 + crate::wire::READER_THREADS;
const GENERATOR_CONNECTIONS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

struct Session {
    id: String,
    spec: SessionSpec,
    batches: Vec<Vec<Image>>,
    /// Open loop: due offset of `batches[k + 1]` from the window start.
    due: Vec<Duration>,
}

fn sessions(seed: u64, mode: Mode, seconds: f64) -> Vec<Session> {
    let schedule = match mode {
        Mode::Open => poisson_arrivals(
            seed,
            SESSIONS,
            OPEN_RATE_SPS,
            Duration::from_secs_f64(seconds),
        ),
        Mode::Closed => vec![Vec::new(); SESSIONS],
    };
    let classes: Vec<u8> = (0..10).collect();
    schedule
        .into_iter()
        .enumerate()
        .map(|(s, due)| {
            let spec = SessionSpec {
                seed: derive_seed(seed, 100 + s as u64),
                ..SessionSpec::default()
            };
            let (total, batch) = match mode {
                Mode::Closed => (CLOSED_SAMPLES, CLOSED_BATCH),
                Mode::Open => (due.len() as u64 + 1, 1),
            };
            let gen = SyntheticDigits::new(derive_seed(seed, 200 + s as u64));
            let stream: Vec<Image> = Scenario::all()[s % 4]
                .stream(&gen, &classes, total, derive_seed(seed, 300 + s as u64), 0)
                .into_iter()
                .map(|img| img.downsample(2))
                .collect();
            Session {
                id: format!("pb{s}"),
                spec,
                batches: stream.chunks(batch).map(<[Image]>::to_vec).collect(),
                due,
            }
        })
        .collect()
}

/// The system under test, started in-process on ephemeral ports.
enum Target {
    Server(SnnServer),
    Cluster(Cluster, Vec<PathBuf>),
}

impl Target {
    fn start(mode: Mode, nth: usize) -> Result<Target, String> {
        match mode {
            Mode::Closed => SnnServer::start("127.0.0.1:0", ServerConfig::default())
                .map(Target::Server)
                .map_err(|e| format!("server start: {e}")),
            Mode::Open => {
                let limits = ClusterLimits {
                    shadow_interval: Some(SHADOW_INTERVAL),
                    ..ClusterLimits::default()
                };
                let cluster = Cluster::start("127.0.0.1:0", ClusterConfig { limits })
                    .map_err(|e| format!("cluster start: {e}"))?;
                // Shards get eviction directories inside the benchmark's
                // own tree instead of the system temp directory.
                let mut dirs = Vec::new();
                for shard in 0..2 {
                    let dir = PathBuf::from(format!(
                        "perfbench/out/evict-{}-{nth}-{shard}",
                        std::process::id()
                    ));
                    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                    dirs.push(dir.clone());
                    cluster
                        .spawn_shard(ServerConfig {
                            evict_dir: Some(dir),
                            ..ServerConfig::default()
                        })
                        .map_err(|e| format!("shard spawn: {e}"))?;
                }
                Ok(Target::Cluster(cluster, dirs))
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Target::Server(server) => server.local_addr(),
            Target::Cluster(cluster, _) => cluster.local_addr(),
        }
    }

    fn stop(self) -> Result<(), String> {
        match self {
            Target::Server(server) => server.shutdown(),
            Target::Cluster(cluster, dirs) => {
                cluster.shutdown();
                for dir in dirs {
                    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                }
            }
        }
        Ok(())
    }
}

/// A set-up system with its sessions open and warmed up.
struct Live {
    target: Target,
    conn: Conn,
    sessions: Vec<Session>,
    correct: Vec<u64>,
}

fn ingest_line(session: &Session, batch: usize, rid: bool) -> String {
    let line = format_request(&Request::Ingest {
        id: session.id.clone(),
        images: session.batches[batch].clone(),
    });
    if rid {
        format!("{line} rid=pb-{}-{batch}", session.id)
    } else {
        line
    }
}

/// Sends every line, then collects the replies in request order.
fn pipeline(conn: &mut Conn, lines: &[String]) -> Result<Vec<String>, String> {
    let mut tags = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        tags.insert(conn.send(line).map_err(|e| e.to_string())?, i);
    }
    let mut replies = vec![String::new(); lines.len()];
    while !tags.is_empty() {
        let reply = conn
            .recv(None)
            .map_err(|e| e.to_string())?
            .ok_or("no reply")?;
        let i = tags.remove(&reply.tag).ok_or("reply for an unknown tag")?;
        replies[i] = reply.line;
    }
    Ok(replies)
}

fn ok_fields(line: &str) -> Result<Vec<(String, String)>, String> {
    match parse_response(line).map_err(|e| e.to_string())? {
        Response::Ok(fields) => Ok(fields),
        Response::Err { code, msg } => Err(format!("{code}: {msg}")),
    }
}

fn field<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("reply lacks {key}"))
}

/// Correct predictions in an ingest reply.
fn ingest_correct(line: &str, batch: &[Image]) -> Result<u64, String> {
    let fields = ok_fields(line)?;
    let predictions =
        decode_predictions(field(&fields, "predictions")?).map_err(|e| e.to_string())?;
    if predictions.len() != batch.len() {
        return Err("prediction count differs from the batch".into());
    }
    Ok(count_correct(batch, &predictions))
}

/// Sets up a fresh system; returns it with the wall time of each set-up
/// phase in seconds: streams, system start, opens, warm-up.
fn set_up(seed: u64, mode: Mode, seconds: f64, nth: usize) -> Result<(Live, [f64; 4]), String> {
    let mut phases = [0.0; 4];
    let mut t = Instant::now();
    let mut lap = |phase: usize| {
        phases[phase] = t.elapsed().as_secs_f64();
        t = Instant::now();
    };
    let sessions = sessions(seed, mode, seconds);
    lap(0);
    let target = Target::start(mode, nth)?;
    let mut conn = Conn::connect(target.addr()).map_err(|e| format!("connect: {e}"))?;
    lap(1);
    let opens: Vec<String> = sessions
        .iter()
        .map(|s| {
            format_request(&Request::Open {
                id: s.id.clone(),
                spec: s.spec.clone(),
            })
        })
        .collect();
    for reply in pipeline(&mut conn, &opens)? {
        ok_fields(&reply).map_err(|e| format!("open: {e}"))?;
    }
    lap(2);
    let warm_up: Vec<String> = sessions.iter().map(|s| ingest_line(s, 0, false)).collect();
    let replies = pipeline(&mut conn, &warm_up)?;
    let correct = replies
        .iter()
        .zip(&sessions)
        .map(|(reply, s)| ingest_correct(reply, &s.batches[0]))
        .collect::<Result<Vec<u64>, String>>()
        .map_err(|e| format!("warm-up ingest: {e}"))?;
    lap(3);
    let live = Live {
        target,
        conn,
        sessions,
        correct,
    };
    Ok((live, phases))
}

/// One request the generator has put on the wire.
struct InFlight {
    session: usize,
    batch: usize,
    due: Instant,
    sent: Instant,
}

/// One client record per timed request (traced runs write them out).
struct Record {
    session: usize,
    batch: usize,
    due: Instant,
    sent: Instant,
    replied: Instant,
}

/// What the timed window measured.
#[derive(Default)]
struct Window {
    /// The configured window length.
    horizon_s: f64,
    /// Window start to its last acknowledgement.
    seconds: f64,
    acked_samples: u64,
    latency_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wire_bytes: u64,
    cpu_s: f64,
    offered: u64,
    unsent_at_close: u64,
    failed: u64,
    attempted: u64,
    records: Vec<Record>,
    before: Option<Snapshot>,
    after: Option<Snapshot>,
}

fn scrape_line(mode: Mode) -> &'static str {
    match mode {
        Mode::Closed => "metrics",
        Mode::Open => "cluster-metrics",
    }
}

fn parse_scrape(line: &str) -> Result<Snapshot, String> {
    let fields = ok_fields(line)?;
    let text = String::from_utf8(hex_decode(field(&fields, "data")?).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    Snapshot::parse(&text).map_err(|e| e.to_string())
}

/// Drives every remaining batch of every session through the timed
/// window and the untimed drain.
fn drive(live: &mut Live, mode: Mode, seconds: f64, trace: bool) -> Result<Window, String> {
    let mut w = Window {
        horizon_s: seconds,
        ..Window::default()
    };
    if trace {
        let reply = live
            .conn
            .call(scrape_line(mode))
            .map_err(|e| e.to_string())?;
        w.before = Some(parse_scrape(&reply)?);
    }
    let n = live.sessions.len();
    let mut next = vec![1usize; n];
    let mut busy = vec![false; n];
    let mut last_reply = vec![Instant::now(); n];
    let mut in_flight: HashMap<u32, InFlight> = HashMap::new();
    let mut scrape_tag = None;
    let mut sent_in_window = 0u64;
    w.offered = live.sessions.iter().map(|s| s.due.len() as u64).sum();

    let cpu0 = host::cpu_seconds()?;
    let wire0 = live.conn.wire_bytes();
    let start = Instant::now();
    let horizon = start + Duration::from_secs_f64(seconds);
    let due_at = |s: &Session, batch: usize, start: Instant| match mode {
        Mode::Closed => None,
        Mode::Open => Some(start + s.due[batch - 1]),
    };
    let mut open_window = true;
    // The window's throughput runs to its last acknowledgement, so an
    // ingest cut in half by the end of the window does not count as idle.
    let mut last_ack: Option<Instant> = None;
    let close =
        |w: &mut Window, end: Instant, conn: &mut Conn, sent: u64| -> Result<Option<u32>, String> {
            w.seconds = end.duration_since(start).as_secs_f64();
            w.wire_bytes = conn.wire_bytes() - wire0;
            w.cpu_s = host::cpu_seconds()? - cpu0;
            w.unsent_at_close = w.offered.saturating_sub(sent);
            Ok(if trace {
                Some(conn.send(scrape_line(mode)).map_err(|e| e.to_string())?)
            } else {
                None
            })
        };

    loop {
        // Send every batch whose session is idle and whose turn has come.
        let now = Instant::now();
        let mut wake: Option<Instant> = if open_window { Some(horizon) } else { None };
        for s in 0..n {
            let session = &live.sessions[s];
            if busy[s] || next[s] >= session.batches.len() {
                continue;
            }
            let due = due_at(session, next[s], start);
            if let Some(due) = due.filter(|&d| d > now) {
                wake = Some(wake.map_or(due, |w| w.min(due)));
                continue;
            }
            let line = ingest_line(session, next[s], trace);
            let sent = Instant::now();
            let tag = live.conn.send(&line).map_err(|e| e.to_string())?;
            let due = due.unwrap_or(sent);
            w.late_ms
                .push(ms(sent.saturating_duration_since(due.max(last_reply[s]))));
            in_flight.insert(
                tag,
                InFlight {
                    session: s,
                    batch: next[s],
                    due,
                    sent,
                },
            );
            busy[s] = true;
            if open_window {
                sent_in_window += 1;
            }
        }
        let remaining = (0..n).any(|s| next[s] < live.sessions[s].batches.len());
        if !remaining && scrape_tag.is_none() {
            break;
        }
        let reply = live.conn.recv(wake).map_err(|e| e.to_string())?;
        let reply = match reply {
            Some(reply) => reply,
            None => {
                if open_window && Instant::now() >= horizon {
                    open_window = false;
                    let end = last_ack.unwrap_or(horizon);
                    scrape_tag = close(&mut w, end, &mut live.conn, sent_in_window)?;
                }
                continue;
            }
        };
        if Some(reply.tag) == scrape_tag {
            w.after = Some(parse_scrape(&reply.line)?);
            scrape_tag = None;
            continue;
        }
        let req = in_flight
            .remove(&reply.tag)
            .ok_or("reply for an unknown tag")?;
        let s = req.session;
        busy[s] = false;
        last_reply[s] = reply.at;
        next[s] += 1;
        let batch = &live.sessions[s].batches[req.batch];
        if open_window && reply.at > horizon {
            open_window = false;
            let end = last_ack.unwrap_or(horizon);
            scrape_tag = close(&mut w, end, &mut live.conn, sent_in_window)?;
        }
        let timed = open_window || mode == Mode::Open;
        w.attempted += 1;
        match ingest_correct(&reply.line, batch) {
            Ok(correct) => {
                live.correct[s] += correct;
                if open_window {
                    w.acked_samples += batch.len() as u64;
                    last_ack = Some(reply.at);
                }
                if timed {
                    w.latency_ms.push(ms(reply.at.duration_since(req.due)));
                    w.rtt_ms.push(ms(reply.at.duration_since(req.sent)));
                    w.records.push(Record {
                        session: s,
                        batch: req.batch,
                        due: req.due,
                        sent: req.sent,
                        replied: reply.at,
                    });
                }
            }
            Err(e) => {
                w.failed += 1;
                eprintln!(
                    "perfbench: ingest {} batch {}: {e}",
                    live.sessions[s].id, req.batch
                );
            }
        }
        if open_window && mode == Mode::Closed && next[s] >= live.sessions[s].batches.len() {
            // The first session to run dry ends the window: past this point
            // not every session is active.
            open_window = false;
            scrape_tag = close(&mut w, reply.at, &mut live.conn, sent_in_window)?;
        }
    }
    if open_window {
        // Every sample was acknowledged before the horizon.
        let end = last_ack.unwrap_or(horizon);
        close(&mut w, end, &mut live.conn, sent_in_window)?;
    }
    if trace && w.after.is_none() {
        let reply = live
            .conn
            .call(scrape_line(mode))
            .map_err(|e| e.to_string())?;
        w.after = Some(parse_scrape(&reply)?);
    }
    if mode == Mode::Closed {
        w.late_ms.clear();
    }
    Ok(w)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The final checkpoint of every session, fetched over the load
/// connection after the drain.
fn final_checkpoints(live: &mut Live) -> Result<Vec<Vec<u8>>, String> {
    let lines: Vec<String> = live
        .sessions
        .iter()
        .map(|s| format_request(&Request::Checkpoint { id: s.id.clone() }))
        .collect();
    pipeline(&mut live.conn, &lines)?
        .iter()
        .map(|reply| {
            let fields = ok_fields(reply).map_err(|e| format!("checkpoint: {e}"))?;
            hex_decode(field(&fields, "data")?).map_err(|e| e.to_string())
        })
        .collect()
}

/// An in-process learner fed the session's batches in the same order.
fn reference_bytes(session: &Session) -> Result<Vec<u8>, String> {
    let mut learner = OnlineLearner::new(session.spec.online_config());
    for batch in &session.batches {
        learner.ingest_batch(batch).map_err(|e| e.to_string())?;
    }
    Ok(learner.checkpoint().to_bytes())
}

/// One pass of a serving workload: set-ups, window, drain, gate.
struct Pass {
    setup_s: f64,
    /// Median seconds of each set-up phase (see [`set_up`]).
    setup_phases: [f64; 4],
    window: Window,
    checkpoints: Vec<Vec<u8>>,
    snapshots: Vec<ModelSnapshot>,
    correct: Vec<u64>,
    ladder: Option<ladder::Ladder>,
    gate_checks: u64,
    gate_mismatches: u64,
}

fn pass(args: &Args, mode: Mode, trace: bool) -> Result<Pass, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for nth in 0..SETUPS {
        let (candidate, phases) = set_up(args.seed, mode, args.seconds, nth)?;
        setups.push(phases);
        if let Some(old) = live.replace(candidate) {
            let Live { target, conn, .. } = old;
            drop(conn);
            target.stop()?;
        }
    }
    let mut live = live.ok_or("no set-up")?;
    let window = drive(&mut live, mode, args.seconds, trace)?;
    let checkpoints = final_checkpoints(&mut live)?;
    let Live {
        target,
        conn,
        sessions,
        correct,
    } = live;
    drop(conn);
    target.stop()?;

    let snapshots = checkpoints
        .iter()
        .map(|bytes| ModelSnapshot::from_bytes(bytes).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    // Gate: one session per drift scenario must match an in-process
    // learner fed the same batches; a traced pass's ladder, run alone
    // afterwards so its timings see an idle machine, is session 0's.
    let references: Vec<Result<Vec<u8>, String>> = std::thread::scope(|scope| {
        let refs: Vec<_> = sessions[..4]
            .iter()
            .skip(usize::from(trace))
            .map(|s| scope.spawn(move || reference_bytes(s)))
            .collect();
        refs.into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference panicked".into()))
            })
            .collect()
    });
    let ladder = if trace {
        let batches: Vec<&[Image]> = sessions[0].batches.iter().map(Vec::as_slice).collect();
        Some(ladder::run(&sessions[0].spec.online_config(), &batches)?)
    } else {
        None
    };
    let mut gate_checks = 0;
    let mut gate_mismatches = 0;
    let mut expect = Vec::new();
    if let Some(l) = &ladder {
        expect.push(l.final_bytes.clone());
        gate_checks += l.checks;
        gate_mismatches += l.mismatches;
    }
    for r in references {
        expect.push(r?);
    }
    for (served, reference) in checkpoints.iter().zip(&expect) {
        gate_checks += 1;
        gate_mismatches += u64::from(served != reference);
    }
    let totals: Vec<f64> = setups.iter().map(|p| p.iter().sum()).collect();
    let phase = |i: usize| median(&setups.iter().map(|p| p[i]).collect::<Vec<f64>>());
    Ok(Pass {
        setup_s: median(&totals),
        setup_phases: [phase(0), phase(1), phase(2), phase(3)],
        window,
        checkpoints,
        snapshots,
        correct,
        ladder,
        gate_checks,
        gate_mismatches,
    })
}

/// Runs `serve-closed`.
pub fn run_closed(args: &Args, nproc: usize) -> Result<Outcome, String> {
    run(args, Mode::Closed, nproc)
}

/// Runs `cluster-open`.
pub fn run_open(args: &Args, nproc: usize) -> Result<Outcome, String> {
    run(args, Mode::Open, nproc)
}

fn run(args: &Args, mode: Mode, nproc: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced = pass(args, mode, false)?;
    account(&mut out, &untraced, mode, nproc);
    end_to_end(&mut out, &untraced, mode)?;
    if args.trace {
        let traced = pass(args, mode, true)?;
        account(&mut out, &traced, mode, nproc);
        out.check(
            traced.checkpoints == untraced.checkpoints,
            "traced and untraced runs end at different checkpoints",
        );
        per_layer(&mut out, &traced, &untraced, mode, nproc)?;
        write_records(args, &traced.window)?;
    }
    out.e2e.insert("peak_rss_mb", host::peak_rss_mb()?);
    Ok(out)
}

/// Folds a pass's request outcomes and gate checks into the run's counts.
fn account(out: &mut Outcome, pass: &Pass, mode: Mode, nproc: usize) {
    let w = &pass.window;
    out.attempted += w.attempted;
    out.failed += w.failed;
    if w.failed > 0 {
        out.notes.push(format!("{} ingests failed", w.failed));
    }
    out.check_many(
        pass.gate_checks,
        pass.gate_mismatches,
        "served checkpoints differ from in-process learners",
    );
    if mode == Mode::Open {
        let offered = w.offered as f64 / w.horizon_s;
        let achieved = w.acked_samples as f64 / w.seconds;
        let late = percentile(&w.late_ms, 0.99).map_or(f64::INFINITY, |t| t.value);
        out.notes.push(format!(
            "open loop: offered {offered:.1} samples/s, achieved {achieved:.1}, {} arrivals unsent at the horizon, generator late p50 {:.3} ms p99 {late:.3} ms",
            w.unsent_at_close,
            median(&w.late_ms)
        ));
        let flat = achieved >= MIN_ACHIEVED_SHARE * offered && w.unsent_at_close <= SESSIONS as u64;
        out.check(flat, "open-loop run invalid: the backlog grew");
        out.check(
            late <= MAX_LATE_MS,
            "open-loop run invalid: the generator ran late",
        );
    }
    out.check(
        GENERATOR_THREADS <= nproc,
        "the load generator runs more threads than there are cores",
    );
    out.check(
        GENERATOR_CONNECTIONS <= nproc,
        "the load generator opens more connections than there are cores",
    );
}

fn end_to_end(out: &mut Outcome, pass: &Pass, mode: Mode) -> Result<(), String> {
    let w = &pass.window;
    let gpu = GpuSpec::gtx_1080_ti();
    let samples: u64 = pass.snapshots.iter().map(|s| s.samples_seen).sum();
    let train_j: f64 = pass
        .snapshots
        .iter()
        .map(|s| gpu.energy_j(&s.trainer.train_ops))
        .sum();
    let infer_j: f64 = pass
        .snapshots
        .iter()
        .map(|s| gpu.energy_j(&s.trainer.infer_ops))
        .sum();
    let accuracy: Vec<f64> = pass
        .snapshots
        .iter()
        .zip(&pass.correct)
        .map(|(s, &c)| c as f64 / s.samples_seen as f64)
        .collect();
    let p50 = percentile(&w.latency_ms, 0.5).ok_or("too few ingests for a median")?;
    let p99 = supported_tail(&w.latency_ms, 0.99).ok_or("too few ingests for a tail")?;
    let e = &mut out.e2e;
    e.insert("setup_s", pass.setup_s);
    e.insert("samples_per_s", w.acked_samples as f64 / w.seconds);
    e.insert("ingest_p50_ms", p50.value);
    e.insert("ingest_p99_ms", p99.value);
    e.insert("train_mj_per_sample", train_j * 1e3 / samples as f64);
    e.insert("infer_mj_per_sample", infer_j * 1e3 / samples as f64);
    e.insert(
        "preq_accuracy",
        accuracy.iter().sum::<f64>() / accuracy.len() as f64,
    );
    let [streams, start, opens, warm] = pass.setup_phases;
    out.notes.push(format!(
        "set-up (median of {SETUPS}): streams {streams:.3} s, start {start:.3} s, opens {opens:.3} s, warm-up {warm:.3} s"
    ));
    out.notes.push(format!(
        "{} sessions, {} loop: window {:.3} s, {} samples acked in it; ingest_p99_ms is p{:.2} of {} ingests ({} beyond)",
        SESSIONS,
        if mode == Mode::Closed { "closed" } else { "open" },
        w.seconds,
        w.acked_samples,
        p99.q * 100.0,
        p99.n,
        p99.beyond
    ));
    Ok(())
}

/// A histogram percentile with the same support rule as the client-side
/// ones: at `q` when 10 samples lie beyond it, else the highest such.
fn hist_q(h: &HistogramSnapshot, q: f64) -> f64 {
    let n = h.count() as usize;
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    let q = if n - rank.min(n) >= MIN_BEYOND || n <= MIN_BEYOND {
        q
    } else {
        (n - MIN_BEYOND) as f64 / n as f64
    };
    h.quantile(q) as f64
}

fn per_layer(
    out: &mut Outcome,
    traced: &Pass,
    untraced: &Pass,
    mode: Mode,
    nproc: usize,
) -> Result<(), String> {
    let w = &traced.window;
    let (before, after) = match (&w.before, &w.after) {
        (Some(b), Some(a)) => (b, a),
        _ => return Err("traced pass lacks its scrapes".into()),
    };
    let hist = |name: &str| hist_delta(&after.histogram(name), &before.histogram(name));
    let counter = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let samples = w.acked_samples.max(1) as f64;
    let cores = w.seconds * nproc as f64;
    let client_p50_us = median(&w.rtt_ms) * 1e3;
    let l = &mut out.layer;

    let ladder = traced.ladder.as_ref().ok_or("traced pass has no ladder")?;
    ladder.report(l);
    out.notes.extend(ladder.describe());

    // Exact op counts and sizes of the final served state.
    let mut ops = snn_core::ops::OpCounts::default();
    for s in &traced.snapshots {
        ops.accumulate(&s.trainer.train_ops);
        ops.accumulate(&s.trainer.infer_ops);
    }
    let n_samples: u64 = traced.snapshots.iter().map(|s| s.samples_seen).sum();
    let bytes: usize = traced.checkpoints.iter().map(Vec::len).sum();
    let drifts: usize = traced.snapshots.iter().map(|s| s.drift_events.len()).sum();
    op_counts(
        l,
        &ops,
        n_samples,
        drifts,
        bytes as f64 / traced.checkpoints.len() as f64,
    );

    let encode = hist("online.checkpoint.encode_us");
    if mode == Mode::Open {
        l.insert("snn-online.checkpoint_encode_us", hist_q(&encode, 0.5));
    } else {
        l.insert("snn-online.checkpoint_encode_us", median(&ladder.encode_us));
    }
    l.insert(
        "snn-runtime.infer_busy_share",
        counter("runtime.infer.busy_us") / 1e6 / cores,
    );

    let queue = hist("serve.phase.queue_wait_us");
    let exec = hist("serve.phase.exec_us");
    let write = hist("serve.phase.write_us");
    let ingest = hist("serve.req.ingest_us");
    l.insert("snn-serve.queue_wait_p50_us", hist_q(&queue, 0.5));
    l.insert("snn-serve.queue_wait_p99_us", hist_q(&queue, 0.99));
    let shares = TraceShares {
        queue_us: queue.sum,
        exec_us: exec.sum,
        write_us: write.sum,
    };
    l.insert("snn-serve.queue_share", shares.queue_share());
    l.insert("snn-serve.exec_p50_us", hist_q(&exec, 0.5));
    l.insert("snn-serve.exec_p99_us", hist_q(&exec, 0.99));
    l.insert(
        "snn-serve.exec_inflation",
        hist_q(&exec, 0.5) / ladder.step_median(),
    );
    l.insert("snn-serve.jobs_per_tick", hist("serve.tick.jobs").mean());
    l.insert("snn-serve.tick_p50_us", hist_q(&hist("serve.tick_us"), 0.5));
    l.insert("snn-serve.write_p50_us", hist_q(&write, 0.5));
    l.insert("snn-serve.wire_us", client_p50_us - hist_q(&ingest, 0.5));
    l.insert(
        "snn-serve.wire_bytes_per_sample",
        w.wire_bytes as f64 / samples,
    );
    l.insert(
        "snn-serve.rejects",
        counter("serve.backpressure_rejects") + counter("serve.admission_rejects"),
    );

    if mode == Mode::Open {
        let relay = hist("cluster.relay_us");
        l.insert("snn-cluster.relay_p50_us", hist_q(&relay, 0.5));
        l.insert("snn-cluster.relay_p99_us", hist_q(&relay, 0.99));
        l.insert(
            "snn-cluster.router_overhead_us",
            client_p50_us - hist_q(&ingest, 0.5),
        );
        l.insert(
            "snn-cluster.relay_payload_bytes_per_sample",
            counter("cluster.relay.p2.payload_bytes") / samples,
        );
        l.insert(
            "snn-cluster.shadows_per_s",
            counter("cluster.shadows_pushed") / w.seconds,
        );
        l.insert(
            "snn-cluster.shadow_bytes_per_s",
            hist("cluster.shadow_bytes").sum as f64 / w.seconds,
        );
        l.insert("snn-cluster.shadow_lag", after.gauge("cluster.shadow_lag"));
        l.insert("loadgen.offered_sps", w.offered as f64 / w.horizon_s);
        let late = percentile(&w.late_ms, 0.99).map_or(0.0, |t| t.value);
        l.insert("loadgen.late_p99_ms", late);
    }
    l.insert("host.cpu_busy_share", w.cpu_s / cores);
    let sps = |p: &Pass| p.window.acked_samples as f64 / p.window.seconds;
    l.insert("loadgen.trace_overhead", sps(traced) / sps(untraced) - 1.0);
    for name in PER_LAYER.iter().map(|m| m.name) {
        l.entry(name).or_insert(0.0);
    }
    Ok(())
}

/// Writes the traced pass's client records: one line per timed request.
fn write_records(args: &Args, w: &Window) -> Result<(), String> {
    let Some(origin) = w.records.iter().map(|r| r.due).min() else {
        return Ok(());
    };
    let us = |t: Instant| t.saturating_duration_since(origin).as_micros();
    let mut text = String::from("session\tbatch\trid\tdue_us\tsent_us\treplied_us\n");
    for r in &w.records {
        text.push_str(&format!(
            "pb{}\t{}\tpb-pb{}-{}\t{}\t{}\t{}\n",
            r.session,
            r.batch,
            r.session,
            r.batch,
            us(r.due),
            us(r.sent),
            us(r.replied)
        ));
    }
    let path = format!(
        "perfbench/out/{}-seed{}-requests.tsv",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all("perfbench/out").map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_the_frozen_open_rate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let rate = format!("{OPEN_RATE_SPS} samples/s");
        assert!(json.contains(&rate), "cluster-open's why must state {rate}");
    }

    #[test]
    fn sessions_are_a_pure_function_of_the_seed() {
        let a = sessions(5, Mode::Open, 2.0);
        let b = sessions(5, Mode::Open, 2.0);
        let c = sessions(6, Mode::Open, 2.0);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.batches, y.batches);
            assert_eq!(x.due, y.due);
            assert_ne!(x.batches, z.batches);
            // One warm-up sample plus one per scheduled arrival.
            assert_eq!(x.batches.len(), x.due.len() + 1);
            assert!(x.batches.iter().all(|b| b.len() == 1));
        }
        assert_eq!(
            sessions(5, Mode::Closed, 2.0)[0].batches.len() as u64 * CLOSED_BATCH as u64,
            CLOSED_SAMPLES
        );
    }

    #[test]
    fn server_histogram_tails_need_ten_samples_beyond() {
        let snapshot = |n: u64| {
            let h = snn_obs::Histogram::new();
            (1..=n).for_each(|v| h.record(v));
            h.snapshot()
        };
        let small = snapshot(500);
        assert_eq!(hist_q(&small, 0.99), small.quantile(0.98) as f64);
        let large = snapshot(2000);
        assert_eq!(hist_q(&large, 0.99), large.quantile(0.99) as f64);
        assert_eq!(hist_q(&HistogramSnapshot::new(), 0.5), 0.0);
    }
}
