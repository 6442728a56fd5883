//! The TCP front end: thread-per-connection line server.
//!
//! [`SnnServer::start`] binds a listener and spawns two long-lived
//! threads — the accept loop and the scheduler ([`crate::scheduler`]),
//! which runs one persistent worker per core. Each accepted connection
//! gets its own thread that reads requests line by line, dispatches them
//! against the shared [`SessionManager`], and writes one response line
//! per request, in order. Connection threads hold no session state: a client may spread
//! one session's requests over several connections or multiplex several
//! sessions on one connection, and ordering is still per-session FIFO
//! (the registry queues are the only ordering authority).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use neuro_energy::GpuSpec;

use crate::mux::{run_mux, MuxHost};
use crate::obs::{span_verb, ServeObs};
use crate::protocol::{
    encode_predictions, extract_rid, format_response, hex_encode, parse_request, Request, Response,
    MAX_LINE_BYTES, PROTO_V2, PROTO_VERSION,
};
use crate::scheduler;
use crate::session::{Job, JobOutput, JobResult, ServeError, ServeLimits, SessionManager};

/// Everything configurable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission and queueing limits.
    pub limits: ServeLimits,
    /// Device model used to price per-session energy reports.
    pub gpu: GpuSpec,
    /// Directory evicted sessions checkpoint into (one `<id>.sdyn` file
    /// per victim). `None` disables both the `evict` request and the
    /// idle-timeout sweep. The directory must already exist.
    pub evict_dir: Option<std::path::PathBuf>,
    /// Lowest protocol generation this server accepts at `hello`
    /// (default [`PROTO_VERSION`]). Pin to [`PROTO_V2`] to refuse
    /// line-protocol clients.
    pub min_proto: u32,
    /// Highest protocol generation this server accepts at `hello`
    /// (default [`PROTO_V2`]). Pin to [`PROTO_VERSION`] for a
    /// proto-1-only server.
    pub max_proto: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: ServeLimits::default(),
            gpu: GpuSpec::gtx_1080_ti(),
            evict_dir: None,
            min_proto: PROTO_VERSION,
            max_proto: PROTO_V2,
        }
    }
}

/// A running multi-session serving instance. Shuts down (and joins its
/// accept + scheduler threads) on [`SnnServer::shutdown`] or drop.
#[derive(Debug)]
pub struct SnnServer {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler_thread: Option<JoinHandle<()>>,
}

impl SnnServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<SnnServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let manager = Arc::new(SessionManager::new(
            config.limits,
            config.gpu,
            config.evict_dir,
        ));
        let stop = Arc::new(AtomicBool::new(false));

        let scheduler_thread = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || scheduler::run(manager))
        };
        let accept_thread = {
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop);
            let protos = config.min_proto..=config.max_proto;
            std::thread::spawn(move || accept_loop(listener, manager, stop, protos))
        };
        Ok(SnnServer {
            addr,
            manager,
            stop,
            accept_thread: Some(accept_thread),
            scheduler_thread: Some(scheduler_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server-wide counters.
    pub fn stats(&self) -> crate::session::ServerStats {
        self.manager.stats()
    }

    /// Stops accepting connections, drains queued work, and joins the
    /// server threads. Connections still open keep their sockets but all
    /// further requests are answered with `err code=shutdown`.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.manager.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.scheduler_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SnnServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    protos: std::ops::RangeInclusive<u32>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is nonblocking (so shutdown can interrupt
                // accept); connections must block on reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let manager = Arc::clone(&manager);
                let protos = protos.clone();
                // Connection threads are detached: they exit on client
                // disconnect, and post-shutdown requests get error
                // responses because the registry rejects them.
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &manager, &protos);
                });
            }
            // Accept errors are all transient from this loop's point of
            // view (WouldBlock on an idle listener, ECONNABORTED from a
            // client resetting mid-handshake, EMFILE under fd pressure):
            // back off and keep serving — only the stop flag ends the
            // loop. Exiting here would silently stop accepting while the
            // rest of the server looks healthy.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Serves one connection until EOF or an unrecoverable socket error.
/// Starts in the proto 1 line protocol; an accepted `hello proto=2`
/// upgrades the connection to multiplexed binary framing
/// ([`crate::mux::run_mux`]) and never returns to lines.
fn handle_connection(
    stream: TcpStream,
    manager: &Arc<SessionManager>,
    protos: &std::ops::RangeInclusive<u32>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        let n = (&mut reader).take(MAX_LINE_BYTES).read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // client closed the connection
        }
        let obs = manager.obs();
        obs.count_wire(PROTO_VERSION, n as u64, 0);
        if !line.ends_with('\n') {
            // The line is incomplete: either it hit the size cap, or the
            // client died mid-send and this is the truncated tail before
            // EOF. Never dispatch a truncated line — a cut-short
            // `close id=session-10` parses as `close id=session-1`.
            if n as u64 == MAX_LINE_BYTES {
                write_response(
                    &mut writer,
                    &Response::error("bad-request", "line exceeds the protocol size limit"),
                )?;
            }
            return Ok(());
        }
        obs.requests.inc();
        // The rid either rode in as the line's final field (a relaying
        // tier stamped it) or is minted here — the wire layer is where a
        // request first enters this server's trace. A carried rid also
        // marks this request as relayed: its request span then links
        // under the relaying tier's `relay` phase.
        let carried_rid = extract_rid(&line).map(str::to_string);
        let carried = carried_rid.is_some();
        let rid = carried_rid.unwrap_or_else(|| obs.registry.mint_rid());
        let t0 = std::time::Instant::now();
        let response = match parse_request(&line) {
            // Subscribe switches the connection into streaming mode: the
            // acknowledgement and every later frame are written inside,
            // and the connection never returns to request/response.
            Ok(Request::Subscribe { interval_ms }) => {
                let dur = t0.elapsed();
                obs.verb_hist("subscribe").record_duration(dur);
                obs.registry.span("serve.subscribe", &rid, dur, &[]);
                return serve_subscription(&mut writer, manager, interval_ms);
            }
            // Hello owns version negotiation: in-range proto 1 keeps the
            // line protocol, in-range proto 2 acknowledges and upgrades
            // this connection to binary framing, everything else fails
            // fast with `proto-mismatch`.
            Ok(Request::Hello { proto }) => {
                if !protos.contains(&proto) {
                    Response::error(
                        "proto-mismatch",
                        format!(
                            "server speaks proto {}..{}, client sent {proto}",
                            protos.start(),
                            protos.end()
                        ),
                    )
                } else if proto >= PROTO_V2 {
                    let banner = hello_banner(manager, PROTO_V2);
                    let dur = t0.elapsed();
                    obs.verb_hist("hello").record_duration(dur);
                    obs.proto_verb_hist(PROTO_V2, "hello").record_duration(dur);
                    obs.registry.span("serve.hello", &rid, dur, &[]);
                    let tx = write_response(&mut writer, &banner)?;
                    obs.count_wire(PROTO_V2, 0, tx as u64);
                    let host = Arc::new(ServeHost {
                        manager: Arc::clone(manager),
                    });
                    return run_mux(reader, writer, host);
                } else {
                    hello_banner(manager, proto)
                }
            }
            Ok(request) => dispatch(request, manager, &rid),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        let dur = t0.elapsed();
        let verb = line.split_whitespace().next().unwrap_or("");
        obs.record_request(verb, dur, &rid);
        obs.proto_verb_hist(PROTO_VERSION, verb)
            .record_duration(dur);
        let traced = span_verb(verb);
        if let Some(v) = traced {
            request_span(obs, v, &rid, dur, carried);
        }
        let response = stamp_rid(response, &rid, carried);
        let w0 = std::time::Instant::now();
        let tx = write_response(&mut writer, &response)?;
        let wdur = w0.elapsed();
        obs.write_us.record_duration(wdur);
        if traced.is_some() {
            write_span(obs, &rid, wdur);
        }
        obs.count_wire(PROTO_VERSION, 0, tx as u64);
    }
}

/// Records a wire request's `serve.<verb>` span. Its `request` phase is
/// the shard-local root of the trace, linking under a routing tier's
/// `relay` phase only when the rid actually rode in from one.
fn request_span(obs: &ServeObs, verb: &str, rid: &str, dur: Duration, carried: bool) {
    let mut fields = vec![("phase", "request".to_string())];
    if carried {
        fields.push(("parent", "relay".to_string()));
    }
    obs.registry
        .span(&format!("serve.{verb}"), rid, dur, &fields);
}

/// Records the `write` phase span under a wire request's `request` span.
fn write_span(obs: &ServeObs, rid: &str, dur: Duration) {
    obs.registry.span(
        "serve.phase.write",
        rid,
        dur,
        &[
            ("phase", "write".to_string()),
            ("parent", "request".to_string()),
        ],
    );
}

/// Echoes a carried rid onto successful replies, so any client (or
/// relay) holding an `ok` line can hand its rid straight to
/// `trace`/`cluster-trace`. Only propagated rids are echoed: locally
/// minted ones would make otherwise-identical replies differ across
/// protocol generations.
fn stamp_rid(response: Response, rid: &str, carried: bool) -> Response {
    if !carried {
        return response;
    }
    match response {
        Response::Ok(mut pairs) => {
            if !pairs.iter().any(|(k, _)| k == "rid") {
                pairs.push(("rid".to_string(), rid.to_string()));
            }
            Response::Ok(pairs)
        }
        err => err,
    }
}

/// The `ok` banner a successful `hello` negotiation answers with,
/// stamped with the agreed protocol generation.
fn hello_banner(manager: &SessionManager, proto: u32) -> Response {
    Response::ok([
        ("proto", proto.to_string()),
        ("server", "snn-serve".to_string()),
        ("evict", u8::from(manager.eviction_enabled()).to_string()),
        // Capability flag: this build stores shadow checkpoints (the
        // `shadow` verb). Routing tiers key failover protection off it.
        ("shadow", "1".to_string()),
        // This build keeps a flight-recorder journal and accepts
        // streaming subscriptions.
        ("journal", "1".to_string()),
        ("subscribe", "1".to_string()),
        // This build answers `trace rid=` with its per-request span and
        // journal material for cluster-wide trace assembly.
        ("trace", "1".to_string()),
    ])
}

fn write_response(writer: &mut TcpStream, response: &Response) -> io::Result<usize> {
    let mut wire = format_response(response);
    wire.push('\n');
    writer.write_all(wire.as_bytes())?;
    writer.flush()?;
    Ok(wire.len())
}

/// The session server as a [`MuxHost`]: answers one line per request
/// frame and samples subscription push frames, recording proto 2 wire
/// and latency metrics.
#[derive(Debug)]
struct ServeHost {
    manager: Arc<SessionManager>,
}

impl MuxHost for ServeHost {
    fn handle_line(&self, line: &str) -> String {
        let manager = &*self.manager;
        let obs = manager.obs();
        obs.requests.inc();
        let carried_rid = extract_rid(line).map(str::to_string);
        let carried = carried_rid.is_some();
        let rid = carried_rid.unwrap_or_else(|| obs.registry.mint_rid());
        let t0 = std::time::Instant::now();
        let response = match parse_request(line) {
            // The connection is already negotiated: an in-stream hello
            // (a client re-probing capabilities) re-answers the banner.
            Ok(Request::Hello { proto }) if proto == PROTO_V2 => hello_banner(manager, PROTO_V2),
            Ok(Request::Hello { proto }) => Response::error(
                "proto-mismatch",
                format!("connection is negotiated to proto {PROTO_V2}, client sent {proto}"),
            ),
            // Subscriptions are intercepted by the demux loop before this
            // is called; kept so a crafted frame cannot reach dispatch.
            Ok(Request::Subscribe { .. }) => {
                Response::error("bad-request", "subscribe is a stream")
            }
            Ok(request) => dispatch(request, manager, &rid),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        let dur = t0.elapsed();
        let verb = line.split_whitespace().next().unwrap_or("");
        obs.record_request(verb, dur, &rid);
        obs.proto_verb_hist(PROTO_V2, verb).record_duration(dur);
        let traced = span_verb(verb);
        if let Some(v) = traced {
            request_span(obs, v, &rid, dur, carried);
        }
        let response = stamp_rid(response, &rid, carried);
        // Proto 2's socket write happens on the shared writer thread, so
        // the write phase times what this request path owns: rendering
        // the reply line the frame is built from.
        let w0 = std::time::Instant::now();
        let out = format_response(&response);
        let wdur = w0.elapsed();
        obs.write_us.record_duration(wdur);
        if traced.is_some() {
            write_span(obs, &rid, wdur);
        }
        out
    }

    fn push_line(&self, seq: u64, journal_cursor: &mut u64) -> Option<String> {
        if self.manager.is_shutdown() {
            return None;
        }
        Some(render_push_line(&self.manager, seq, journal_cursor))
    }

    fn is_shutdown(&self) -> bool {
        self.manager.is_shutdown()
    }

    fn journal_total(&self) -> u64 {
        self.manager.obs().registry.journal_snapshot().total
    }

    fn on_wire(&self, rx_bytes: u64, tx_bytes: u64) {
        self.manager.obs().count_wire(PROTO_V2, rx_bytes, tx_bytes);
    }

    fn on_queue_wait(&self, line: &str, waited: Duration) {
        // Only relayed (rid-bearing) frames get a demux-wait node: a
        // minted rid here would never match the request span's rid. A
        // control verb records no request span to hang it under.
        let verb = line.split_whitespace().next().unwrap_or("");
        if let Some(rid) = extract_rid(line).filter(|_| span_verb(verb).is_some()) {
            self.manager.obs().registry.span(
                "serve.phase.demux_wait",
                rid,
                waited,
                &[
                    ("phase", "demux_wait".to_string()),
                    ("parent", "request".to_string()),
                ],
            );
        }
    }

    fn on_flow(&self, tags_in_flight: u64, writer_queue: u64) {
        let obs = self.manager.obs();
        obs.tags_in_flight.set(tags_in_flight as f64);
        obs.writer_queue.set(writer_queue as f64);
    }

    fn next_subscriber(&self) -> u64 {
        self.manager.obs().subscriber().0
    }

    fn on_push_drop(&self, sub: u64) {
        let obs = self.manager.obs();
        obs.subscribe_drops.inc();
        obs.sub_drop_counter(sub).inc();
    }
}

/// Renders one subscription frame line (shared by the proto 1 stream
/// writer and the proto 2 push sampler): the full metrics exposition
/// plus the journal events born since `journal_cursor`, which advances.
fn render_push_line(manager: &SessionManager, seq: u64, journal_cursor: &mut u64) -> String {
    let metrics = manager.metrics_text();
    let obs = manager.obs();
    let mut journal = obs.registry.journal_snapshot();
    // Delta framing: only the events born since the last frame ride
    // along (the ring itself bounds how far back a reconnecting
    // subscriber can catch up).
    let fresh = (journal.total - *journal_cursor).min(journal.events.len() as u64);
    *journal_cursor = journal.total;
    journal
        .events
        .drain(..journal.events.len() - fresh as usize);
    format!(
        "push seq={seq} data={} journal={}",
        hex_encode(metrics.as_bytes()),
        hex_encode(journal.render().as_bytes()),
    )
}

/// How many sampled frames a subscription buffers between its sampler
/// and its socket writer. A consumer that falls further behind loses
/// frames (counted in `serve.subscribe.drops`) instead of backing the
/// sampler up.
const SUBSCRIBE_BUFFER: usize = 8;

/// Streams periodic telemetry frames until the client disconnects or the
/// server shuts down. The sampler thread renders each frame and
/// `try_send`s it into a bounded channel — it never blocks on the
/// subscriber's socket, so a stalled consumer cannot stall anything but
/// its own feed. Each frame is one line:
/// `push seq=<n> data=<hex exposition> journal=<hex journal delta>`,
/// where the journal part carries only events recorded since the
/// previous frame (its `meta` counters stay cumulative, so a subscriber
/// can detect its own losses from `seq` gaps and the totals).
fn serve_subscription(
    writer: &mut TcpStream,
    manager: &SessionManager,
    interval_ms: u64,
) -> io::Result<()> {
    let interval = Duration::from_millis(interval_ms.clamp(10, 10_000));
    // The journal cursor is taken before the ack: an event the client
    // causes after reading the ack must reach a frame.
    let mut cursor = manager.obs().registry.journal_snapshot().total;
    write_response(
        writer,
        &Response::ok([("interval_ms", interval.as_millis().to_string())]),
    )?;
    let (tx, rx) = mpsc::sync_channel::<String>(SUBSCRIBE_BUFFER);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let obs = manager.obs();
            // Drops are billed both globally and to this subscriber's
            // own counter, so one slow consumer is identifiable.
            let (_sub, sub_drops) = obs.subscriber();
            let mut seq = 0u64;
            loop {
                if manager.is_shutdown() {
                    return; // dropping tx ends the writer loop cleanly
                }
                std::thread::sleep(interval);
                let mut frame = render_push_line(manager, seq, &mut cursor);
                frame.push('\n');
                seq += 1;
                match tx.try_send(frame) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(_)) => {
                        obs.subscribe_drops.inc();
                        sub_drops.inc();
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => return,
                }
            }
        });
        // The writer loop runs on the connection thread; a write error
        // (client gone) drops `rx`, which the sampler sees on its next
        // try_send and exits — the scope then joins it.
        let obs = manager.obs();
        for frame in rx {
            if writer
                .write_all(frame.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            obs.count_wire(PROTO_VERSION, 0, frame.len() as u64);
        }
    });
    Ok(())
}

/// Executes one request to completion (for session jobs: submit, then
/// block this connection thread on the reply channel).
fn dispatch(request: Request, manager: &SessionManager, rid: &str) -> Response {
    match request {
        // Negotiation is owned by the connection loops (line and mux),
        // which intercept hello before dispatch; this arm is the
        // defensive fallback answering for the classic line protocol.
        Request::Hello { proto } => {
            if proto == PROTO_VERSION {
                hello_banner(manager, PROTO_VERSION)
            } else {
                Response::error(
                    "proto-mismatch",
                    format!("server speaks proto {PROTO_VERSION}, client sent {proto}"),
                )
            }
        }
        // A draining server answers ping with its shutdown state so
        // health checkers stop routing to it instead of seeing a live
        // socket and assuming a live shard.
        Request::Ping if manager.is_shutdown() => error_response(&ServeError::Shutdown),
        Request::Ping => Response::ok([
            ("pong", "1".to_string()),
            ("proto", crate::protocol::PROTO_VERSION.to_string()),
        ]),
        Request::Stats => {
            let s = manager.stats();
            Response::ok([
                ("sessions", s.sessions.to_string()),
                ("max_sessions", s.max_sessions.to_string()),
                ("queued_jobs", s.queued_jobs.to_string()),
                ("ticks", s.ticks.to_string()),
                ("total_samples", s.total_samples.to_string()),
                ("evicted", s.evicted_sessions.to_string()),
                ("total_j", s.total_j.to_string()),
                ("uptime_s", s.uptime_s.to_string()),
            ])
        }
        // The exposition is multi-line text and responses are single
        // lines, so it travels hex-encoded in `data` like snapshots do.
        Request::Metrics => Response::ok([
            ("instance", manager.obs().registry.instance().to_string()),
            ("data", hex_encode(manager.metrics_text().as_bytes())),
        ]),
        // The flight recorder travels the same way.
        Request::Journal => Response::ok([
            ("instance", manager.obs().registry.instance().to_string()),
            ("data", hex_encode(manager.journal_text().as_bytes())),
        ]),
        // Handled before dispatch (it hijacks the connection); kept in the
        // match so a new verb cannot be forgotten here.
        Request::Subscribe { .. } => Response::error("bad-request", "subscribe is a stream"),
        Request::Open { id, spec } => match manager.open(&id, &spec) {
            Ok(()) => {
                manager
                    .obs()
                    .registry
                    .journal_event("serve.open", rid, &[("id", id.clone())]);
                Response::ok([("id", id)])
            }
            Err(e) => {
                journal_reject(manager, rid, &id, &e);
                error_response(&e)
            }
        },
        Request::Restore { id, snapshot } => match manager.open_restored(&id, &snapshot) {
            Ok((samples, total_j)) => {
                manager.obs().registry.journal_event(
                    "serve.restore",
                    rid,
                    &[("id", id.clone()), ("samples", samples.to_string())],
                );
                Response::ok([
                    ("id", id),
                    ("samples", samples.to_string()),
                    ("total_j", total_j.to_string()),
                ])
            }
            Err(e) => {
                journal_reject(manager, rid, &id, &e);
                error_response(&e)
            }
        },
        Request::Ingest { id, images } => {
            if images.len() > manager.limits().max_batch {
                return error_response(&ServeError::BadRequest(format!(
                    "batch of {} exceeds max_batch {}",
                    images.len(),
                    manager.limits().max_batch
                )));
            }
            roundtrip(manager, &id, Job::Ingest(images), rid)
        }
        Request::Report { id } => roundtrip(manager, &id, Job::Report, rid),
        Request::Energy { id } => roundtrip(manager, &id, Job::Energy, rid),
        Request::Checkpoint { id } => roundtrip(manager, &id, Job::Checkpoint, rid),
        Request::Swap { id, snapshot } => roundtrip(manager, &id, Job::Swap(snapshot), rid),
        // Shadow store/fetch never touch a live session or the scheduler:
        // they are direct manager calls against the bounded shadow store.
        Request::Shadow { id, snapshot, seq } => match manager.store_shadow(&id, seq, snapshot) {
            Ok(()) => Response::ok([("id", id), ("seq", seq.to_string())]),
            Err(e) => error_response(&e),
        },
        Request::ShadowGet { id } => match manager.fetch_shadow(&id) {
            Some((seq, bytes)) => Response::ok([
                ("id", id),
                ("seq", seq.to_string()),
                ("data", hex_encode(&bytes)),
            ]),
            None => error_response(&ServeError::UnknownSession(id)),
        },
        Request::Evict { id } => roundtrip(manager, &id, Job::Evict, rid),
        Request::Close { id } => roundtrip(manager, &id, Job::Close, rid),
        // Raw trace material for one rid: this server's retained spans
        // and journal events stamped with it, as hex-encoded exposition
        // and journal documents. Assembly into a tree happens at the
        // caller (the router's `cluster-trace` merges many of these).
        Request::Trace { rid: target } => {
            let reg = &manager.obs().registry;
            let mut snap = reg.snapshot();
            snap.counters.clear();
            snap.gauges.clear();
            snap.histograms.clear();
            snap.exemplars.clear();
            snap.spans.retain(|s| s.rid == target);
            let mut journal = reg.journal_snapshot();
            journal.events.retain(|e| e.rid == target);
            // Re-base the meta counters onto the filtered view so the
            // document keeps the codec's total/dropped invariant.
            journal.total = journal.events.len() as u64;
            journal.dropped = 0;
            Response::ok([
                ("instance", reg.instance().to_string()),
                ("rid", target.clone()),
                ("spans", snap.spans.len().to_string()),
                ("events", journal.events.len().to_string()),
                ("data", hex_encode(snap.render().as_bytes())),
                ("journal", hex_encode(journal.render().as_bytes())),
            ])
        }
    }
}

/// Journals admission-class rejections (the events the post-mortem story
/// of an overloaded or flapping shard is made of); other errors already
/// surface through metrics and the wire response.
fn journal_reject(manager: &SessionManager, rid: &str, id: &str, e: &ServeError) {
    let kind = match e {
        ServeError::Admission { .. } | ServeError::DuplicateSession(_) => "serve.reject.admission",
        ServeError::Backpressure { .. } => "serve.reject.backpressure",
        _ => return,
    };
    manager
        .obs()
        .registry
        .journal_event(kind, rid, &[("id", id.to_string())]);
}

fn roundtrip(manager: &SessionManager, id: &str, job: Job, rid: &str) -> Response {
    let (tx, rx) = mpsc::channel();
    if let Err(e) = manager.submit(id, job, rid, tx) {
        journal_reject(manager, rid, id, &e);
        return error_response(&e);
    }
    match rx.recv() {
        Ok(result) => job_response(id, result),
        // The scheduler dropped the sender: only possible on shutdown.
        Err(_) => error_response(&ServeError::Shutdown),
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::error(e.code(), e.to_string())
}

fn job_response(id: &str, result: JobResult) -> Response {
    let output = match result {
        Ok(output) => output,
        Err(e) => return error_response(&e),
    };
    match output {
        JobOutput::Ingested(outcome, total_j) => Response::ok([
            ("id", id.to_string()),
            ("predictions", encode_predictions(&outcome.predictions)),
            ("drifts", outcome.drift_events.len().to_string()),
            (
                "response_active",
                u8::from(outcome.response_active).to_string(),
            ),
            ("samples", outcome.samples_seen.to_string()),
            ("total_j", total_j.to_string()),
        ]),
        JobOutput::Report(report) | JobOutput::Closed(report) => Response::ok([
            ("id", id.to_string()),
            ("samples", report.samples_seen.to_string()),
            ("accuracy", report.accuracy.to_string()),
            ("forgetting", report.mean_forgetting.to_string()),
            ("drifts", report.drift_events.len().to_string()),
            ("spikes_per_sample", report.mean_exc_spikes.to_string()),
        ]),
        JobOutput::Energy(energy) => Response::ok([
            ("id", id.to_string()),
            ("train_j", energy.train_j.to_string()),
            ("infer_j", energy.infer_j.to_string()),
            ("per_sample_j", energy.per_sample_j.to_string()),
        ]),
        JobOutput::Checkpoint(bytes) => {
            Response::ok([("id", id.to_string()), ("data", hex_encode(&bytes))])
        }
        JobOutput::Swapped {
            samples_seen,
            total_j,
        } => Response::ok([
            ("id", id.to_string()),
            ("samples", samples_seen.to_string()),
            ("total_j", total_j.to_string()),
        ]),
        JobOutput::Evicted(path) => {
            Response::ok([("id", id.to_string()), ("path", path.display().to_string())])
        }
    }
}
