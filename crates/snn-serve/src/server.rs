//! The session server: a [`SessionManager`] behind the connection front
//! end ([`crate::front`]).
//!
//! [`SnnServer::start`] binds a listener and spawns two long-lived
//! threads — the front end's accept loop and the scheduler
//! ([`crate::scheduler`]), which runs one persistent worker per core.
//! Each accepted connection gets its own thread. The server's part is
//! [`MuxHost`]: one request pipeline for both protocol generations that
//! mints a rid per line (or takes the one a relaying tier appended),
//! dispatches the request against the shared [`SessionManager`] and
//! records its latency, spans and wire bytes; and the exposition and
//! journal its subscription pushes carry. Connection threads hold no
//! session state: a client may spread one session's requests over
//! several connections or multiplex several sessions on one connection,
//! and ordering is still per-session FIFO (the registry queues are the
//! only ordering authority).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::RangeInclusive;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use neuro_energy::GpuSpec;
use snn_obs::{Counter, JournalSnapshot, Registry};

use crate::front::{accept_loop, subscribe_ack};
use crate::mux::MuxHost;
use crate::obs::{span_verb, ServeObs};
use crate::protocol::{
    encode_predictions, extract_rid, format_response, hex_encode, parse_request, Request, Response,
    PROTO_V2, PROTO_VERSION,
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

        let scheduler_thread = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || scheduler::run(manager))
        };
        let accept_thread = {
            let host = Arc::new(ServeHost {
                manager: Arc::clone(&manager),
                protos: config.min_proto..=config.max_proto,
            });
            std::thread::spawn(move || accept_loop(listener, host))
        };
        Ok(SnnServer {
            addr,
            manager,
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

/// The session server as the front end's [`MuxHost`].
#[derive(Debug)]
struct ServeHost {
    manager: Arc<SessionManager>,
    /// The protocol generations a line connection may `hello` into.
    protos: RangeInclusive<u32>,
}

impl MuxHost for ServeHost {
    /// The one request pipeline, for both protocol generations.
    fn handle_line(
        &self,
        line: &str,
        proto: u32,
        reply: &mut dyn FnMut(String) -> io::Result<()>,
    ) -> io::Result<()> {
        let obs = self.manager.obs();
        obs.requests.inc();
        // The rid either rode in as the line's final field (a relaying
        // tier stamped it) or is minted here — the wire layer is where a
        // request first enters this server's trace. A carried rid also
        // marks this request as relayed: its request span then links
        // under the relaying tier's `relay` phase.
        let carried_rid = extract_rid(line).map(str::to_string);
        let carried = carried_rid.is_some();
        let rid = carried_rid.unwrap_or_else(|| obs.registry.mint_rid());
        let t0 = std::time::Instant::now();
        let response = match parse_request(line) {
            Ok(request) => self.dispatch(request, &rid, proto),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        let dur = t0.elapsed();
        let verb = line.split_whitespace().next().unwrap_or("");
        obs.record_request(verb, dur, &rid);
        let traced = span_verb(verb);
        if let Some(v) = traced {
            request_span(obs, v, &rid, dur, carried);
        }
        let response = stamp_rid(response, &rid, carried);
        // Under proto 1 the write phase is the socket write. Under proto
        // 2 the shared writer thread writes the socket, so the phase
        // times what this path owns: rendering the reply line the frame
        // is built from.
        let w0 = std::time::Instant::now();
        let written = reply(format_response(&response));
        let wdur = w0.elapsed();
        obs.write_us.record_duration(wdur);
        if traced.is_some() {
            write_span(obs, &rid, wdur);
        }
        written
    }

    fn exposition(&self) -> String {
        self.manager.metrics_text()
    }

    fn journal(&self) -> JournalSnapshot {
        self.manager.obs().registry.journal_snapshot()
    }

    fn is_shutdown(&self) -> bool {
        self.manager.is_shutdown()
    }

    fn subscriber(&self) -> (Arc<Counter>, Arc<Counter>) {
        let obs = self.manager.obs();
        (Arc::clone(&obs.subscribe_drops), obs.subscriber().1)
    }

    fn on_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        self.manager.obs().count_wire(proto, rx_bytes, tx_bytes);
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
}

impl ServeHost {
    /// Answers `hello proto=<asked>` on a connection speaking `proto`. A
    /// line connection accepts any generation in range; 2 and up agree
    /// on 2, which upgrades it. A multiplexed connection is already
    /// negotiated, so an in-stream `hello` (a client re-probing
    /// capabilities) is only re-answered for proto 2.
    fn hello(&self, asked: u32, proto: u32) -> Response {
        let refusal = if proto >= PROTO_V2 {
            (asked != PROTO_V2).then(|| format!("connection is negotiated to proto {PROTO_V2}"))
        } else {
            let (lo, hi) = (self.protos.start(), self.protos.end());
            (!self.protos.contains(&asked)).then(|| format!("server speaks proto {lo}..{hi}"))
        };
        match refusal {
            Some(why) => Response::error("proto-mismatch", format!("{why}, client sent {asked}")),
            None => hello_banner(&self.manager, asked.min(PROTO_V2)),
        }
    }

    /// Executes one request that arrived under protocol generation
    /// `proto` to completion (for session jobs: submit, then block this
    /// connection thread on the reply channel).
    fn dispatch(&self, request: Request, rid: &str, proto: u32) -> Response {
        let manager = &*self.manager;
        match request {
            Request::Hello { proto: asked } => self.hello(asked, proto),
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
            // The front end turns a connection whose subscribe this grants
            // into a push stream.
            Request::Subscribe { interval_ms } => subscribe_ack(interval_ms),
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
            Request::Shadow { id, snapshot, seq } => match manager.store_shadow(&id, seq, snapshot)
            {
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
            Request::Trace { rid: target } => trace_reply(&manager.obs().registry, &target),
        }
    }
}

/// The answer to `trace rid=`, on either tier: the registry's spans and
/// journal events stamped with `rid`, as a spans-only exposition in
/// `data` and a journal document in `journal`. Assembly into a tree
/// happens at the caller (the router's `cluster-trace` merges many of
/// these). The journal's meta counters are re-based onto the filtered
/// events, so the document keeps the codec's total/dropped invariant.
pub fn trace_reply(registry: &Registry, rid: &str) -> Response {
    let mut snap = registry.snapshot();
    snap.counters.clear();
    snap.gauges.clear();
    snap.histograms.clear();
    snap.exemplars.clear();
    snap.spans.retain(|s| s.rid == rid);
    let mut journal = registry.journal_snapshot();
    journal.events.retain(|e| e.rid == rid);
    journal.total = journal.events.len() as u64;
    journal.dropped = 0;
    Response::ok([
        ("instance", registry.instance().to_string()),
        ("rid", rid.to_string()),
        ("spans", snap.spans.len().to_string()),
        ("events", journal.events.len().to_string()),
        ("data", hex_encode(snap.render().as_bytes())),
        ("journal", hex_encode(journal.render().as_bytes())),
    ])
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
