//! A minimal blocking client for the serve protocol.
//!
//! [`ServeClient`] wraps one TCP connection: each call writes a request
//! line, blocks for the one response line, and lifts it into typed Rust
//! values (or [`ClientError::Server`] carrying the wire error code). The
//! router, the integration tests, the benches and external tools all
//! speak through this type, so the protocol has exactly one client-side
//! encoder/decoder.
//!
//! The negotiated transport is invisible above [`ServeClient::call_raw`]:
//! proto 1 writes LF-terminated lines, proto 2
//! ([`ServeClient::connect_with_proto`]) rides a multiplexed binary
//! connection ([`crate::mux::MuxClient`]) — same requests, same typed
//! results, roughly half the wire bytes for payload-heavy verbs.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};

use snn_data::Image;
use snn_online::EnergyReport;

use crate::frame::{Frame, FLAG_PUSH};
use crate::mux::MuxClient;
use crate::protocol::{
    decode_predictions, format_request, hex_decode, parse_response, tokenize, ProtocolError,
    Request, Response, SessionSpec, MAX_LINE_BYTES, PROTO_V2, PROTO_VERSION,
};
use crate::session::ServerStats;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The response line failed to parse.
    Protocol(ProtocolError),
    /// The server answered `err code=… msg=…`.
    Server {
        /// Machine-readable error code (see [`crate::ServeError::code`]).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
    /// The response was `ok` but missing or corrupting an expected field.
    Malformed(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, msg } => write!(f, "server error [{code}]: {msg}"),
            ClientError::Malformed(what) => write!(f, "malformed ok response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// The wire error code, when this is a server-side rejection.
    pub fn server_code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A session report as carried over the wire (the summary slice of
/// [`snn_online::OnlineReport`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireReport {
    /// Stream samples the session has consumed.
    pub samples: u64,
    /// Windowed prequential accuracy.
    pub accuracy: f64,
    /// Mean forgetting over established tasks.
    pub forgetting: f64,
    /// Drift events raised so far.
    pub drift_events: u64,
    /// Mean excitatory spikes per sample over the window.
    pub spikes_per_sample: f64,
}

/// The outcome of one `ingest` request.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// Prequential predictions, one per submitted sample.
    pub predictions: Vec<Option<u8>>,
    /// Drift events raised by this batch.
    pub drift_events: u64,
    /// True while a boosted adaptive response is active.
    pub response_active: bool,
    /// The session's stream position after the batch.
    pub samples_seen: u64,
    /// The session's cumulative modelled joules (train + infer) after
    /// the batch.
    pub total_j: f64,
}

/// The negotiated wire transport under a [`ServeClient`].
#[derive(Debug)]
enum Transport {
    /// Proto 1: one LF-terminated line per request and response.
    Line {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    /// Proto 2: tagged binary frames over a shared multiplexed socket.
    Mux(Arc<MuxClient>),
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct ServeClient {
    transport: Transport,
    /// Negotiated protocol generation.
    proto: u32,
    /// The server's `hello` banner: its capability fields.
    banner: Response,
    /// Line-transport byte counters (the mux transport keeps its own).
    line_tx: u64,
    line_rx: u64,
}

impl ServeClient {
    /// Connects to a server and performs the `hello proto=…` version
    /// handshake, so an incompatible peer fails fast here instead of
    /// misparsing lines later. Speaks the classic proto 1; use
    /// [`ServeClient::connect_with_proto`] to negotiate binary framing.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a version mismatch arrives as
    /// [`ClientError::Server`] with code `proto-mismatch`.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with_proto(addr, PROTO_VERSION)
    }

    /// Connects and negotiates a specific protocol generation.
    /// [`PROTO_V2`] upgrades the connection to multiplexed binary
    /// framing after the (always line-based) `hello` exchange; a server
    /// that does not speak `proto` answers `proto-mismatch` and no
    /// upgrade happens.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::connect`] does.
    pub fn connect_with_proto(addr: impl ToSocketAddrs, proto: u32) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).ok();
        Self::negotiate(stream, proto, None)
    }

    /// Connects with bounded connect/read/write times (the timeouts
    /// apply to the handshake too, and stay in force for every later
    /// call), then performs the version handshake. A routing tier uses
    /// this so a stalled-but-connected peer cannot hang it forever.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::connect`] does, plus with
    /// [`std::io::ErrorKind::WouldBlock`]/`TimedOut` i/o errors when the
    /// peer exceeds `timeout`.
    pub fn connect_with_timeout(
        addr: std::net::SocketAddr,
        timeout: std::time::Duration,
    ) -> ClientResult<Self> {
        Self::connect_with_proto_timeout(addr, PROTO_VERSION, timeout)
    }

    /// [`ServeClient::connect_with_timeout`] with an explicit protocol
    /// generation (see [`ServeClient::connect_with_proto`]). Under
    /// [`PROTO_V2`] the timeout bounds each call's wait for its tagged
    /// response instead of the raw socket reads.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::connect_with_timeout`] does.
    pub fn connect_with_proto_timeout(
        addr: std::net::SocketAddr,
        proto: u32,
        timeout: std::time::Duration,
    ) -> ClientResult<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(ClientError::Io)?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(ClientError::Io)?;
        Self::negotiate(stream, proto, Some(timeout))
    }

    /// Line-based `hello`, then — when `proto` is [`PROTO_V2`] and the
    /// server agreed — the transport upgrade. Nothing rides the socket
    /// between the banner and the first frame, so no buffered bytes can
    /// be lost in the switch.
    fn negotiate(
        stream: TcpStream,
        proto: u32,
        timeout: Option<std::time::Duration>,
    ) -> ClientResult<Self> {
        let mut client = ServeClient {
            transport: Transport::Line {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            },
            proto,
            banner: Response::Ok(Vec::new()),
            line_tx: 0,
            line_rx: 0,
        };
        client.banner = client.hello_as(proto)?;
        if proto >= PROTO_V2 {
            if let Transport::Line { writer, .. } = client.transport {
                let mux = MuxClient::new(writer, timeout).map_err(ClientError::Io)?;
                client = ServeClient {
                    transport: Transport::Mux(mux),
                    ..client
                };
            }
        }
        Ok(client)
    }

    /// The negotiated protocol generation.
    pub fn proto(&self) -> u32 {
        self.proto
    }

    /// The server's banner from the last `hello` on this connection —
    /// its capability fields (`evict=`, `shadow=`, `journal=`, …), so a
    /// caller reads them without a second handshake.
    pub fn banner(&self) -> &Response {
        &self.banner
    }

    /// The underlying multiplexed connection, when proto 2 was
    /// negotiated. The handle is cheap to clone and safe to share — a
    /// routing tier extracts it here and interleaves many callers'
    /// traffic over the one socket.
    pub fn mux(&self) -> Option<Arc<MuxClient>> {
        match &self.transport {
            Transport::Mux(mux) => Some(Arc::clone(mux)),
            Transport::Line { .. } => None,
        }
    }

    /// Total bytes this client has written to / read from the wire,
    /// framing overhead included. The first comparison the proto 2
    /// rollout is judged by, so it lives on the client where both
    /// transports meet.
    pub fn wire_bytes(&self) -> (u64, u64) {
        match &self.transport {
            Transport::Line { .. } => (self.line_tx, self.line_rx),
            Transport::Mux(mux) => {
                let (tx, rx) = mux.wire_bytes();
                (self.line_tx + tx, self.line_rx + rx)
            }
        }
    }

    /// Performs the version handshake; returns the server's protocol
    /// generation (always [`PROTO_VERSION`] on success — mismatches are
    /// rejected by the server, and a server banner this client cannot
    /// read surfaces as [`ClientError::Malformed`]).
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does, plus on a missing or
    /// non-matching `proto` banner field.
    pub fn hello(&mut self) -> ClientResult<u32> {
        self.banner = self.hello_as(PROTO_VERSION)?;
        Ok(PROTO_VERSION)
    }

    /// One `hello proto=…` exchange, returning the banner.
    fn hello_as(&mut self, proto: u32) -> ClientResult<Response> {
        let resp = self.call(&Request::Hello { proto })?;
        if field::<u32>(&resp, "proto")? != proto {
            return Err(ClientError::Malformed("proto"));
        }
        Ok(resp)
    }

    /// Sends one request and reads the matching response line.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, unparseable responses, or an `err`
    /// response (lifted into [`ClientError::Server`]).
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        let reply = self.call_raw(&format_request(request))?;
        match parse_response(&reply)? {
            Response::Err { code, msg } => Err(ClientError::Server { code, msg }),
            ok => Ok(ok),
        }
    }

    /// Sends one already-formatted request line and returns the raw
    /// response line (trailing newline stripped, `err` lines included —
    /// nothing is lifted). This is the forwarding primitive a routing
    /// tier uses to relay traffic without re-encoding payloads.
    ///
    /// # Errors
    ///
    /// Fails on socket errors and truncated responses only.
    pub fn call_raw(&mut self, line: &str) -> ClientResult<String> {
        match &mut self.transport {
            Transport::Line { reader, writer } => {
                writer.write_all(line.as_bytes())?;
                if !line.ends_with('\n') {
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                self.line_tx += line.trim_end_matches('\n').len() as u64 + 1;
                let mut reply = String::new();
                let n = reader.take(MAX_LINE_BYTES).read_line(&mut reply)?;
                if n == 0 {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                self.line_rx += n as u64;
                if !reply.ends_with('\n') {
                    // Truncated at the size cap or by a dying server: a cut-short
                    // hex payload can still parse (and would silently corrupt a
                    // checkpoint, then desync every later call on this stream).
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response line truncated",
                    )));
                }
                while reply.ends_with('\n') || reply.ends_with('\r') {
                    reply.pop();
                }
                Ok(reply)
            }
            Transport::Mux(mux) => {
                let reply = mux.call_line(line.trim_end_matches('\n'))?;
                Ok(reply)
            }
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Server-wide counters.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn stats(&mut self) -> ClientResult<ServerStats> {
        let resp = self.call(&Request::Stats)?;
        Ok(ServerStats {
            sessions: field(&resp, "sessions")?,
            max_sessions: field(&resp, "max_sessions")?,
            queued_jobs: field(&resp, "queued_jobs")?,
            ticks: field(&resp, "ticks")?,
            total_samples: field(&resp, "total_samples")?,
            evicted_sessions: field(&resp, "evicted")?,
            total_j: field(&resp, "total_j")?,
            // Absent when talking to a pre-journal server: report zero
            // rather than refusing the whole stats reply.
            uptime_s: resp
                .get("uptime_s")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        })
    }

    /// Scrapes the server's full metrics exposition and parses it into a
    /// mergeable [`snn_obs::Snapshot`].
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does; a reply whose `data` field is
    /// missing, badly hex-encoded, or not valid exposition text surfaces
    /// as [`ClientError::Malformed`].
    pub fn metrics(&mut self) -> ClientResult<snn_obs::Snapshot> {
        let text = hex_text(&self.call(&Request::Metrics)?, "data")?;
        snn_obs::Snapshot::parse(&text).map_err(|_| ClientError::Malformed("metrics exposition"))
    }

    /// Dumps the server's flight-recorder journal and parses it into a
    /// mergeable [`snn_obs::JournalSnapshot`].
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does; a reply whose `data` field is
    /// missing, badly hex-encoded, or not valid journal text surfaces as
    /// [`ClientError::Malformed`].
    pub fn journal(&mut self) -> ClientResult<snn_obs::JournalSnapshot> {
        let text = hex_text(&self.call(&Request::Journal)?, "data")?;
        snn_obs::JournalSnapshot::parse(&text).map_err(|_| ClientError::Malformed("journal text"))
    }

    /// Fetches the server's raw trace material for one request id: its
    /// retained spans (as a spans-only [`snn_obs::Snapshot`]) and its
    /// journal events stamped with `rid`. The caller assembles trees —
    /// typically via [`snn_obs::TraceTree::assemble`] after merging
    /// material from every process the request crossed.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does; malformed payloads surface
    /// as [`ClientError::Malformed`].
    pub fn trace(
        &mut self,
        rid: &str,
    ) -> ClientResult<(snn_obs::Snapshot, snn_obs::JournalSnapshot)> {
        let resp = self.call(&Request::Trace {
            rid: rid.to_string(),
        })?;
        let spans = snn_obs::Snapshot::parse(&hex_text(&resp, "data")?)
            .map_err(|_| ClientError::Malformed("trace spans"))?;
        let journal = snn_obs::JournalSnapshot::parse(&hex_text(&resp, "journal")?)
            .map_err(|_| ClientError::Malformed("trace journal text"))?;
        Ok((spans, journal))
    }

    /// Fetches the assembled cluster-wide trace tree for one request id
    /// (router tier only: the `cluster-trace` verb fans out to every
    /// live shard and merges in dead shards' black-box journals). The
    /// returned tree is the parsed `# snn-trace v1` document — its root
    /// duration is the router's ownership of the request, and
    /// [`snn_obs::TraceTree::shares`] splits it into queue/exec/write.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does — a rid nothing references
    /// answers `err code=unknown-rid` — and malformed payloads surface
    /// as [`ClientError::Malformed`].
    pub fn cluster_trace(&mut self, rid: &str) -> ClientResult<snn_obs::TraceTree> {
        let reply = self.call_raw(&format!("cluster-trace rid={rid}"))?;
        let resp = match parse_response(&reply)? {
            Response::Err { code, msg } => return Err(ClientError::Server { code, msg }),
            ok => ok,
        };
        snn_obs::TraceTree::parse(&hex_text(&resp, "data")?)
            .map_err(|_| ClientError::Malformed("cluster-trace text"))
    }

    /// Switches this connection into streaming mode: the server pushes
    /// one telemetry frame roughly every `interval_ms` (clamped
    /// server-side) until the [`Subscription`] is dropped or the server
    /// shuts down. The connection is consumed — subscriptions are
    /// dedicated, so a slow consumer can only ever lose its own frames
    /// (visible as `seq` gaps and in the server's
    /// `serve.subscribe.drops` counter), never stall the data plane.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does on the handshake.
    pub fn subscribe(mut self, interval_ms: u64) -> ClientResult<Subscription> {
        if let Transport::Mux(mux) = &self.transport {
            // Under proto 2 the subscription rides its tag on the shared
            // connection: after the ack, `push`-flagged frames keep
            // arriving on the same tag until one non-push frame ends it.
            let line = format_request(&Request::Subscribe { interval_ms });
            let (ack, rx) = mux.subscribe_line(line.trim_end_matches('\n'))?;
            if let Response::Err { code, msg } = parse_response(&ack)? {
                return Err(ClientError::Server { code, msg });
            }
            let client = Arc::clone(mux);
            return Ok(Subscription {
                inner: SubscriptionInner::Mux {
                    rx,
                    _client: client,
                },
            });
        }
        self.call(&Request::Subscribe { interval_ms })?;
        match self.transport {
            Transport::Line { reader, .. } => Ok(Subscription {
                inner: SubscriptionInner::Line { reader },
            }),
            Transport::Mux(_) => unreachable!("mux subscriptions return above"),
        }
    }

    /// Opens a fresh session.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does (admission and duplicate-id
    /// rejections arrive as [`ClientError::Server`]).
    pub fn open(&mut self, id: &str, spec: SessionSpec) -> ClientResult<()> {
        self.call(&Request::Open {
            id: id.to_string(),
            spec,
        })
        .map(|_| ())
    }

    /// Feeds one micro-batch into a session.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does (backpressure arrives as
    /// [`ClientError::Server`] with code `backpressure`).
    pub fn ingest(&mut self, id: &str, images: &[Image]) -> ClientResult<IngestOutcome> {
        let resp = self.call(&Request::Ingest {
            id: id.to_string(),
            images: images.to_vec(),
        })?;
        let predictions = decode_predictions(
            resp.get("predictions")
                .ok_or(ClientError::Malformed("predictions"))?,
        )?;
        let response_active = match resp.get("response_active") {
            Some("1") => true,
            Some("0") => false,
            _ => return Err(ClientError::Malformed("response_active")),
        };
        Ok(IngestOutcome {
            predictions,
            drift_events: field(&resp, "drifts")?,
            response_active,
            samples_seen: field(&resp, "samples")?,
            total_j: field(&resp, "total_j")?,
        })
    }

    /// The session's current prequential report.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn report(&mut self, id: &str) -> ClientResult<WireReport> {
        let resp = self.call(&Request::Report { id: id.to_string() })?;
        wire_report(&resp)
    }

    /// The session's modelled energy totals.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn energy(&mut self, id: &str) -> ClientResult<EnergyReport> {
        let resp = self.call(&Request::Energy { id: id.to_string() })?;
        Ok(EnergyReport {
            train_j: field(&resp, "train_j")?,
            infer_j: field(&resp, "infer_j")?,
            per_sample_j: field(&resp, "per_sample_j")?,
        })
    }

    /// Serialises the session's full state; the returned bytes are a
    /// [`snn_online::ModelSnapshot`] container.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn checkpoint(&mut self, id: &str) -> ClientResult<Vec<u8>> {
        let resp = self.call(&Request::Checkpoint { id: id.to_string() })?;
        Ok(hex_decode(
            resp.get("data").ok_or(ClientError::Malformed("data"))?,
        )?)
    }

    /// Opens a **new** session restored from snapshot bytes; returns the
    /// restored stream position.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn restore(&mut self, id: &str, snapshot: &[u8]) -> ClientResult<u64> {
        let resp = self.call(&Request::Restore {
            id: id.to_string(),
            snapshot: snapshot.to_vec(),
        })?;
        field(&resp, "samples")
    }

    /// Hot-swaps a **running** session onto snapshot bytes (same session
    /// configuration required); returns the adopted stream position.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn swap(&mut self, id: &str, snapshot: &[u8]) -> ClientResult<u64> {
        let resp = self.call(&Request::Swap {
            id: id.to_string(),
            snapshot: snapshot.to_vec(),
        })?;
        field(&resp, "samples")
    }

    /// Stores a shadow checkpoint for `id` on the server **without**
    /// opening a live session. `seq` must equal the snapshot's
    /// `samples_seen`; the server rejects mismatches and sequence
    /// regressions with code `shadow-stale`.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn shadow(&mut self, id: &str, snapshot: &[u8], seq: u64) -> ClientResult<()> {
        self.call(&Request::Shadow {
            id: id.to_string(),
            snapshot: snapshot.to_vec(),
            seq,
        })
        .map(|_| ())
    }

    /// Evicts a session: the server checkpoints its full state to disk,
    /// frees the learner, and answers later requests for the id with
    /// code `session-evicted` whose message is the returned restore path.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does (`bad-request` when the server
    /// has no evict directory configured).
    pub fn evict(&mut self, id: &str) -> ClientResult<String> {
        let resp = self.call(&Request::Evict { id: id.to_string() })?;
        Ok(resp
            .get("path")
            .ok_or(ClientError::Malformed("path"))?
            .to_string())
    }

    /// Closes a session, returning its final report.
    ///
    /// # Errors
    ///
    /// Fails as [`ServeClient::call`] does.
    pub fn close(&mut self, id: &str) -> ClientResult<WireReport> {
        let resp = self.call(&Request::Close { id: id.to_string() })?;
        wire_report(&resp)
    }
}

/// One streamed telemetry frame from a subscribed server.
#[derive(Debug, Clone)]
pub struct Push {
    /// Monotonic frame number minted by the server's sampler. Gaps mean
    /// frames were dropped for this (slow) subscriber.
    pub seq: u64,
    /// The full metrics exposition at sample time.
    pub metrics: snn_obs::Snapshot,
    /// Journal events recorded since the previous frame; the `meta`
    /// counters stay cumulative so deltas survive dropped frames.
    pub journal: snn_obs::JournalSnapshot,
}

/// The transport under a [`Subscription`].
#[derive(Debug)]
enum SubscriptionInner {
    /// Proto 1: the dedicated connection's reader, now carrying only
    /// push lines.
    Line { reader: BufReader<TcpStream> },
    /// Proto 2: push-flagged frames delivered by the shared connection's
    /// reader thread.
    Mux {
        rx: mpsc::Receiver<Frame>,
        /// Keeps the multiplexed connection (and its reader thread)
        /// alive for as long as the subscription is held.
        _client: Arc<MuxClient>,
    },
}

/// A connection switched into streaming mode by
/// [`ServeClient::subscribe`]. Dropping it ends the subscription (the
/// server notices on its next push).
#[derive(Debug)]
pub struct Subscription {
    inner: SubscriptionInner,
}

impl Subscription {
    /// Blocks for the next pushed frame. A clean end of stream (server
    /// shutdown: the connection closing under proto 1, the stream's one
    /// non-push frame under proto 2) surfaces as [`ClientError::Io`] with
    /// [`io::ErrorKind::UnexpectedEof`].
    ///
    /// # Errors
    ///
    /// Fails on socket errors, truncated or non-`push` lines, and frames
    /// whose payload fields do not decode.
    // Not `Iterator`: errors are fatal here (`Result`, not `Option`), and
    // the blocking-pull call-site reads better as an explicit method.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> ClientResult<Push> {
        let line = match &mut self.inner {
            SubscriptionInner::Line { reader } => {
                let mut line = String::new();
                let n = (&mut *reader).take(MAX_LINE_BYTES).read_line(&mut line)?;
                if n == 0 {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "subscription ended",
                    )));
                }
                if !line.ends_with('\n') {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "push frame truncated",
                    )));
                }
                line
            }
            SubscriptionInner::Mux { rx, .. } => {
                // The stream's last frame is its one non-push frame.
                let frame = rx
                    .recv()
                    .ok()
                    .filter(|frame| frame.flags & FLAG_PUSH != 0)
                    .ok_or_else(|| {
                        ClientError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "subscription ended",
                        ))
                    })?;
                frame.to_line().map_err(|e| {
                    ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                })?
            }
        };
        parse_push(&line)
    }
}

/// Decodes one `push seq=… data=… journal=…` telemetry line (shared by
/// both subscription transports).
fn parse_push(line: &str) -> ClientResult<Push> {
    let (verb, fields) = tokenize(line)?;
    if verb != "push" {
        return Err(ClientError::Malformed("push frame verb"));
    }
    let resp = Response::Ok(fields);
    let metrics = snn_obs::Snapshot::parse(&hex_text(&resp, "data")?)
        .map_err(|_| ClientError::Malformed("push metrics"))?;
    let journal = snn_obs::JournalSnapshot::parse(&hex_text(&resp, "journal")?)
        .map_err(|_| ClientError::Malformed("push journal"))?;
    Ok(Push {
        seq: field(&resp, "seq")?,
        metrics,
        journal,
    })
}

/// A reply's hex-encoded text field, decoded; a missing, non-hex or
/// non-UTF-8 field is [`ClientError::Malformed`] naming the field.
fn hex_text(resp: &Response, key: &'static str) -> ClientResult<String> {
    let hex = resp.get(key).ok_or(ClientError::Malformed(key))?;
    let bytes = hex_decode(hex).map_err(|_| ClientError::Malformed(key))?;
    String::from_utf8(bytes).map_err(|_| ClientError::Malformed(key))
}

fn wire_report(resp: &Response) -> ClientResult<WireReport> {
    Ok(WireReport {
        samples: field(resp, "samples")?,
        accuracy: field(resp, "accuracy")?,
        forgetting: field(resp, "forgetting")?,
        drift_events: field(resp, "drifts")?,
        spikes_per_sample: field(resp, "spikes_per_sample")?,
    })
}

fn field<T: std::str::FromStr>(resp: &Response, key: &'static str) -> ClientResult<T> {
    resp.get(key)
        .ok_or(ClientError::Malformed(key))?
        .parse::<T>()
        .map_err(|_| ClientError::Malformed(key))
}
