//! One backend shard: its address, liveness, its relay channel, and —
//! for shards the cluster spawned itself — the owned in-process
//! [`SnnServer`].
//!
//! The router reaches a shard in exactly two ways. The data plane —
//! session traffic, checkpoint blobs, shadow pushes and migrations —
//! rides **one** shared multiplexed proto 2 connection
//! ([`snn_serve::MuxClient`]) over which every router thread interleaves
//! its requests. Everything else — health probes and the cluster-wide
//! fan-out scrapes — is one deadline-bounded round trip on a dedicated
//! socket ([`Backend::call_with_deadline`]). The relay connection
//! performs the `hello proto=2` handshake, so a shard that does not speak
//! proto 2 is refused at attach time ([`ClusterError::ProtoMismatch`]),
//! never silently misparsed.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use snn_serve::{ClientError, MuxClient, ServeClient, ServerConfig, SnnServer, PROTO_V2};

use crate::obs::WireObs;
use crate::ring::ShardId;
use crate::ClusterError;

/// Health probes get their own short deadline: a probe exists to answer
/// "is this shard responsive?", so it must never block the health thread
/// behind a stalled-but-connected peer.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

#[derive(Debug)]
pub(crate) struct Backend {
    pub(crate) id: ShardId,
    pub(crate) addr: SocketAddr,
    alive: AtomicBool,
    /// The shared multiplexed relay connection (`None` from a failure
    /// until the next call reconnects, and once the shard is dead).
    mux: Mutex<Option<Arc<MuxClient>>>,
    /// Shard-facing byte counters (`cluster.relay.p2.*`).
    wire: WireObs,
    /// Bound on every data-plane read/write to this shard (`None`
    /// blocks forever). Keeps a stalled shard from hanging router
    /// connection threads indefinitely.
    io_timeout: Option<Duration>,
    /// Whether the shard advertised eviction support (`evict=1` in its
    /// hello banner). Budgeted sessions are refused placement on shards
    /// that could never enforce the budget.
    supports_evict: AtomicBool,
    /// Present only for shards spawned in-process by the cluster.
    server: Mutex<Option<SnnServer>>,
}

impl Backend {
    /// Starts a fresh in-process `snn-serve` shard on an ephemeral port
    /// and attaches to it.
    pub(crate) fn spawn(
        id: ShardId,
        config: ServerConfig,
        io_timeout: Option<Duration>,
        wire: WireObs,
    ) -> Result<Backend, ClusterError> {
        let server = SnnServer::start("127.0.0.1:0", config).map_err(ClusterError::Io)?;
        Backend::new(id, server.local_addr(), Some(server), io_timeout, wire)
    }

    /// Attaches to an already-running shard, verifying the protocol
    /// handshake before admitting it to the cluster.
    pub(crate) fn attach(
        id: ShardId,
        addr: SocketAddr,
        io_timeout: Option<Duration>,
        wire: WireObs,
    ) -> Result<Backend, ClusterError> {
        Backend::new(id, addr, None, io_timeout, wire)
    }

    /// Opens the relay connection (refusing shards that do not speak
    /// proto 2) and reads the shard's capabilities off its banner once
    /// more — the connect handshake discards its fields.
    fn new(
        id: ShardId,
        addr: SocketAddr,
        server: Option<SnnServer>,
        io_timeout: Option<Duration>,
        wire: WireObs,
    ) -> Result<Backend, ClusterError> {
        let backend = Backend {
            id,
            addr,
            alive: AtomicBool::new(true),
            mux: Mutex::new(None),
            wire,
            io_timeout,
            supports_evict: AtomicBool::new(false),
            server: Mutex::new(server),
        };
        let (mux, _) = backend.mux_handle()?;
        if let Ok(banner) = mux.call_line(&format!("hello proto={PROTO_V2}")) {
            if let Ok(resp) = snn_serve::protocol::parse_response(&banner) {
                backend
                    .supports_evict
                    .store(resp.get("evict") == Some("1"), Ordering::SeqCst);
            }
        }
        Ok(backend)
    }

    /// Whether the shard advertised eviction support at attach time.
    pub(crate) fn supports_evict(&self) -> bool {
        self.supports_evict.load(Ordering::SeqCst)
    }

    fn lift(&self, attempt: Result<ServeClient, ClientError>) -> Result<ServeClient, ClusterError> {
        match attempt {
            Ok(client) => Ok(client),
            Err(ClientError::Server { code, msg }) if code == "proto-mismatch" => {
                Err(ClusterError::ProtoMismatch {
                    shard: self.id,
                    detail: msg,
                })
            }
            Err(ClientError::Io(_)) => Err(ClusterError::ShardDown(self.id)),
            Err(other) => Err(ClusterError::Backend {
                shard: self.id,
                detail: other.to_string(),
            }),
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Flags the shard dead and drops its relay connection. Requests
    /// routed here now fail fast with [`ClusterError::ShardDown`].
    pub(crate) fn mark_dead(&self) {
        self.alive.store(false, Ordering::SeqCst);
        *self.mux.lock().expect("backend mux poisoned") = None;
    }

    /// Forwards one raw request line over the shared relay connection and
    /// returns the raw response line. With `idempotent`, a failure on a
    /// *reused* connection (which may have gone stale between calls) is
    /// retried once on a fresh one. Non-idempotent lines (`ingest`,
    /// `open`, `swap`, …) are **never** resent: a connection that died
    /// after the shard applied the request would make a blind retry apply
    /// it twice, silently forking the session's state — the caller
    /// surfaces the error and lets the client decide.
    pub(crate) fn call_raw(&self, line: &str, idempotent: bool) -> Result<String, ClusterError> {
        let line = line.trim_end_matches('\n');
        let mut retried = false;
        loop {
            let (mux, fresh) = self.mux_handle()?;
            match mux.call_line_counted(line) {
                Ok((reply, tx, rx)) => {
                    self.wire.count(rx, tx);
                    self.wire.count_payload(line, &reply);
                    return Ok(reply);
                }
                Err(_) if !fresh && idempotent && !retried => {
                    retried = true;
                    // A reused channel is not trusted after a failure:
                    // drop the shared handle (in-flight callers holding
                    // their own `Arc` finish undisturbed; the socket
                    // closes with the last clone).
                    self.clear_mux(&mux);
                    continue;
                }
                Err(e) => {
                    if mux.is_dead() {
                        self.clear_mux(&mux);
                    }
                    return Err(ClusterError::Backend {
                        shard: self.id,
                        detail: e.to_string(),
                    });
                }
            }
        }
    }

    /// Takes the shared multiplexed connection, reconnecting when it is
    /// missing or dead. The boolean is `true` when the connection was
    /// freshly established by this call.
    fn mux_handle(&self) -> Result<(Arc<MuxClient>, bool), ClusterError> {
        if !self.is_alive() {
            return Err(ClusterError::ShardDown(self.id));
        }
        let mut guard = self.mux.lock().expect("backend mux poisoned");
        if let Some(mux) = guard.as_ref() {
            if !mux.is_dead() {
                return Ok((Arc::clone(mux), false));
            }
            *guard = None;
        }
        let client = self.lift(match self.io_timeout {
            Some(timeout) => ServeClient::connect_with_proto_timeout(self.addr, PROTO_V2, timeout),
            None => ServeClient::connect_with_proto(self.addr, PROTO_V2),
        })?;
        let mux = client.mux().ok_or_else(|| ClusterError::Backend {
            shard: self.id,
            detail: "proto 2 negotiated without a multiplexed transport".to_string(),
        })?;
        *guard = Some(Arc::clone(&mux));
        Ok((mux, true))
    }

    /// Drops the shared handle iff it still points at `mux` (a
    /// concurrent caller may already have replaced it).
    fn clear_mux(&self, mux: &Arc<MuxClient>) {
        let mut guard = self.mux.lock().expect("backend mux poisoned");
        if guard.as_ref().is_some_and(|m| Arc::ptr_eq(m, mux)) {
            *guard = None;
        }
    }

    /// One request/reply round trip on a dedicated connection with
    /// `deadline` bounding connect, write and read separately — the
    /// health probe and the router's fan-out scrapes, where a slow shard
    /// must cost its caller at most the deadline, never the data-plane
    /// `io_timeout`. It skips the `hello` handshake (the server answers
    /// any verb without one) and returns `None` on any transport failure.
    pub(crate) fn call_with_deadline(&self, line: &str, deadline: Duration) -> Option<String> {
        let mut stream = TcpStream::connect_timeout(&self.addr, deadline).ok()?;
        stream.set_read_timeout(Some(deadline)).ok()?;
        stream.set_write_timeout(Some(deadline)).ok()?;
        stream.write_all(line.trim_end().as_bytes()).ok()?;
        stream.write_all(b"\n").ok()?;
        stream.flush().ok()?;
        let mut reply = String::new();
        match BufReader::new(stream).read_line(&mut reply) {
            Ok(n) if n > 0 => Some(reply.trim_end().to_string()),
            _ => None,
        }
    }

    /// Health probe: one `ping` round trip under a short deadline, so a
    /// stalled-but-connected shard reads as unhealthy instead of hanging
    /// the health thread (and with it all failure detection).
    pub(crate) fn ping(&self) -> bool {
        self.call_with_deadline("ping", PROBE_TIMEOUT)
            .is_some_and(|reply| reply.starts_with("ok"))
    }

    /// Stops an owned in-process server (no-op for attached shards) and
    /// marks the shard dead.
    pub(crate) fn stop(&self) {
        self.mark_dead();
        if let Some(server) = self.server.lock().expect("backend server poisoned").take() {
            server.shutdown();
        }
    }
}
