//! Proto 2 connection multiplexing (`DESIGN.md` §13).
//!
//! One negotiated socket carries many in-flight requests at once: every
//! request [`Frame`] names itself with a client-chosen tag, responses
//! echo the tag, and `subscribe` streams arrive as server-initiated
//! [`FLAG_PUSH`] frames on the subscription's tag. This replaces
//! thread-per-connection fan-out on the relay path: a routing tier keeps
//! **one** connection per shard and interleaves session traffic,
//! checkpoint blobs, shadow pushes, and migrations over it.
//!
//! The server half ([`run_mux`]) is tier-agnostic: it serves whatever
//! implements [`MuxHost`], the host trait of the whole connection front
//! end ([`crate::front`]), so the session server and the cluster router
//! share this loop, its flow-control policy and the subscription stream
//! verbatim.
//!
//! Flow control / slow-reader policy: at most [`MAX_INFLIGHT`] requests
//! are being served per connection — the reader stops pulling frames
//! when the window is full, so a flooding client is throttled by TCP
//! backpressure, not by unbounded thread growth. A subscription stream
//! holds its tag for its whole life and counts against [`MAX_STREAMS`]
//! instead; a `subscribe` past that bound is refused on its tag, because
//! a stream never frees its slot. A stream's pushes never stall response
//! traffic: a subscriber that lags drops its own pushes (see
//! [`crate::front`]), and its last frame is one non-push frame on its
//! tag.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use snn_obs::{Counter, JournalSnapshot};

use crate::frame::{line_to_frame, Frame, FrameError, FLAG_PUSH, HEADER_BYTES};
use crate::front::{verb, Stream};
use crate::protocol::{format_response, Response, PROTO_V2};

/// Cap on concurrently served requests per multiplexed connection.
pub const MAX_INFLIGHT: usize = 64;

/// Cap on concurrently open subscription streams per multiplexed
/// connection. Each stream keeps its threads until shutdown or
/// disconnect, so a `subscribe` past the cap is refused, never queued.
pub const MAX_STREAMS: usize = 8;

/// Wire size of a frame (header + body + checksum), for byte accounting.
fn wire_len(frame: &Frame) -> u64 {
    (HEADER_BYTES + frame.head.len() + frame.payload.len() + 4) as u64
}

/// What a tier plugs into the connection front end ([`crate::front`]
/// and [`run_mux`]). Implemented by the session server and the cluster
/// router, which differ only in how a request line is answered, which
/// exposition a push carries, and which counters and spans are recorded.
pub trait MuxHost: Send + Sync + 'static {
    /// Serves one request line that arrived under protocol generation
    /// `proto` (`PROTO_VERSION` on the line loop, [`PROTO_V2`] on a
    /// multiplexed connection) and hands its reply line (no trailing
    /// newline) to `reply`, exactly once. Under proto 1 `reply` writes
    /// the socket, so a host can time it as the request's write phase;
    /// under proto 2 it hands the line to the demux, whose writer thread
    /// frames it. `hello` and `subscribe` lines arrive here too: the
    /// front end upgrades a line connection whose `hello` was answered
    /// `ok proto=2`, and streams for a `subscribe` answered with
    /// [`crate::front::subscribe_ack`]. Must never panic on hostile
    /// input.
    ///
    /// # Errors
    ///
    /// Returns the error `reply` returned (the client is gone).
    fn handle_line(
        &self,
        line: &str,
        proto: u32,
        reply: &mut dyn FnMut(String) -> io::Result<()>,
    ) -> io::Result<()>;

    /// The metrics exposition a subscription push carries.
    fn exposition(&self) -> String;

    /// The host's flight-recorder journal. A push carries the events
    /// born since the previous push.
    fn journal(&self) -> JournalSnapshot;

    /// Whether the host is draining: the accept loop stops and
    /// subscription streams end.
    fn is_shutdown(&self) -> bool;

    /// Registers a new subscription stream: the host's aggregate drop
    /// counter, and a drop counter of the stream's own that exists from
    /// now on, so even a drop-free subscriber shows in the scrape.
    fn subscriber(&self) -> (Arc<Counter>, Arc<Counter>);

    /// Byte accounting hook: `rx_bytes` arrived and `tx_bytes` left
    /// under protocol generation `proto` (whole lines under proto 1,
    /// whole frames under proto 2).
    fn on_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        let _ = (proto, rx_bytes, tx_bytes);
    }

    /// Demux queue-wait hook: `line`'s frame waited `waited` for a slot
    /// in the in-flight window before being served (zero when the window
    /// had room). Hosts turn this into the request trace's `demux_wait`
    /// phase when the line carries a rid.
    fn on_queue_wait(&self, line: &str, waited: Duration) {
        let _ = (line, waited);
    }

    /// Flow-control sample: how many tags are currently being served and
    /// how many outbound frames sit in the writer queue. Called at every
    /// demux/complete/write step; hosts publish the numbers as gauges.
    fn on_flow(&self, tags_in_flight: u64, writer_queue: u64) {
        let _ = (tags_in_flight, writer_queue);
    }
}

/// The outbound frame channel plus its depth counter: every enqueue and
/// the writer thread's dequeues keep `depth` equal to the frames queued
/// but not yet written, so hosts can publish writer-queue pressure.
#[derive(Clone)]
struct Outbound {
    tx: mpsc::SyncSender<Frame>,
    depth: Arc<AtomicU64>,
}

impl Outbound {
    fn send(&self, frame: Frame) -> Result<(), mpsc::SendError<Frame>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// The in-flight window of one connection. A request holds its tag (for
/// duplicate detection) until its response is complete, and its window
/// slot until that response is queued for the writer: the client may
/// reuse a tag as soon as the response lands, while a handler blocked
/// on a slow reader still counts against [`MAX_INFLIGHT`]. A
/// subscription stream holds its tag for its whole life and counts
/// against [`MAX_STREAMS`] instead.
#[derive(Default)]
struct Window {
    tags: HashSet<u32>,
    serving: usize,
    streams: usize,
}

/// Serves one upgraded (post-`hello`) proto 2 connection until the peer
/// disconnects: demultiplexes request frames, fans them out to worker
/// threads bounded by [`MAX_INFLIGHT`], runs each `subscribe` as a
/// stream bounded by [`MAX_STREAMS`], and serialises tagged response
/// and push frames through one writer thread.
///
/// Takes the connection's existing buffered reader (bytes a client
/// pipelined behind its `hello` line must not be lost in the upgrade)
/// plus the writable stream.
///
/// # Errors
///
/// Returns the socket error that ended the connection; a clean client
/// disconnect is `Ok(())`.
pub fn run_mux<R: io::Read, H: MuxHost>(
    mut reader: R,
    stream: TcpStream,
    host: Arc<H>,
) -> io::Result<()> {
    let (raw_tx, out_rx) = mpsc::sync_channel::<Frame>(MAX_INFLIGHT);
    let out_tx = Outbound {
        tx: raw_tx,
        depth: Arc::new(AtomicU64::new(0)),
    };
    let inflight = Arc::new((Mutex::new(Window::default()), Condvar::new()));
    let writer_thread = {
        let depth = Arc::clone(&out_tx.depth);
        let inflight = Arc::clone(&inflight);
        let host = Arc::clone(&host);
        std::thread::spawn(move || {
            let mut writer = BufWriter::new(stream);
            for frame in out_rx {
                let queued = depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                let serving = inflight.0.lock().expect("inflight lock").serving as u64;
                host.on_flow(serving, queued);
                if writer
                    .write_all(&frame.encode())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    // The socket is gone: drain (and drop) remaining frames
                    // so senders never block on a dead connection.
                    break;
                }
            }
        })
    };
    let result = loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break Ok(()),
            Err(e) if e.is_recoverable() => {
                // Framing is still aligned: answer on tag 0 (the tag is
                // unknowable for a head that failed to decode) and keep
                // serving other in-flight work.
                let resp = Response::error("bad-frame", e.to_string());
                let _ = out_tx.send(line_to_frame(&format_response(&resp), 0, 0));
                continue;
            }
            Err(FrameError::Io(e)) => break Err(e),
            Err(e) => {
                // Desynced or hostile stream: one best-effort error
                // frame, then close — later bytes cannot be trusted.
                let resp = Response::error("bad-frame", e.to_string());
                let _ = out_tx.send(line_to_frame(&format_response(&resp), 0, 0));
                break Ok(());
            }
        };
        if frame.flags & FLAG_PUSH != 0 {
            let resp = Response::error("bad-frame", "push flag is server-initiated only");
            let _ = out_tx.send(line_to_frame(&format_response(&resp), frame.tag, 0));
            continue;
        }
        let rx_bytes = wire_len(&frame);
        let stream = verb(&frame.head) == "subscribe";
        let waited;
        {
            let (window, cv) = &*inflight;
            let mut window = window.lock().expect("inflight lock");
            let refusal = if window.tags.contains(&frame.tag) {
                Some(Response::error(
                    "duplicate-tag",
                    format!("tag {} is already in flight", frame.tag),
                ))
            } else if stream && window.streams >= MAX_STREAMS {
                Some(Response::error(
                    "admission",
                    format!("connection already carries {MAX_STREAMS} subscription streams"),
                ))
            } else {
                None
            };
            if let Some(resp) = refusal {
                drop(window);
                let _ = out_tx.send(line_to_frame(&format_response(&resp), frame.tag, 0));
                continue;
            }
            window.tags.insert(frame.tag);
            if stream {
                window.streams += 1;
                waited = Duration::ZERO;
            } else {
                // The flow-control window: stop pulling frames until a
                // slot frees up. The kernel's receive buffer then fills
                // and the client blocks in its own write — backpressure,
                // not OOM. Time spent here is the request's demux
                // queue-wait.
                let wait0 = std::time::Instant::now();
                while window.serving >= MAX_INFLIGHT {
                    window = cv.wait(window).expect("inflight lock");
                }
                waited = wait0.elapsed();
                window.serving += 1;
                host.on_flow(window.serving as u64, out_tx.depth.load(Ordering::Relaxed));
            }
        }
        let host = Arc::clone(&host);
        let out_tx = out_tx.clone();
        let inflight = Arc::clone(&inflight);
        std::thread::spawn(move || {
            let tag = frame.tag;
            let mut reply = String::new();
            let mut opened = None;
            // Cannot fail: the frames are queued below.
            let mut keep = |line: String| -> io::Result<()> {
                reply = line;
                Ok(())
            };
            match frame.to_line() {
                Ok(line) if stream => {
                    opened = Stream::open(&*host, &line, PROTO_V2, &mut keep)
                        .ok()
                        .flatten();
                }
                Ok(line) => {
                    host.on_queue_wait(&line, waited);
                    let _ = host.handle_line(&line, PROTO_V2, &mut keep);
                }
                Err(e) => reply = format_response(&Response::error("bad-frame", e.to_string())),
            }
            let mut last = line_to_frame(&reply, tag, 0);
            host.on_wire(PROTO_V2, rx_bytes, wire_len(&last));
            if let Some(stream) = opened {
                // After the ack, pushes until shutdown or disconnect; the
                // stream's last frame is one non-push frame, queued even
                // behind a full queue: without it the subscriber would
                // wait on the tag forever.
                if out_tx.send(last).is_ok() {
                    stream.run(&*host, |push| {
                        let push = line_to_frame(&push, tag, FLAG_PUSH);
                        let tx_bytes = wire_len(&push);
                        out_tx.send(push).map_err(|_| io::ErrorKind::BrokenPipe)?;
                        host.on_wire(PROTO_V2, 0, tx_bytes);
                        Ok(())
                    });
                }
                let end = Response::error("shutdown", "the subscription ended");
                last = line_to_frame(&format_response(&end), tag, 0);
                host.on_wire(PROTO_V2, 0, wire_len(&last));
            }
            // Retire the tag before the last frame is queued, and the
            // slot only after: `send` blocks while the writer is stalled
            // on a slow reader, and the reader must stall too.
            let (window, cv) = &*inflight;
            window.lock().expect("inflight lock").tags.remove(&tag);
            let _ = out_tx.send(last);
            let remaining = {
                let mut window = window.lock().expect("inflight lock");
                if stream {
                    window.streams -= 1;
                } else {
                    window.serving -= 1;
                }
                window.serving as u64
            };
            cv.notify_one();
            host.on_flow(remaining, out_tx.depth.load(Ordering::Relaxed));
        });
    };
    drop(out_tx);
    // Worker and stream threads hold channel clones; the writer exits
    // once the last of them finishes (or immediately on socket death).
    let _ = writer_thread.join();
    result
}

/// The client half of a multiplexed connection: one writer, one reader
/// thread, and a tagged in-flight table routing each response (and each
/// push stream) to its caller. Cheap to share — a routing tier keeps one
/// `Arc<MuxClient>` per shard and issues concurrent calls over it.
#[derive(Debug)]
pub struct MuxClient {
    writer: Mutex<TcpStream>,
    pending: Arc<Mutex<HashMap<u32, Pending>>>,
    next_tag: AtomicU32,
    dead: Arc<AtomicBool>,
    tx_bytes: AtomicU64,
    rx_bytes: Arc<AtomicU64>,
    /// Deadline applied to each call's response wait (the socket itself
    /// carries no read timeout — the reader thread must block
    /// indefinitely between frames on an idle connection).
    reply_timeout: Option<Duration>,
}

impl MuxClient {
    /// Wraps an already-negotiated (post-`hello ok proto=2`) socket.
    /// Spawns the demultiplexing reader thread; it exits when the socket
    /// dies or this client is dropped.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from cloning/configuring the stream.
    pub fn new(stream: TcpStream, reply_timeout: Option<Duration>) -> io::Result<Arc<MuxClient>> {
        // An inherited read timeout would make the reader thread treat an
        // idle-but-healthy connection as dead; deadlines are enforced
        // per-call via `reply_timeout` instead.
        stream.set_read_timeout(None)?;
        let read_half = stream.try_clone()?;
        let pending = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let rx_bytes = Arc::new(AtomicU64::new(0));
        let client = Arc::new(MuxClient {
            writer: Mutex::new(stream),
            pending: Arc::clone(&pending),
            next_tag: AtomicU32::new(1),
            dead: Arc::clone(&dead),
            tx_bytes: AtomicU64::new(0),
            rx_bytes: Arc::clone(&rx_bytes),
            reply_timeout,
        });
        // The reader holds only the shared maps, never the Arc<MuxClient>
        // itself — otherwise Drop (which closes the socket to unblock
        // this very thread) could never run.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            // An error or clean EOF both end the reader the same way.
            while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
                rx_bytes.fetch_add(wire_len(&frame), Ordering::Relaxed);
                let mut map = pending.lock().expect("pending lock");
                let tag = frame.tag;
                if let Some(waiter) = map.get_mut(&tag) {
                    // A response retires its tag here. A stream keeps its
                    // tag through its `ok` ack and its pushes; its next
                    // non-push frame (a refusal or the end) retires it.
                    let keep = frame.flags & FLAG_PUSH != 0
                        || std::mem::take(&mut waiter.opens_stream) && frame.head.starts_with("ok");
                    if waiter.tx.send(frame).is_err() || !keep {
                        map.remove(&tag);
                    }
                }
                // Unknown tags are late responses for callers that
                // already timed out: dropped silently.
            }
            dead.store(true, Ordering::SeqCst);
            // Dropping every sender unblocks all waiting callers with a
            // disconnect error.
            pending.lock().expect("pending lock").clear();
        });
        Ok(client)
    }

    /// Whether the connection has died (reader thread exited).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Total bytes written to / read from the socket, frame overhead
    /// included.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (
            self.tx_bytes.load(Ordering::Relaxed),
            self.rx_bytes.load(Ordering::Relaxed),
        )
    }

    fn alloc_tag(&self) -> u32 {
        // Tag 0 is reserved for connection-level errors from the server.
        loop {
            let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
            if tag != 0 {
                return tag;
            }
        }
    }

    fn send_line(&self, line: &str, tag: u32) -> io::Result<u64> {
        let bytes = line_to_frame(line, tag, 0).encode();
        let mut writer = self.writer.lock().expect("writer lock");
        writer.write_all(&bytes)?;
        writer.flush()?;
        self.tx_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.len() as u64)
    }

    fn recv(&self, rx: &mpsc::Receiver<Frame>, tag: u32) -> io::Result<Frame> {
        let frame = match self.reply_timeout {
            Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    // Retire the tag so a late response is not
                    // misdelivered to a future call reusing the slot.
                    self.pending.lock().expect("pending lock").remove(&tag);
                    io::Error::new(io::ErrorKind::TimedOut, "mux reply timed out")
                }
                mpsc::RecvTimeoutError::Disconnected => disconnected(),
            })?,
            None => rx.recv().map_err(|_| disconnected())?,
        };
        Ok(frame)
    }

    /// Sends one already-formatted request line and blocks for its
    /// tagged response line — the multiplexed analogue of a line
    /// transport's write-then-read, safe to call from many threads at
    /// once.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, connection death, reply timeout, and
    /// undecodable response frames.
    pub fn call_line(&self, line: &str) -> io::Result<String> {
        self.call_line_counted(line).map(|(reply, _, _)| reply)
    }

    /// [`MuxClient::call_line`] plus this call's exact wire cost:
    /// `(reply, tx_bytes, rx_bytes)` measured on the frames actually
    /// sent and received (header and checksum included) — what a relay
    /// tier feeds into its per-protocol byte counters.
    ///
    /// # Errors
    ///
    /// Fails as [`MuxClient::call_line`] does.
    pub fn call_line_counted(&self, line: &str) -> io::Result<(String, u64, u64)> {
        let (reply, _, sent, received) = self.exchange(line, false)?;
        Ok((reply, sent, received))
    }

    /// Starts a subscription stream: sends the `subscribe` line and
    /// returns the ack line plus a receiver of the frames that follow on
    /// the subscription's tag: pushes, then one non-push frame when the
    /// stream ends.
    ///
    /// # Errors
    ///
    /// Fails as [`MuxClient::call_line`] does on the handshake.
    pub fn subscribe_line(&self, line: &str) -> io::Result<(String, mpsc::Receiver<Frame>)> {
        let (ack, rx, _, _) = self.exchange(line, true)?;
        Ok((ack, rx))
    }

    /// Sends `line` on a fresh tag and waits for the tag's first frame:
    /// its line, the receiver of the tag's later frames, and the bytes
    /// sent and received.
    fn exchange(
        &self,
        line: &str,
        opens_stream: bool,
    ) -> io::Result<(String, mpsc::Receiver<Frame>, u64, u64)> {
        if self.is_dead() {
            return Err(disconnected());
        }
        let tag = self.alloc_tag();
        let (tx, rx) = mpsc::channel();
        let waiter = Pending { tx, opens_stream };
        self.pending
            .lock()
            .expect("pending lock")
            .insert(tag, waiter);
        let sent = self.send_line(line, tag).inspect_err(|_| {
            self.pending.lock().expect("pending lock").remove(&tag);
        })?;
        let frame = self.recv(&rx, tag)?;
        let received = wire_len(&frame);
        let reply = frame
            .to_line()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((reply, rx, sent, received))
    }
}

/// A caller waiting for frames on one tag.
#[derive(Debug)]
struct Pending {
    tx: mpsc::Sender<Frame>,
    /// The tag carries a `subscribe`, whose `ok` ack must not retire it.
    opens_stream: bool,
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Unblocks the reader thread (it holds only a socket clone).
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(Shutdown::Both);
        }
    }
}

fn disconnected() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "multiplexed connection closed",
    )
}
