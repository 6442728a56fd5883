//! The connection front end both tiers run (`DESIGN.md` §8): one accept
//! loop, one proto 1 line loop and one subscription stream.
//!
//! The session server and the cluster router differ only in what a
//! [`MuxHost`] says: how a request line is answered (and whether that
//! mints a request id), which exposition a push carries, and which
//! counters and spans are recorded. Everything about the socket is here:
//!
//! * [`accept_loop`] gives every accepted socket its own connection
//!   thread, which starts in the proto 1 line protocol.
//! * The line loop reads at most [`MAX_LINE_BYTES`] per line and never
//!   dispatches a truncated one. A `hello` the host answers with `ok
//!   proto=2` upgrades the connection to [`run_mux`]; a `subscribe` the
//!   host answers with `ok interval_ms=` ([`subscribe_ack`]) turns it
//!   into a push stream that never returns to request/reply.
//! * A subscription stream is the same under both protocols: the journal
//!   cursor is taken before the ack goes out, a sampler thread renders one
//!   `push seq= data= journal=` line per interval into a channel of
//!   `SUBSCRIBE_BUFFER` lines, and a full channel drops the line
//!   and bills it to the host's aggregate and per-subscriber drop
//!   counters. Only the sink that drains the channel differs: lines on
//!   the proto 1 socket, or `FLAG_PUSH` frames on the mux's outbound
//!   queue.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::mux::{run_mux, MuxHost};
use crate::protocol::{
    format_response, hex_encode, parse_response, Response, MAX_LINE_BYTES, PROTO_V2, PROTO_VERSION,
};

/// How many rendered push lines a subscription buffers between its
/// sampler and its sink. A consumer that falls further behind loses
/// lines, counted in the host's drop counters, instead of backing the
/// sampler up.
const SUBSCRIBE_BUFFER: usize = 8;

/// Accepts connections until the host shuts down, serving each on its
/// own thread. The listener must be nonblocking, so that the loop sees
/// the shutdown while the port is idle.
pub fn accept_loop<H: MuxHost>(listener: TcpListener, host: Arc<H>) {
    while !host.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is nonblocking; connections must block on
                // reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let host = Arc::clone(&host);
                // Connection threads are detached: they exit on client
                // disconnect, and a draining host answers the requests
                // that still arrive.
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, host);
                });
            }
            // Accept errors are all transient from this loop's point of
            // view (WouldBlock on an idle listener, ECONNABORTED from a
            // client resetting mid-handshake, EMFILE under fd pressure):
            // back off and keep serving — only the shutdown ends the
            // loop. Exiting here would silently stop accepting while the
            // rest of the tier looks healthy.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The `ok interval_ms=` ack that grants a subscription, its requested
/// interval clamped to 10–10,000 ms. Both tiers answer a well-formed
/// `subscribe` with it (`parse_request` owns the interval rule: a bare
/// `subscribe` asks for 100 ms, a malformed value is a `bad-request`).
pub fn subscribe_ack(interval_ms: u64) -> Response {
    Response::ok([("interval_ms", interval_ms.clamp(10, 10_000).to_string())])
}

/// Serves one connection until EOF or a socket error. Every byte this
/// loop writes, the upgrading `hello` banner and the oversize-line error
/// included, is proto 1 traffic in the host's wire counters.
fn serve_connection<H: MuxHost>(stream: TcpStream, host: Arc<H>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        let n = (&mut reader).take(MAX_LINE_BYTES).read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // client closed the connection
        }
        host.on_wire(PROTO_VERSION, n as u64, 0);
        if !line.ends_with('\n') {
            // The line is incomplete: either it hit the size cap, or the
            // client died mid-send and this is the truncated tail before
            // EOF. Never dispatch a truncated line — a cut-short
            // `close id=session-10` parses as `close id=session-1`.
            if n as u64 == MAX_LINE_BYTES {
                let err = Response::error("bad-request", "line exceeds the protocol size limit");
                write_line(&mut writer, &*host, format_response(&err))?;
            }
            return Ok(());
        }
        match verb(&line) {
            "hello" => {
                let mut upgrade = false;
                host.handle_line(&line, PROTO_VERSION, &mut |banner| {
                    upgrade = ok_number(&banner, "proto").is_some_and(|p| p >= u64::from(PROTO_V2));
                    write_line(&mut writer, &*host, banner)
                })?;
                if upgrade {
                    return run_mux(reader, writer, host);
                }
            }
            "subscribe" => {
                let opened = Stream::open(&*host, &line, PROTO_VERSION, &mut |ack| {
                    write_line(&mut writer, &*host, ack)
                })?;
                if let Some(stream) = opened {
                    // The connection thread is the stream's sink; the
                    // connection closes when the stream ends, which the
                    // subscriber reads as a clean end of stream.
                    stream.run(&*host, |push| write_line(&mut writer, &*host, push));
                    return Ok(());
                }
            }
            _ => host.handle_line(&line, PROTO_VERSION, &mut |reply| {
                write_line(&mut writer, &*host, reply)
            })?,
        }
    }
}

/// A line's verb, by the tokenizer's rule: everything before the first
/// space.
pub(crate) fn verb(line: &str) -> &str {
    let line = line.trim_end_matches(['\r', '\n']);
    line.split(' ').next().unwrap_or(line)
}

/// The numeric `key` field of an `ok` reply: the generation a `hello`
/// banner agrees on, or the interval a `subscribe` ack grants.
fn ok_number(reply: &str, key: &str) -> Option<u64> {
    parse_response(reply).ok()?.get(key)?.parse().ok()
}

/// Writes one line on a proto 1 socket and counts it as proto 1 tx.
fn write_line<H: MuxHost>(writer: &mut TcpStream, host: &H, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    host.on_wire(PROTO_VERSION, 0, line.len() as u64);
    Ok(())
}

/// A granted subscription stream.
pub(crate) struct Stream {
    interval: Duration,
    /// The journal total the next push's delta starts from.
    cursor: u64,
    /// The host's aggregate drop counter and this stream's own.
    drops: (Arc<snn_obs::Counter>, Arc<snn_obs::Counter>),
}

impl Stream {
    /// Answers a `subscribe` line through the host, handing the answer to
    /// `send`, and returns the stream when the host granted it. The
    /// journal cursor is taken before the ack goes out: an event the
    /// client causes after reading the ack must reach a push.
    pub(crate) fn open<H: MuxHost>(
        host: &H,
        line: &str,
        proto: u32,
        send: &mut dyn FnMut(String) -> io::Result<()>,
    ) -> io::Result<Option<Stream>> {
        let cursor = host.journal().total;
        let mut granted = None;
        host.handle_line(line, proto, &mut |ack| {
            if let Some(ms) = ok_number(&ack, "interval_ms") {
                // Registered before the ack, so the subscriber's drop
                // counter is in every scrape the client can ask for.
                granted = Some((ms, host.subscriber()));
            }
            send(ack)
        })?;
        Ok(granted.map(|(ms, drops)| Stream {
            interval: Duration::from_millis(ms),
            cursor,
            drops,
        }))
    }

    /// Streams until the host shuts down or `sink` fails (the subscriber
    /// is gone). A sampler thread renders one push line per interval and
    /// offers it to a bounded channel, never blocking on the subscriber;
    /// this thread drains the channel into `sink`.
    pub(crate) fn run<H: MuxHost>(
        mut self,
        host: &H,
        mut sink: impl FnMut(String) -> io::Result<()>,
    ) {
        let (tx, rx) = mpsc::sync_channel::<String>(SUBSCRIBE_BUFFER);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut seq = 0u64;
                loop {
                    // Nap in small slices, so that a shutdown never waits
                    // out a long interval.
                    let wake = Instant::now() + self.interval;
                    while !host.is_shutdown() && Instant::now() < wake {
                        let left = wake.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(Duration::from_millis(20)));
                    }
                    if host.is_shutdown() {
                        return; // dropping tx ends the drain below
                    }
                    let line = push_line(host, seq, &mut self.cursor);
                    seq += 1;
                    match tx.try_send(line) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(_)) => {
                            self.drops.0.inc();
                            self.drops.1.inc();
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => return,
                    }
                }
            });
            // A sink error drops `rx`, which the sampler sees on its next
            // offer; the scope then joins it.
            for line in rx {
                if sink(line).is_err() {
                    break;
                }
            }
        });
    }
}

/// Renders one push line: the host's full exposition plus the journal
/// events born since `cursor`, which advances. The journal's `meta`
/// counters stay cumulative, so a subscriber can tell its own losses
/// from `seq` gaps and the totals.
fn push_line<H: MuxHost>(host: &H, seq: u64, cursor: &mut u64) -> String {
    let metrics = host.exposition();
    let mut journal = host.journal();
    // Only the events born since the last push ride along (the ring
    // itself bounds how far back a lagging subscriber can catch up).
    let fresh = (journal.total - *cursor).min(journal.events.len() as u64);
    *cursor = journal.total;
    journal
        .events
        .drain(..journal.events.len() - fresh as usize);
    format!(
        "push seq={seq} data={} journal={}",
        hex_encode(metrics.as_bytes()),
        hex_encode(journal.render().as_bytes()),
    )
}
