//! Adversarial input on the proto 2 framing layer (`DESIGN.md` §13).
//!
//! Every case feeds a live server hostile or damaged bytes over a real
//! upgraded socket and pins the only acceptable outcomes: a tagged (or
//! tag-0) `err code=bad-frame` reply, a clean connection drop, or both —
//! **never** a panic, an unbounded allocation, or a stall of the other
//! in-flight tags on the same connection. The server must stay healthy
//! for later connections in all cases.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use snn_data::{Image, SyntheticDigits};
use snn_obs::{Counter, JournalSnapshot};
use snn_serve::frame::{
    line_to_frame, verb_code, Frame, FrameError, FLAG_PUSH, HEADER_BYTES, MAGIC, MAX_FRAME_PAYLOAD,
    VERB_RAW,
};
use snn_serve::mux::{MAX_INFLIGHT, MAX_STREAMS};
use snn_serve::protocol::{format_request, parse_response, Request, Response, SessionSpec};
use snn_serve::{run_mux, MuxHost, ServeClient, ServerConfig, SnnServer, PROTO_V2};
use spikedyn::Method;

/// A read timeout generous enough for CI yet far below "stalled".
const READ_DEADLINE: Duration = Duration::from_secs(10);

fn start_server() -> SnnServer {
    SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind an ephemeral port")
}

/// Connects and upgrades to proto 2 by hand: the line-based `hello`,
/// then the raw socket for frame traffic.
fn upgrade(server: &SnnServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("hello proto={PROTO_V2}\n").as_bytes())
        .expect("hello");
    let mut banner = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut banner)
        .expect("banner");
    assert!(
        banner.starts_with("ok proto=2"),
        "upgrade refused: {banner:?}"
    );
    stream
}

/// Reads one frame, panicking on timeout (a stalled server is exactly
/// what these tests must catch).
fn read_frame(stream: &mut TcpStream) -> Option<Frame> {
    match Frame::read_from(stream) {
        Ok(frame) => frame,
        Err(FrameError::Io(e)) => panic!("read_frame: {e}"),
        Err(e) => panic!("server sent an undecodable frame: {e}"),
    }
}

/// The server must still serve fresh connections — hostile bytes on one
/// connection never poison the process.
fn assert_server_still_healthy(server: &SnnServer) {
    let mut client = ServeClient::connect_with_proto(server.local_addr(), PROTO_V2)
        .expect("fresh proto 2 connection after hostile input");
    client.ping().expect("ping after hostile input");
}

fn tiny_spec() -> SessionSpec {
    SessionSpec {
        method: Method::SpikeDyn,
        n_exc: 8,
        n_input: 49,
        n_classes: 10,
        seed: 7,
        batch_size: 4,
        assign_every: 8,
        reservoir_capacity: 12,
        metric_window: 12,
        drift_window: 8,
    }
}

fn tiny_batch(n: u64) -> Vec<Image> {
    let gen = SyntheticDigits::new(7);
    (0..n)
        .map(|i| gen.sample((i % 10) as u8, i).downsample(4))
        .collect()
}

#[test]
fn truncated_frame_is_a_clean_drop_not_a_panic() {
    let server = start_server();
    // Cut the frame off at every interesting boundary: inside the fixed
    // header, right after it, inside the head, and inside the checksum.
    let full = line_to_frame("ping", 1, 0).encode();
    for cut in [
        1,
        HEADER_BYTES - 1,
        HEADER_BYTES,
        HEADER_BYTES + 2,
        full.len() - 1,
    ] {
        let mut stream = upgrade(&server);
        stream.write_all(&full[..cut]).expect("partial write");
        stream.shutdown(Shutdown::Write).expect("half-close");
        // The server may or may not manage a best-effort error frame;
        // either way the connection must end, promptly and panic-free.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }
    assert_server_still_healthy(&server);
}

#[test]
fn oversized_declared_lengths_are_refused_before_allocation() {
    let server = start_server();
    // A 17-byte header declaring a 4 GiB payload. If the server
    // allocated what the header claims, this test would OOM the process;
    // rejecting before allocation means an error frame within the read
    // deadline instead.
    for (head_len, payload_len) in [
        (u32::MAX, 0u32),
        (0, u32::MAX),
        (0, MAX_FRAME_PAYLOAD + 1),
        (2 * 1024 * 1024, 0),
    ] {
        let mut stream = upgrade(&server);
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(2); // frame version
        header.push(0); // flags
        header.push(verb_code("ping"));
        header.extend_from_slice(&9u32.to_le_bytes());
        header.extend_from_slice(&head_len.to_le_bytes());
        header.extend_from_slice(&payload_len.to_le_bytes());
        stream.write_all(&header).expect("hostile header");
        let reply = read_frame(&mut stream).expect("error frame before close");
        let resp = parse_response(&reply.to_line().expect("error frame decodes"))
            .expect("error frame parses");
        assert!(
            matches!(&resp, Response::Err { code, .. } if code == "bad-frame"),
            "for {head_len}/{payload_len}: {resp:?}"
        );
        // Fatal: the stream is desynced, so the server must close it.
        assert!(read_frame(&mut stream).is_none(), "connection must close");
    }
    assert_server_still_healthy(&server);
}

#[test]
fn bad_magic_and_bad_checksum_close_with_an_error() {
    let server = start_server();
    // Garbage where a frame should start.
    let mut stream = upgrade(&server);
    stream
        .write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("http garbage");
    let reply = read_frame(&mut stream).expect("error frame");
    assert!(reply.head.contains("bad-frame"), "got {:?}", reply.head);
    assert!(read_frame(&mut stream).is_none(), "connection must close");

    // A well-formed frame with one flipped payload bit.
    let mut stream = upgrade(&server);
    let mut bytes = line_to_frame("ping", 3, 0).encode();
    let n = bytes.len();
    bytes[n - 6] ^= 0x10; // inside the head, caught only by the checksum
    stream.write_all(&bytes).expect("corrupt frame");
    let reply = read_frame(&mut stream).expect("error frame");
    assert!(reply.head.contains("bad-frame"), "got {:?}", reply.head);
    assert!(read_frame(&mut stream).is_none(), "connection must close");

    assert_server_still_healthy(&server);
}

#[test]
fn unknown_and_mismatched_verb_codes_answer_errors_and_keep_serving() {
    let server = start_server();
    let mut stream = upgrade(&server);

    // Verb code 200 is unassigned and disagrees with the head's `ping`.
    let mut frame = line_to_frame("ping", 5, 0);
    frame.verb = 200;
    frame.write_to(&mut stream).expect("mismatched verb");
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(reply.tag, 5, "error must come back on the request's tag");
    assert!(reply.head.contains("bad-frame"), "got {:?}", reply.head);

    // An unknown verb *name* under the raw code is a protocol-level
    // bad-request, not a framing error.
    let frame = line_to_frame("no-such-verb x=1", 6, 0);
    assert_eq!(frame.verb, VERB_RAW);
    frame.write_to(&mut stream).expect("unknown verb");
    let reply = read_frame(&mut stream).expect("reply frame");
    assert_eq!(reply.tag, 6);
    assert!(reply.head.contains("bad-request"), "got {:?}", reply.head);

    // Recoverable failures must leave the connection fully usable.
    line_to_frame("ping", 7, 0)
        .write_to(&mut stream)
        .expect("ping");
    let reply = read_frame(&mut stream).expect("pong");
    assert_eq!(reply.tag, 7);
    assert!(reply.head.starts_with("ok"), "got {:?}", reply.head);
}

#[test]
fn client_initiated_push_flag_is_rejected_per_frame() {
    let server = start_server();
    let mut stream = upgrade(&server);
    line_to_frame("ping", 4, FLAG_PUSH)
        .write_to(&mut stream)
        .expect("spoofed push");
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(reply.tag, 4);
    assert!(reply.head.contains("bad-frame"), "got {:?}", reply.head);
    // Still serving afterwards.
    line_to_frame("ping", 5, 0)
        .write_to(&mut stream)
        .expect("ping");
    assert!(read_frame(&mut stream)
        .expect("pong")
        .head
        .starts_with("ok"));
}

#[test]
fn duplicate_tags_error_while_the_original_request_completes() {
    let server = start_server();
    let mut stream = upgrade(&server);

    // Open a session, then race: a slow `ingest` on tag 9 immediately
    // followed by a `ping` reusing tag 9 while the ingest still runs.
    line_to_frame(
        &format_request(&Request::Open {
            id: "dup".to_string(),
            spec: tiny_spec(),
        }),
        1,
        0,
    )
    .write_to(&mut stream)
    .expect("open");
    assert!(read_frame(&mut stream)
        .expect("open reply")
        .head
        .starts_with("ok"));

    let ingest = format_request(&Request::Ingest {
        id: "dup".to_string(),
        images: tiny_batch(8),
    });
    let mut burst = line_to_frame(&ingest, 9, 0).encode();
    burst.extend_from_slice(&line_to_frame("ping", 9, 0).encode());
    stream.write_all(&burst).expect("tag collision burst");

    let first = read_frame(&mut stream).expect("first tag-9 reply");
    let second = read_frame(&mut stream).expect("second tag-9 reply");
    assert_eq!((first.tag, second.tag), (9, 9));
    let heads = [first.head.as_str(), second.head.as_str()];
    assert!(
        heads.iter().any(|h| h.contains("duplicate-tag")),
        "one reply must name the collision: {heads:?}"
    );
    assert!(
        heads.iter().any(|h| h.starts_with("ok")),
        "the original ingest must still complete: {heads:?}"
    );

    // The tag is reusable once retired.
    line_to_frame("ping", 9, 0)
        .write_to(&mut stream)
        .expect("ping");
    assert!(read_frame(&mut stream)
        .expect("pong")
        .head
        .starts_with("ok"));
}

#[test]
fn subscriptions_hold_their_tags_and_are_bounded_per_connection() {
    let server = start_server();
    let mut stream = upgrade(&server);
    // Streams at a 10 s interval: no push arrives while the test runs.
    let full = MAX_STREAMS as u32;
    for tag in 1..=full {
        line_to_frame("subscribe interval_ms=10000", tag, 0)
            .write_to(&mut stream)
            .expect("subscribe");
    }
    let mut acked: Vec<(u32, String)> = (1..=full)
        .map(|_| {
            read_frame(&mut stream)
                .map(|f| (f.tag, f.head))
                .expect("ack")
        })
        .collect();
    acked.sort();
    let ack = |tag| (tag, "ok interval_ms=10000".to_string());
    assert_eq!(acked, (1..=full).map(ack).collect::<Vec<_>>());

    // A stream holds its tag against another stream and a request; past
    // the bound a subscribe is refused on its own tag; requests still
    // run beside the open streams.
    let burst = [
        ("subscribe", 1),
        ("ping", 2),
        ("subscribe", full + 1),
        ("ping", full + 2),
    ];
    for (line, tag) in burst {
        line_to_frame(line, tag, 0)
            .write_to(&mut stream)
            .expect("burst");
    }
    let mut replies: Vec<(u32, String)> = burst
        .iter()
        .map(|_| {
            read_frame(&mut stream)
                .map(|f| (f.tag, f.head))
                .expect("reply")
        })
        .collect();
    replies.sort();
    let codes: Vec<&str> = replies.iter().map(|(_, head)| &head[..15]).collect();
    assert_eq!(
        codes,
        [
            "err code=duplic",
            "err code=duplic",
            "err code=admiss",
            "ok pong=1 proto"
        ],
        "{replies:?}"
    );
}

/// Answers every request with the same large `data=` reply and counts
/// the requests it was handed.
struct BulkHost(AtomicUsize, String);

impl MuxHost for BulkHost {
    fn handle_line(
        &self,
        _line: &str,
        _proto: u32,
        reply: &mut dyn FnMut(String) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        self.0.fetch_add(1, Ordering::SeqCst);
        reply(self.1.clone())
    }

    fn exposition(&self) -> String {
        String::new()
    }

    fn journal(&self) -> JournalSnapshot {
        JournalSnapshot::new()
    }

    fn is_shutdown(&self) -> bool {
        false
    }

    fn subscriber(&self) -> (Arc<Counter>, Arc<Counter>) {
        (Arc::default(), Arc::default())
    }
}

#[test]
fn a_client_that_stops_reading_stops_the_server_reading() {
    // 256 KiB replies: a handful fill the socket buffers, after which
    // the writer stalls and replies back up into the handlers.
    let reply = format!("ok data={}", "ab".repeat(256 * 1024));
    let host = Arc::new(BulkHost(AtomicUsize::new(0), reply));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let server = {
        let host = Arc::clone(&host);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            run_mux(BufReader::new(stream.try_clone().unwrap()), stream, host)
        })
    };

    // Pipeline four windows' worth of pings on fresh tags, read nothing
    // back, and wait until the server stops taking requests.
    let requests = 4 * MAX_INFLIGHT;
    let burst: Vec<u8> = (1..=requests as u32)
        .flat_map(|tag| line_to_frame("ping", tag, 0).encode())
        .collect();
    stream.write_all(&burst).expect("pipelined pings");
    let mut handled = 0;
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = host.0.load(Ordering::SeqCst);
        if now > 0 && now == handled {
            break;
        }
        handled = now;
    }
    assert!(
        handled < requests,
        "the server kept pulling frames from a client that reads nothing \
         ({handled} of {requests} requests handled)"
    );

    // Backpressure, not deadlock: once the client reads, every request
    // is answered once.
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .expect("read timeout");
    let tags: HashSet<u32> = (0..requests)
        .map(|_| {
            read_frame(&mut stream)
                .expect("reply once the client reads")
                .tag
        })
        .collect();
    assert_eq!(tags.len(), requests);
    drop(stream);
    server.join().unwrap().expect("clean disconnect");
}

#[test]
fn unknown_tag_responses_are_dropped_by_the_client_not_misdelivered() {
    // A hand-rolled server that answers every request with a stray
    // frame on an unrelated tag *before* the real reply.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello line");
        let mut writer = stream.try_clone().expect("clone");
        writer
            .write_all(b"ok proto=2 server=fake\n")
            .expect("banner");
        let mut stream = stream;
        while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
            line_to_frame("ok stray=1", frame.tag.wrapping_add(1), 0)
                .write_to(&mut stream)
                .expect("stray frame");
            line_to_frame("ok pong=1", frame.tag, 0)
                .write_to(&mut stream)
                .expect("real reply");
        }
    });

    let mut client =
        ServeClient::connect_with_proto(addr, PROTO_V2).expect("negotiate with fake server");
    for _ in 0..4 {
        let reply = client.call_raw("ping").expect("call through stray frames");
        assert!(
            reply.contains("pong=1") && !reply.contains("stray=1"),
            "stray tag misdelivered: {reply:?}"
        );
    }
    drop(client);
    handle.join().expect("fake server exits");
}

#[test]
fn interleaved_partial_writes_never_stall_other_tags() {
    let server = start_server();
    let mut stream = upgrade(&server);

    // Frame A (tag 1) goes out whole; frame B (tag 2) dribbles out
    // byte-by-byte. A's reply must arrive while B is still incomplete.
    line_to_frame("ping", 1, 0)
        .write_to(&mut stream)
        .expect("whole frame");
    let b = line_to_frame("stats", 2, 0).encode();
    let split = b.len() / 2;
    stream.write_all(&b[..split]).expect("partial frame");
    stream.flush().expect("flush");

    let reply = read_frame(&mut stream).expect("tag 1 reply despite partial tag 2");
    assert_eq!(reply.tag, 1);
    assert!(reply.head.starts_with("ok"));

    // Finish B one byte at a time; its reply still arrives.
    for byte in &b[split..] {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("dribble");
    }
    let reply = read_frame(&mut stream).expect("tag 2 reply");
    assert_eq!(reply.tag, 2);
    assert!(reply.head.starts_with("ok"));
}
