//! Every subscription stream path: shard and router, each under proto 1
//! and proto 2 (`DESIGN.md` §12). All four answer `subscribe` by one
//! interval rule, stream pushes with rising `seq` that carry their tier's
//! exposition and journal delta, register the subscriber's drop counter,
//! and end with a clean end of stream at shutdown. Every read runs under
//! a deadline, so a stream that never ends fails instead of hanging.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use snn_cluster::{Cluster, ClusterConfig};
use snn_serve::{
    ClientError, Push, ServeClient, ServerConfig, SessionSpec, SnnServer, Subscription, PROTO_V2,
    PROTO_VERSION,
};

const DEADLINE: Duration = Duration::from_secs(10);

/// Starts a shard, or a router over one shard: its address and its
/// shutdown.
fn start(router: bool) -> (SocketAddr, Box<dyn FnOnce()>) {
    if router {
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        return (cluster.local_addr(), Box::new(move || cluster.shutdown()));
    }
    let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    (server.local_addr(), Box::new(move || server.shutdown()))
}

/// Pulls a subscription on a thread of its own, up to and including the
/// error that ends it.
fn pump(mut sub: Subscription) -> mpsc::Receiver<Result<Push, ClientError>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        let next = sub.next();
        let end = next.is_err();
        if tx.send(next).is_err() || end {
            return;
        }
    });
    rx
}

/// The answer to one `subscribe` line on a fresh connection.
fn answer(addr: SocketAddr, proto: u32, line: &str) -> String {
    if proto >= PROTO_V2 {
        let client = ServeClient::connect_with_proto(addr, proto).unwrap();
        return client.mux().unwrap().subscribe_line(line).unwrap().0;
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    ack.trim_end().to_string()
}

#[test]
fn every_stream_path_acks_one_rule_streams_and_ends_at_shutdown() {
    let mut answers = Vec::new();
    for (router, proto) in [false, true]
        .map(|r| [(r, PROTO_VERSION), (r, PROTO_V2)])
        .concat()
    {
        let path = format!("router={router} proto={proto}");
        let (addr, shutdown) = start(router);
        let sub = ServeClient::connect_with_proto(addr, proto).unwrap();
        let pushes = pump(sub.subscribe(20).unwrap());
        let next = || pushes.recv_timeout(DEADLINE).expect(&path).expect(&path);
        let first = next();
        // The first stream on a fresh tier is subscriber 0.
        let tier = if router { "cluster" } else { "serve" };
        let drops = format!("{tier}.subscribe.drops.sub0");
        assert!(
            first.metrics.counters.contains_key(&drops),
            "{path}: {drops}"
        );

        // Sent after the ack. On the shard the open reaches a push's
        // journal delta; a router's push carries the merged exposition,
        // its shard's counters included.
        let mut client = ServeClient::connect_with_proto(addr, proto).unwrap();
        let spec = SessionSpec {
            n_exc: 6,
            n_input: 49,
            ..SessionSpec::default()
        };
        client.open("watched", spec).unwrap();
        let mut seq = first.seq;
        let reached = (0..200).any(|_| {
            let push = next();
            assert!(push.seq > seq, "{path}: seq {} after {seq}", push.seq);
            seq = push.seq;
            if router {
                push.metrics.counter("serve.requests") > 0
            } else {
                let mut opens = push.journal.of_kind("serve.open");
                opens.any(|e| e.field("id") == Some("watched"))
            }
        });
        assert!(reached, "{path}: no push carried the open");

        let lines = [
            "",
            " interval_ms=fast",
            " interval_ms=5",
            " interval_ms=99999",
        ];
        let acks = lines.map(|args| answer(addr, proto, &format!("subscribe{args}")));
        assert_eq!(acks[0], "ok interval_ms=100", "{path}: the bare default");
        assert!(acks[1].starts_with("err code=bad-request"), "{path}");
        assert_eq!(acks[2..], ["ok interval_ms=10", "ok interval_ms=10000"]);
        answers.push(acks);

        shutdown();
        let end = loop {
            match pushes.recv_timeout(DEADLINE) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => break e,
                Err(_) => panic!("{path}: the stream is still open after shutdown"),
            }
        };
        assert!(
            matches!(&end, ClientError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
            "{path}: {end:?}"
        );
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:#?}");
}
