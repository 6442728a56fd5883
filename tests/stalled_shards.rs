//! A stalled shard costs a cluster-wide verb one scrape deadline, never
//! one per shard (`DESIGN.md` §10). Every fan-out verb —
//! `cluster-metrics`, `cluster-journal`, `cluster-trace`, `cluster-stats`
//! — contacts each live shard on its own thread under `scrape_timeout`,
//! reports the shards it could not scrape, and ticks their
//! `cluster.scrape_fail.s<id>` counters.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_serve::protocol::parse_response;
use snn_serve::{ServeClient, ServerConfig, SessionSpec, SnnServer};
use spikedyn::Method;

const SCRAPE_TIMEOUT: Duration = Duration::from_millis(500);

/// A TCP forwarder in front of one real shard. Connections accepted
/// before [`Forwarder::stall`] are piped to the shard for their whole
/// life, so the relay connection the router opens at attach keeps
/// working; connections accepted after it are held open and never
/// answered — a shard that is connected but stalled.
struct Forwarder {
    addr: SocketAddr,
    stalled: Arc<AtomicBool>,
}

impl Forwarder {
    fn start(upstream: SocketAddr) -> Forwarder {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind forwarder");
        let addr = listener.local_addr().expect("forwarder address");
        let stalled = Arc::new(AtomicBool::new(false));
        let stall = Arc::clone(&stalled);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                if stall.load(Ordering::SeqCst) {
                    held.push(client);
                    continue;
                }
                let Ok(shard) = TcpStream::connect(upstream) else {
                    continue;
                };
                pipe(
                    client.try_clone().expect("clone"),
                    shard.try_clone().expect("clone"),
                );
                pipe(shard, client);
            }
        });
        Forwarder { addr, stalled }
    }

    fn stall(&self) {
        self.stalled.store(true, Ordering::SeqCst);
    }
}

/// Copies `from` into `to` on its own thread until `from` closes.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        let _ = io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Write);
    });
}

fn tiny_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        method: Method::SpikeDyn,
        n_exc: 6,
        n_input: 49,
        n_classes: 4,
        seed,
        batch_size: 4,
        assign_every: 8,
        reservoir_capacity: 8,
        metric_window: 8,
        drift_window: 8,
    }
}

#[test]
fn stalled_shards_cost_each_cluster_wide_verb_one_scrape_deadline() {
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            limits: ClusterLimits {
                scrape_timeout: SCRAPE_TIMEOUT,
                // No health probe may run: it would strike the stalled
                // shards and change what the scrapes see.
                health_interval: Duration::from_secs(3600),
                ..ClusterLimits::default()
            },
        },
    )
    .expect("cluster");
    let servers: Vec<SnnServer> = (0..3)
        .map(|_| SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("shard"))
        .collect();
    let forwarders: Vec<Forwarder> = servers
        .iter()
        .map(|server| Forwarder::start(server.local_addr()))
        .collect();
    let stalled: Vec<_> = forwarders
        .iter()
        .map(|f| cluster.attach_shard(f.addr).expect("attach"))
        .collect();
    let healthy = cluster.spawn_shard(ServerConfig::default()).expect("spawn");
    forwarders.iter().for_each(Forwarder::stall);

    // The data plane still flows over the relay connections opened at
    // attach; a relayed reply hands back a rid to trace.
    let mut client = ServeClient::connect(cluster.local_addr()).expect("client");
    client.open("s", tiny_spec(1)).expect("open");
    let report = client.call_raw("report id=s").expect("report");
    let rid = parse_response(&report)
        .expect("report parses")
        .get("rid")
        .expect("relayed replies carry their rid")
        .to_string();

    for line in [
        "cluster-metrics".to_string(),
        "cluster-journal".to_string(),
        format!("cluster-trace rid={rid}"),
        "cluster-stats".to_string(),
    ] {
        let before = client.metrics().expect("router metrics");
        let t0 = Instant::now();
        let reply = client.call_raw(&line).expect("fan-out verb");
        let took = t0.elapsed();
        let after = client.metrics().expect("router metrics");
        assert!(
            took < 2 * SCRAPE_TIMEOUT,
            "{line} took {took:?} with {} stalled shards",
            stalled.len()
        );

        let resp = parse_response(&reply).expect("reply parses");
        assert!(reply.starts_with("ok"), "{line}: {reply}");
        if line == "cluster-stats" {
            // Stalled rows waited out the deadline; the healthy row did not.
            for i in 0..4 {
                let field = |key: &str| resp.get(&format!("s{i}_{key}")).expect(key).to_string();
                let id: u64 = field("id").parse().expect("id");
                let scrape_us: u128 = field("scrape_us").parse().expect("scrape_us");
                assert_eq!(
                    scrape_us >= SCRAPE_TIMEOUT.as_micros() * 9 / 10,
                    id != healthy,
                    "{line}: shard {id} scrape_us={scrape_us}"
                );
            }
        } else {
            assert_eq!(resp.get("shards"), Some("4"), "{line}: {reply:.200}");
            assert_eq!(resp.get("scraped"), Some("1"), "{line}: {reply:.200}");
        }

        let fails = |snap: &snn_obs::Snapshot, shard| {
            snap.counter(&format!("cluster.scrape_fail.s{shard}"))
        };
        for &shard in &stalled {
            assert_eq!(
                fails(&after, shard) - fails(&before, shard),
                1,
                "{line}: shard {shard} counted as not scraped"
            );
        }
        assert_eq!(fails(&after, healthy), 0, "{line}: healthy shard scraped");
    }

    client.close("s").expect("close");
    cluster.shutdown();
    for server in servers {
        server.shutdown();
    }
}
