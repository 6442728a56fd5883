//! Cross-version compatibility matrix (`DESIGN.md` §13 negotiation
//! rules).
//!
//! Every client×server protocol pairing is pinned: in-range requests
//! negotiate and serve, out-of-range requests **fail fast at `hello`**
//! with a `proto-mismatch` the client can read — never a hang, a
//! garbled stream, or a silent downgrade. The router↔shard relay speaks
//! proto 2 only, so a shard pinned to proto 1 is refused when it tries
//! to join.

use snn_cluster::{Cluster, ClusterConfig, ClusterError, ClusterLimits};
use snn_data::Image;
use snn_serve::{ServeClient, ServerConfig, SessionSpec, SnnServer, PROTO_V2, PROTO_VERSION};
use spikedyn::Method;

fn tiny_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        method: Method::SpikeDyn,
        n_exc: 8,
        n_input: 49,
        n_classes: 10,
        seed,
        batch_size: 4,
        assign_every: 8,
        reservoir_capacity: 12,
        metric_window: 12,
        drift_window: 8,
    }
}

fn stream(seed: u64, total: u64) -> Vec<Image> {
    let gen = snn_data::SyntheticDigits::new(seed);
    (0..total)
        .map(|i| {
            gen.sample((i % 10) as u8, seed.wrapping_mul(1000) + i)
                .downsample(4)
        })
        .collect()
}

fn proto1_only() -> ServerConfig {
    ServerConfig {
        max_proto: PROTO_VERSION,
        ..ServerConfig::default()
    }
}

#[test]
fn proto2_client_fails_fast_against_a_proto1_only_server() {
    let server = SnnServer::start("127.0.0.1:0", proto1_only()).expect("server");
    let err = ServeClient::connect_with_proto(server.local_addr(), PROTO_V2)
        .expect_err("negotiation must be refused");
    assert_eq!(err.server_code(), Some("proto-mismatch"), "got {err}");
    // Proto 1 on the same server still works.
    let mut client =
        ServeClient::connect_with_proto(server.local_addr(), PROTO_VERSION).expect("proto 1");
    client.ping().expect("ping");
}

#[test]
fn proto1_client_fails_fast_against_a_proto2_only_server() {
    let server = SnnServer::start(
        "127.0.0.1:0",
        ServerConfig {
            min_proto: PROTO_V2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let err = ServeClient::connect_with_proto(server.local_addr(), PROTO_VERSION)
        .expect_err("negotiation must be refused");
    assert_eq!(err.server_code(), Some("proto-mismatch"), "got {err}");
    let mut client =
        ServeClient::connect_with_proto(server.local_addr(), PROTO_V2).expect("proto 2");
    client.ping().expect("ping");
}

#[test]
fn unknown_future_protos_are_refused_by_default_servers() {
    let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("server");
    let err = ServeClient::connect_with_proto(server.local_addr(), 7)
        .expect_err("future protocols must be refused, not guessed at");
    assert_eq!(err.server_code(), Some("proto-mismatch"), "got {err}");
}

#[test]
fn proto1_pinned_router_refuses_proto2_clients_but_serves_proto1() {
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            limits: ClusterLimits {
                max_proto: PROTO_VERSION,
                ..ClusterLimits::default()
            },
        },
    )
    .expect("cluster");
    cluster.spawn_shard(ServerConfig::default()).expect("shard");

    let err = ServeClient::connect_with_proto(cluster.local_addr(), PROTO_V2)
        .expect_err("pinned router must refuse proto 2");
    assert_eq!(err.server_code(), Some("proto-mismatch"), "got {err}");

    let mut client = ServeClient::connect(cluster.local_addr()).expect("proto 1 client");
    client.open("m", tiny_spec(1)).expect("open");
    client.ingest("m", &stream(1, 4)).expect("ingest");
    client.close("m").expect("close");
    cluster.shutdown();
}

#[test]
fn proto1_only_shards_are_refused_at_attach_and_spawn() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).expect("cluster");
    cluster.spawn_shard(ServerConfig::default()).expect("shard");
    let before = cluster.shard_ids();

    let legacy = SnnServer::start("127.0.0.1:0", proto1_only()).expect("pinned server");
    let err = cluster
        .attach_shard(legacy.local_addr())
        .expect_err("a proto-1-only shard must not attach");
    assert!(
        matches!(err, ClusterError::ProtoMismatch { .. }),
        "got {err}"
    );
    let err = cluster
        .spawn_shard(proto1_only())
        .expect_err("a proto-1-only shard must not spawn");
    assert!(
        matches!(err, ClusterError::ProtoMismatch { .. }),
        "got {err}"
    );
    assert_eq!(cluster.shard_ids(), before, "refused shards never join");

    // The cluster keeps serving on its proto 2 shard, proto 1 clients
    // included: only the relay is proto 2 only.
    let mut client = ServeClient::connect(cluster.local_addr()).expect("proto 1 client");
    client.open("m", tiny_spec(2)).expect("open");
    client.ingest("m", &stream(2, 4)).expect("ingest");
    client.close("m").expect("close");
    cluster.shutdown();
    legacy.shutdown();
}
