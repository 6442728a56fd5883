//! End-to-end autoscaler drill against a live cluster: the shard pool
//! grows under injected session load and drains back to the floor at
//! idle, with every session serving throughout (growth rebalances
//! live-migrate sessions onto new shards; the drain migrates them off).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use snn_cluster::{Cluster, ClusterConfig, ClusterError};
use snn_heal::{run, AutoscalerPolicy, LoadSnapshot, ShardPool, WirePool};
use snn_serve::{ServeClient, ServerConfig, SessionSpec};
use spikedyn::Method;

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

fn stream(seed: u64, n: u64) -> Vec<snn_data::Image> {
    let gen = snn_data::SyntheticDigits::new(seed);
    (0..n)
        .map(|i| gen.sample((i % 4) as u8, i).downsample(4))
        .collect()
}

fn wait_for_shards(cluster: &Cluster, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let have = cluster.shard_ids().len();
        if have == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: stuck at {have} shards, want {want}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// [`ShardPool`] over the in-process [`Cluster`] handle: grow spawns a
/// default shard, shrink drains the live shard with the fewest sessions.
struct InProcessPool<'a>(&'a Cluster);

impl ShardPool for InProcessPool<'_> {
    fn load(&self) -> LoadSnapshot {
        let stats = self.0.stats();
        LoadSnapshot {
            alive_shards: stats.shards.iter().filter(|s| s.alive).count(),
            sessions: stats.sessions,
            queued_jobs: stats.queued_jobs,
            total_j: stats.total_j,
        }
    }

    fn grow(&self) -> Result<(), ClusterError> {
        self.0.spawn_shard(ServerConfig::default()).map(|_| ())
    }

    fn shrink(&self) -> Result<(), ClusterError> {
        let stats = self.0.stats();
        let victim = stats
            .shards
            .iter()
            .filter(|s| s.alive)
            .min_by_key(|s| s.sessions)
            .map(|s| s.id)
            .ok_or(ClusterError::NoShards)?;
        self.0.drain_shard(victim).map(|_| ())
    }
}

#[test]
fn pool_grows_under_load_and_drains_at_idle() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();

    let policy = AutoscalerPolicy {
        min_shards: 1,
        max_shards: 3,
        up_sessions_per_shard: 4.0,
        down_sessions_per_shard: 1.0,
        up_after: 2,
        down_after: 2,
        cooldown: 0,
        ..AutoscalerPolicy::default()
    };
    let stop = AtomicBool::new(false);
    let pool = InProcessPool(&cluster);
    let report = std::thread::scope(|scope| {
        let scaler = scope.spawn(|| run(&pool, policy, Duration::from_millis(30), &stop));

        // Inject load: 10 sessions on 1 shard is 10 sessions/shard,
        // far over the 4.0 watermark — the pool must grow to its cap
        // (10/3 is comfortable again).
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        for s in 0..10u64 {
            let id = format!("as-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            client.ingest(&id, &stream(s, 4)).unwrap();
        }
        wait_for_shards(&cluster, 3, "growth under load");

        // Every session still serves after the growth rebalances
        // live-migrated a fair share onto the new shards.
        for s in 0..10u64 {
            client.ingest(&format!("as-{s}"), &stream(s, 4)).unwrap();
        }

        // Remove the load: an idle pool must drain back to the floor
        // (and no further).
        for s in 0..10u64 {
            client.close(&format!("as-{s}")).unwrap();
        }
        wait_for_shards(&cluster, 1, "drain at idle");

        stop.store(true, Ordering::SeqCst);
        scaler.join().unwrap()
    });
    assert!(report.grows >= 2, "grew at least twice: {report:?}");
    assert!(report.shrinks >= 2, "drained at least twice: {report:?}");

    // The survivor still serves new sessions.
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    client.open("after", tiny_spec(42)).unwrap();
    client.ingest("after", &stream(42, 4)).unwrap();
    client.close("after").unwrap();
    cluster.shutdown();
}

#[test]
fn wire_pool_scales_from_telemetry_alone() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();

    let policy = AutoscalerPolicy {
        min_shards: 1,
        max_shards: 3,
        up_sessions_per_shard: 4.0,
        down_sessions_per_shard: 1.0,
        up_after: 2,
        down_after: 2,
        cooldown: 0,
        ..AutoscalerPolicy::default()
    };
    let stop = AtomicBool::new(false);
    // The pool holds nothing but the router's address: load arrives
    // through `cluster-metrics` scrapes and scaling happens through the
    // `cluster-grow`/`cluster-drain` verbs, never a `&Cluster`.
    let pool = WirePool::new(cluster.local_addr());
    let report = std::thread::scope(|scope| {
        let scaler = scope.spawn(|| run(&pool, policy, Duration::from_millis(30), &stop));

        // Inject load: 10 sessions on 1 shard is 10 sessions/shard,
        // far over the 4.0 watermark — the pool must grow to its cap
        // (10/3 is comfortable again).
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        for s in 0..10u64 {
            let id = format!("wp-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            client.ingest(&id, &stream(s, 4)).unwrap();
        }
        wait_for_shards(&cluster, 3, "wire-driven growth");

        // Every session still serves after the growth rebalances
        // live-migrated a fair share onto the new shards.
        for s in 0..10u64 {
            client.ingest(&format!("wp-{s}"), &stream(s, 4)).unwrap();
        }

        // Remove the load: an idle pool must drain back to the floor
        // (and no further).
        for s in 0..10u64 {
            client.close(&format!("wp-{s}")).unwrap();
        }
        wait_for_shards(&cluster, 1, "wire-driven drain");

        stop.store(true, Ordering::SeqCst);
        scaler.join().unwrap()
    });
    assert!(report.grows >= 2, "grew at least twice: {report:?}");
    assert!(report.shrinks >= 2, "drained at least twice: {report:?}");

    // The survivor still serves new sessions.
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    client.open("after", tiny_spec(42)).unwrap();
    client.ingest("after", &stream(42, 4)).unwrap();
    client.close("after").unwrap();
    cluster.shutdown();
}
