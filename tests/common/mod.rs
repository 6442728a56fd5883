//! Helpers shared by the cluster suites that stream synthetic digits
//! through a router and ride out shard deaths.

use std::time::{Duration, Instant};

use snn_data::{Image, SyntheticDigits};
use snn_serve::{ServeClient, SessionSpec};
use spikedyn::Method;

/// A tiny 7×7-input profile so multi-shard streams stay fast.
pub fn tiny_spec(seed: u64) -> SessionSpec {
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

/// `total` digits cycling through the ten classes, downsampled onto the
/// 7×7 profile; a pure function of `seed`.
pub fn stream(seed: u64, total: u64) -> Vec<Image> {
    let gen = SyntheticDigits::new(seed);
    (0..total)
        .map(|i| {
            gen.sample((i % 10) as u8, seed.wrapping_mul(1000) + i)
                .downsample(4)
        })
        .collect()
}

/// Ingests a chunk, retrying through a failover window (`shard-down`,
/// transient relay errors) against a hard deadline.
pub fn ingest_through_failover(client: &mut ServeClient, id: &str, chunk: &[Image]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.ingest(id, chunk) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("session {id} never recovered: {e}"),
        }
    }
}
