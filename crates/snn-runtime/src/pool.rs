//! Replica pooling: reuse of per-sample neuron state across batches.
//!
//! A replica is a [`NeuronState`]: the populations and traces one sample
//! writes, never the weights, which every worker reads from the engine's
//! one template. Building one is cheap but not free, so the engine keeps
//! finished replicas in a pool and hands them back out on the next batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use snn_core::network::{NeuronState, Snn};

/// A lock-guarded stack of replicas.
///
/// Checkout order is unspecified (workers race for the lock); this is safe
/// because the engine re-synchronises every replica's `θ` to the template
/// before each sample and the presentation loop settles the rest, so
/// replicas are interchangeable by construction.
#[derive(Debug, Default)]
pub struct ReplicaPool {
    replicas: Mutex<Vec<NeuronState>>,
    checkouts: AtomicU64,
    hits: AtomicU64,
    wait_us: AtomicU64,
}

/// A point-in-time copy of a pool's checkout counters. Hits are checkouts
/// satisfied by a pooled replica (a miss builds a fresh one); `wait_us`
/// is cumulative time spent acquiring the pool lock — contention, not
/// simulation work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts (hits + misses).
    pub checkouts: u64,
    /// Checkouts served by a pooled replica instead of a fresh one.
    pub hits: u64,
    /// Cumulative microseconds workers waited on the pool lock.
    pub wait_us: u64,
}

impl PoolStats {
    /// Fraction of checkouts served from the pool (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.hits as f64 / self.checkouts as f64
        }
    }
}

impl ReplicaPool {
    /// Creates an empty pool. An engine's pool never holds more replicas
    /// than the engine has had concurrent workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a replica from the pool, or builds one from `template` when
    /// empty.
    pub fn checkout(&self, template: &Snn) -> NeuronState {
        let t0 = Instant::now();
        let popped = self
            .replicas
            .lock()
            .expect("replica pool lock poisoned")
            .pop();
        self.meter(t0, popped.is_some());
        popped.unwrap_or_else(|| NeuronState::new(template))
    }

    /// Records one checkout in the pool counters. Relaxed atomics only —
    /// metering can never affect which replica a worker gets, so it can
    /// never perturb results (replicas are interchangeable by
    /// construction anyway).
    fn meter(&self, t0: Instant, hit: bool) {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let waited = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.wait_us.fetch_add(waited, Ordering::Relaxed);
    }

    /// A point-in-time copy of the checkout counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            wait_us: self.wait_us.load(Ordering::Relaxed),
        }
    }

    /// Returns a replica to the pool for reuse by later batches.
    pub fn restore(&self, replica: NeuronState) {
        self.replicas
            .lock()
            .expect("replica pool lock poisoned")
            .push(replica);
    }

    /// Number of idle replicas currently pooled.
    pub fn idle(&self) -> usize {
        self.replicas
            .lock()
            .expect("replica pool lock poisoned")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::network::SnnConfig;
    use snn_core::rng::seeded_rng;

    fn template() -> Snn {
        Snn::new(SnnConfig::direct_lateral(9, 3), &mut seeded_rng(1))
    }

    #[test]
    fn checkout_clones_when_empty_and_reuses_after_restore() {
        let pool = ReplicaPool::new();
        let t = template();
        assert_eq!(pool.idle(), 0);
        let a = pool.checkout(&t);
        assert_eq!(pool.idle(), 0, "empty pool builds instead of blocking");
        pool.restore(a);
        assert_eq!(pool.idle(), 1);
        let _b = pool.checkout(&t);
        assert_eq!(pool.idle(), 0, "restored replica is handed back out");
    }

    #[test]
    fn stats_count_checkouts_and_hits() {
        let pool = ReplicaPool::new();
        let t = template();
        let a = pool.checkout(&t); // miss (empty pool)
        pool.restore(a);
        let _b = pool.checkout(&t); // hit
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
