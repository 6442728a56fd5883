//! # snn-heal — self-healing control plane for `snn-cluster`
//!
//! The PR 7 data-plane work (replica shadowing and restore-from-shadow
//! failover) lives inside `snn-cluster`, next to the route locks it
//! needs. This crate is the *control* side: an [`Autoscaler`] that
//! watches a shard pool's load — sessions, queue depth, and the modelled
//! joules burn rate — and grows or drains shards through the cluster's
//! existing rebalance/migrate primitives.
//!
//! ## Design
//!
//! The scaling decision is a **pure function** of observations
//! ([`Autoscaler::observe`]): no I/O, no clocks, fully unit-testable.
//! Thresholds come with hysteresis — a breach must persist for a
//! configured number of consecutive observations before any action, and
//! every action is followed by a cooldown — so a noisy load signal
//! (queues drain in bursts; sessions churn) cannot flap shards up and
//! down, with each flap paying a full live-migration rebalance.
//!
//! The side-effecting half is the [`ShardPool`] trait plus the
//! [`run`] driver loop. [`WirePool`] adapts a live cluster through its
//! router's wire verbs alone: it reads load from `cluster-metrics`
//! (through `snn-slo`'s [`load_view`]) and scales through `cluster-grow`
//! (spawn a shard; the ring rebalance live-migrates a fair share of
//! sessions onto it) and `cluster-drain` (drain the live shard with the
//! fewest sessions, live-migrating them off), so the healer needs only
//! the router's address, never a [`snn_cluster::Cluster`] handle.
//!
//! ```
//! use snn_heal::{Autoscaler, AutoscalerPolicy, LoadSnapshot, ScaleAction};
//!
//! let mut scaler = Autoscaler::new(AutoscalerPolicy {
//!     up_after: 2,
//!     ..AutoscalerPolicy::default()
//! });
//! let busy = LoadSnapshot { alive_shards: 1, sessions: 64, queued_jobs: 40, total_j: 0.0 };
//! assert_eq!(scaler.observe(busy), ScaleAction::Hold); // first breach: not yet
//! assert_eq!(scaler.observe(busy), ScaleAction::Grow); // sustained: scale up
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use snn_cluster::ClusterError;
use snn_serve::protocol::hex_decode;
use snn_serve::ServeClient;
use snn_slo::{load_view, LoadView};

/// One observation of a shard pool's load, the autoscaler's only input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSnapshot {
    /// Shards currently alive (dead-but-attached shards don't serve).
    pub alive_shards: usize,
    /// Sessions currently routed.
    pub sessions: usize,
    /// Jobs queued across all live shards right now.
    pub queued_jobs: usize,
    /// Cumulative modelled joules across all live shards. The autoscaler
    /// differentiates consecutive observations into a burn *rate*; the
    /// raw counter itself is monotone and never compared to a threshold.
    pub total_j: f64,
}

/// A [`LoadView`] distilled from merged cluster telemetry carries
/// exactly the autoscaler's inputs: this is the seam where `snn-slo`'s
/// wire-side reading of `cluster-metrics` plugs into the scaling loop.
impl From<LoadView> for LoadSnapshot {
    fn from(view: LoadView) -> Self {
        LoadSnapshot {
            alive_shards: view.alive_shards,
            sessions: view.sessions,
            queued_jobs: view.queued_jobs,
            total_j: view.total_j,
        }
    }
}

/// Scaling thresholds and hysteresis knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerPolicy {
    /// Never drain below this many shards.
    pub min_shards: usize,
    /// Never grow beyond this many shards.
    pub max_shards: usize,
    /// Scale up when sessions per alive shard exceed this.
    pub up_sessions_per_shard: f64,
    /// Scale up when queued jobs per alive shard exceed this.
    pub up_queued_per_shard: f64,
    /// Scale up when the modelled joules burned per alive shard since
    /// the previous observation exceed this (energy headroom exhausted).
    /// `None` disables the energy trigger.
    pub up_j_per_shard_per_tick: Option<f64>,
    /// Scale down when sessions per alive shard fall below this *and*
    /// the queues are empty.
    pub down_sessions_per_shard: f64,
    /// Consecutive high observations required before growing.
    pub up_after: u32,
    /// Consecutive low observations required before draining.
    pub down_after: u32,
    /// Observations to hold after any action, letting the rebalance
    /// settle before the next decision.
    pub cooldown: u32,
}

impl Default for AutoscalerPolicy {
    fn default() -> Self {
        AutoscalerPolicy {
            min_shards: 1,
            max_shards: 8,
            up_sessions_per_shard: 16.0,
            up_queued_per_shard: 8.0,
            up_j_per_shard_per_tick: None,
            down_sessions_per_shard: 4.0,
            up_after: 2,
            down_after: 4,
            cooldown: 2,
        }
    }
}

/// What one observation concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Load is comfortable (or hysteresis/cooldown says wait).
    Hold,
    /// Sustained pressure: add a shard.
    Grow,
    /// Sustained idleness: drain a shard.
    Shrink,
}

/// The hysteresis state machine. Pure: consumes [`LoadSnapshot`]s,
/// produces [`ScaleAction`]s, performs no I/O.
#[derive(Debug)]
pub struct Autoscaler {
    policy: AutoscalerPolicy,
    up_streak: u32,
    down_streak: u32,
    cooldown: u32,
    prev_total_j: Option<f64>,
}

impl Autoscaler {
    /// A fresh state machine under `policy`.
    pub fn new(policy: AutoscalerPolicy) -> Self {
        Autoscaler {
            policy,
            up_streak: 0,
            down_streak: 0,
            cooldown: 0,
            prev_total_j: None,
        }
    }

    /// Feeds one observation and returns the action it warrants. The
    /// caller is expected to *attempt* the action; hysteresis state
    /// advances regardless (a failed grow retries after the cooldown).
    pub fn observe(&mut self, load: LoadSnapshot) -> ScaleAction {
        let p = self.policy;
        let shards = load.alive_shards.max(1) as f64;
        let sessions_per = load.sessions as f64 / shards;
        let queued_per = load.queued_jobs as f64 / shards;
        let j_per = self
            .prev_total_j
            .map(|prev| (load.total_j - prev).max(0.0) / shards);
        self.prev_total_j = Some(load.total_j);

        let hot = sessions_per > p.up_sessions_per_shard
            || queued_per > p.up_queued_per_shard
            || matches!(
                (j_per, p.up_j_per_shard_per_tick),
                (Some(rate), Some(cap)) if rate > cap
            );
        let idle = !hot && sessions_per < p.down_sessions_per_shard && load.queued_jobs == 0;
        if hot {
            self.up_streak += 1;
            self.down_streak = 0;
        } else if idle {
            self.down_streak += 1;
            self.up_streak = 0;
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleAction::Hold;
        }
        if hot && self.up_streak >= p.up_after && load.alive_shards < p.max_shards {
            self.up_streak = 0;
            self.cooldown = p.cooldown;
            return ScaleAction::Grow;
        }
        if idle && self.down_streak >= p.down_after && load.alive_shards > p.min_shards {
            self.down_streak = 0;
            self.cooldown = p.cooldown;
            return ScaleAction::Shrink;
        }
        ScaleAction::Hold
    }
}

/// The pool of shards an autoscaler acts on. Implemented by
/// [`WirePool`] for a live cluster; tests implement it with fakes to
/// drive the loop without sockets.
pub trait ShardPool {
    /// A point-in-time load observation.
    fn load(&self) -> LoadSnapshot;
    /// Adds a shard (the pool decides its configuration).
    fn grow(&self) -> Result<(), ClusterError>;
    /// Drains and removes one shard of the pool's choosing.
    fn shrink(&self) -> Result<(), ClusterError>;
}

/// [`ShardPool`] over the wire: observes and acts on a cluster purely
/// through its router's public verbs — `cluster-metrics` for load
/// (parsed into a [`snn_slo::LoadView`]), `cluster-grow` and
/// `cluster-drain` to scale — so the autoscaler can run as a sidecar
/// process holding nothing but the router's address.
///
/// The connection is dialed lazily and re-dialed after any wire error;
/// between successful scrapes [`WirePool::load`] repeats the last good
/// observation, which reads as "no change" to the hysteresis state
/// machine rather than a spurious idle signal.
pub struct WirePool {
    addr: SocketAddr,
    state: Mutex<WireState>,
}

#[derive(Debug)]
struct WireState {
    client: Option<ServeClient>,
    last: LoadSnapshot,
}

impl std::fmt::Debug for WirePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WirePool")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Wire-layer failures surface through the pool as I/O cluster errors,
/// which the [`run`] loop tallies as `failed_actions` and retries after
/// the cooldown.
fn wire_err(detail: impl std::fmt::Display) -> ClusterError {
    ClusterError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        detail.to_string(),
    ))
}

impl WirePool {
    /// A pool over the router listening at `addr`. Nothing is dialed
    /// until the first observation or action needs the wire.
    pub fn new(addr: SocketAddr) -> Self {
        WirePool {
            addr,
            state: Mutex::new(WireState {
                client: None,
                last: LoadSnapshot {
                    alive_shards: 0,
                    sessions: 0,
                    queued_jobs: 0,
                    total_j: 0.0,
                },
            }),
        }
    }

    /// Sends one request line on the cached connection (dialing if
    /// needed) and returns the raw reply. Any failure drops the
    /// connection so the next call re-dials a fresh one.
    fn call_wire(&self, line: &str) -> Result<String, ClusterError> {
        let mut state = self.state.lock().expect("wire pool poisoned");
        if state.client.is_none() {
            state.client = Some(ServeClient::connect(self.addr).map_err(wire_err)?);
        }
        let result = state
            .client
            .as_mut()
            .expect("just connected")
            .call_raw(line);
        match result {
            Ok(reply) => Ok(reply),
            Err(e) => {
                state.client = None;
                Err(wire_err(e))
            }
        }
    }

    /// One `ok …`-checked wire action; an `err` reply is a failed
    /// action, not a dead connection.
    fn act(&self, verb: &str) -> Result<(), ClusterError> {
        let reply = self.call_wire(verb)?;
        if reply.starts_with("ok") {
            Ok(())
        } else {
            Err(wire_err(format!("{verb}: {reply}")))
        }
    }

    /// Scrapes `cluster-metrics` and distills the merged exposition
    /// into a [`LoadSnapshot`] via [`snn_slo::load_view`].
    fn scrape(&self) -> Result<LoadSnapshot, ClusterError> {
        let reply = self.call_wire("cluster-metrics")?;
        if !reply.starts_with("ok") {
            return Err(wire_err(format!("cluster-metrics: {reply}")));
        }
        let hex = reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("data="))
            .ok_or_else(|| wire_err("cluster-metrics reply lacks data field"))?;
        let bytes = hex_decode(hex).map_err(|e| wire_err(format!("metrics hex: {e}")))?;
        let text =
            String::from_utf8(bytes).map_err(|_| wire_err("metrics exposition not utf-8"))?;
        let snap = snn_obs::Snapshot::parse(&text)
            .map_err(|e| wire_err(format!("metrics exposition: {e}")))?;
        Ok(load_view(&snap).into())
    }
}

impl ShardPool for WirePool {
    fn load(&self) -> LoadSnapshot {
        match self.scrape() {
            Ok(snap) => {
                self.state.lock().expect("wire pool poisoned").last = snap;
                snap
            }
            // A scrape that failed mid-incident repeats the last good
            // observation: the streaks freeze instead of resetting.
            Err(_) => self.state.lock().expect("wire pool poisoned").last,
        }
    }

    fn grow(&self) -> Result<(), ClusterError> {
        self.act("cluster-grow")
    }

    fn shrink(&self) -> Result<(), ClusterError> {
        self.act("cluster-drain")
    }
}

/// What a [`run`] loop did before it was stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoscalerReport {
    /// Observations taken.
    pub ticks: u64,
    /// Successful grow actions.
    pub grows: u64,
    /// Successful shrink actions.
    pub shrinks: u64,
    /// Actions the pool refused (e.g. a failed rebalance migration).
    pub failed_actions: u64,
}

/// Drives an [`Autoscaler`] against a [`ShardPool`] every `tick` until
/// `stop` is set, returning what it did. Sleeps in small slices so a
/// stop request never waits a full tick.
pub fn run(
    pool: &impl ShardPool,
    policy: AutoscalerPolicy,
    tick: Duration,
    stop: &AtomicBool,
) -> AutoscalerReport {
    let mut scaler = Autoscaler::new(policy);
    let mut report = AutoscalerReport::default();
    let mut last_tick = std::time::Instant::now();
    // First observation happens one tick in: a pool mid-startup would
    // otherwise read as idle and prime the down-streak spuriously.
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5).min(tick));
        if last_tick.elapsed() < tick {
            continue;
        }
        last_tick = std::time::Instant::now();
        report.ticks += 1;
        let action = scaler.observe(pool.load());
        let outcome = match action {
            ScaleAction::Hold => continue,
            ScaleAction::Grow => pool.grow(),
            ScaleAction::Shrink => pool.shrink(),
        };
        match (action, outcome) {
            (ScaleAction::Grow, Ok(())) => report.grows += 1,
            (ScaleAction::Shrink, Ok(())) => report.shrinks += 1,
            (_, Err(_)) => report.failed_actions += 1,
            (ScaleAction::Hold, Ok(())) => unreachable!("hold short-circuits above"),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(alive: usize, sessions: usize, queued: usize) -> LoadSnapshot {
        LoadSnapshot {
            alive_shards: alive,
            sessions,
            queued_jobs: queued,
            total_j: 0.0,
        }
    }

    fn policy() -> AutoscalerPolicy {
        AutoscalerPolicy {
            min_shards: 1,
            max_shards: 4,
            up_sessions_per_shard: 8.0,
            up_queued_per_shard: 4.0,
            up_j_per_shard_per_tick: None,
            down_sessions_per_shard: 2.0,
            up_after: 3,
            down_after: 2,
            cooldown: 2,
        }
    }

    #[test]
    fn growth_requires_a_sustained_breach() {
        let mut s = Autoscaler::new(policy());
        // Two breaches, a comfortable tick, then three breaches: only
        // the third *consecutive* breach fires.
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(1, 5, 0)), ScaleAction::Hold); // streak resets
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Grow);
    }

    #[test]
    fn queue_depth_alone_can_trigger_growth() {
        let mut s = Autoscaler::new(policy());
        for _ in 0..2 {
            assert_eq!(s.observe(load(2, 4, 20)), ScaleAction::Hold);
        }
        assert_eq!(s.observe(load(2, 4, 20)), ScaleAction::Grow);
    }

    #[test]
    fn joules_burn_rate_is_differentiated_not_absolute() {
        let mut s = Autoscaler::new(AutoscalerPolicy {
            up_j_per_shard_per_tick: Some(1.0),
            up_after: 2,
            ..policy()
        });
        // A huge *cumulative* figure on the first observation is history,
        // not a rate: no breach can be derived from one sample.
        assert_eq!(
            s.observe(LoadSnapshot {
                total_j: 1e6,
                ..load(1, 4, 0)
            }),
            ScaleAction::Hold
        );
        // Burning 5 J/tick on one shard breaches the 1 J cap; sustained,
        // it fires.
        assert_eq!(
            s.observe(LoadSnapshot {
                total_j: 1e6 + 5.0,
                ..load(1, 4, 0)
            }),
            ScaleAction::Hold
        );
        assert_eq!(
            s.observe(LoadSnapshot {
                total_j: 1e6 + 10.0,
                ..load(1, 4, 0)
            }),
            ScaleAction::Grow
        );
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut s = Autoscaler::new(policy());
        for _ in 0..2 {
            s.observe(load(1, 20, 0));
        }
        assert_eq!(s.observe(load(1, 20, 0)), ScaleAction::Grow);
        // Still hot, but the cooldown holds the next two observations
        // even though the streak is already deep enough again.
        assert_eq!(s.observe(load(2, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(2, 20, 0)), ScaleAction::Hold);
        assert_eq!(s.observe(load(2, 20, 0)), ScaleAction::Grow);
    }

    #[test]
    fn bounds_are_hard_limits() {
        let mut s = Autoscaler::new(policy());
        // At max_shards, sustained pressure never grows.
        for _ in 0..10 {
            assert_eq!(s.observe(load(4, 999, 999)), ScaleAction::Hold);
        }
        // At min_shards, sustained idleness never drains.
        let mut s = Autoscaler::new(policy());
        for _ in 0..10 {
            assert_eq!(s.observe(load(1, 0, 0)), ScaleAction::Hold);
        }
    }

    #[test]
    fn idle_pool_drains_to_the_floor_and_no_further() {
        let mut s = Autoscaler::new(policy());
        let mut shards = 3usize;
        for _ in 0..32 {
            if s.observe(load(shards, 0, 0)) == ScaleAction::Shrink {
                shards -= 1;
            }
        }
        assert_eq!(shards, 1, "idle pool converges to min_shards");
    }

    #[test]
    fn comfortable_load_holds_forever() {
        let mut s = Autoscaler::new(policy());
        for _ in 0..16 {
            // 2.0..=8.0 sessions/shard is the comfort band.
            assert_eq!(s.observe(load(2, 10, 2)), ScaleAction::Hold);
        }
    }
}
