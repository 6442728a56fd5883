//! The front-tier router: the `snn-serve` connection front end
//! ([`snn_serve::front`]) speaking the `snn-serve` protocol to clients,
//! with a host that forwards raw request lines to the backend shard
//! that owns each session.
//!
//! ## Connections
//!
//! The accept loop, the proto 1 line loop, the proto 2 upgrade and the
//! subscription stream are the shard's own, run against the router's
//! [`snn_serve::MuxHost`] — so both tiers cap lines, upgrade, stream
//! and count drops by one rule. What the router adds is the host: how a
//! line is routed and whether that mints a rid (a `hello` or
//! `subscribe` never does), the merged cluster-wide exposition its
//! pushes carry, and its `cluster.*` counters and spans.
//!
//! ## Routing rules
//!
//! * `open`/`restore` place the session via the consistent-hash ring
//!   ([`crate::ring::HashRing`]), subject to the cluster-wide session
//!   cap; the session table then pins the placement (migrations update
//!   it, the ring only decides *new* placements).
//! * Session verbs forward to the pinned shard. Requests for a session
//!   on a dead shard fail fast with `err code=shard-down` (and release
//!   the id — the shard took the state with it).
//! * `hello`/`ping`/`stats`/`cluster-stats`/`metrics`/`cluster-metrics`
//!   are answered by the router itself; `stats` aggregates the shards
//!   into the exact field set `snn-serve` emits, so any protocol client
//!   works unchanged against a cluster. `metrics` exposes the router's
//!   own registry, `cluster-metrics` scrapes and merges every live
//!   shard's exposition (see `DESIGN.md` §10).
//! * Relayed lines carry a request id as their **final** field
//!   (`… rid=c0-17`): the client's if it sent one, a minted one
//!   otherwise. Shards attribute their spans to it, so one id follows a
//!   request across tiers.
//!
//! ## Locking discipline
//!
//! Two levels: the cluster table (`Inner`) and one mutex per session
//! route (`Slot`). The table lock is never held while acquiring a route
//! lock or doing network I/O; route locks are held across the forwarded
//! round trip (serialising a *single* session's requests — the backend
//! does that anyway) and may briefly take the table lock. This order is
//! what lets a migration atomically re-point a session mid-stream.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snn_obs::{valid_rid, Counter, JournalSnapshot, Snapshot, TraceTree};
use snn_serve::protocol::{
    self, extract_rid, format_response, hex_decode, hex_encode, parse_request, parse_response,
    Request, Response, PROTO_VERSION,
};
use snn_serve::server::trace_reply;
use snn_serve::{accept_loop, subscribe_ack, MuxHost, ServerConfig, PROTO_V2};

use crate::backend::Backend;
use crate::heal::{failover_locked, shadow_locked};
use crate::migrate::migrate_locked;
use crate::obs::ClusterObs;
use crate::ring::{HashRing, ShardId};
use crate::ClusterError;

/// Admission and health knobs of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLimits {
    /// Cluster-wide cap on concurrently routed sessions.
    pub max_sessions: usize,
    /// Virtual points per shard on the hash ring.
    pub replicas: usize,
    /// How often the health thread pings every shard.
    pub health_interval: Duration,
    /// Consecutive failed probes before a shard is declared dead.
    /// Declaring death destroys (or fails over) every session routed to
    /// the shard, so one transient probe failure (full accept backlog,
    /// ephemeral connect error) must not be enough.
    pub probes_to_kill: u32,
    /// How often the shadower sweep replicates each session's
    /// checkpoint to its ring-successor shard. `None` (the default)
    /// disables shadowing — a dead shard then fails its sessions fast,
    /// exactly as before PR 7. `Some(_)` additionally arms
    /// restore-from-shadow failover.
    pub shadow_interval: Option<Duration>,
    /// Bound on every data-plane read/write to a shard (`None` blocks
    /// forever). Health probes use their own short deadline regardless,
    /// so a stalled shard can never freeze failure detection.
    pub io_timeout: Option<Duration>,
    /// Per-shard deadline on the cluster-wide fan-out scrapes
    /// (`stats`/`cluster-stats`, `cluster-metrics` and `subscribe`
    /// pushes, `cluster-journal`, `cluster-trace`). Every scrape runs one
    /// thread per shard, so any number of stalled shards cost a scrape at
    /// most this long — never the much larger data-plane `io_timeout`.
    pub scrape_timeout: Duration,
    /// Highest protocol generation the router accepts from clients
    /// ([`PROTO_V2`] by default; pin to [`PROTO_VERSION`] to refuse the
    /// binary-framing upgrade at the front door). The router always
    /// speaks proto 2 to its shards.
    pub max_proto: u32,
}

impl Default for ClusterLimits {
    fn default() -> Self {
        ClusterLimits {
            max_sessions: 256,
            replicas: 64,
            health_interval: Duration::from_millis(500),
            probes_to_kill: 3,
            shadow_interval: None,
            io_timeout: Some(Duration::from_secs(30)),
            scrape_timeout: Duration::from_secs(2),
            max_proto: PROTO_V2,
        }
    }
}

/// Everything configurable about a cluster router.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Admission and health knobs.
    pub limits: ClusterLimits,
}

/// One shard's slice of [`ClusterStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// The shard id.
    pub id: ShardId,
    /// The shard's address.
    pub addr: SocketAddr,
    /// Whether the health checker currently considers the shard alive.
    pub alive: bool,
    /// Sessions open on the shard.
    pub sessions: usize,
    /// Jobs queued on the shard right now.
    pub queued_jobs: usize,
    /// Stream samples the shard has ingested.
    pub total_samples: u64,
    /// Modelled joules across every session the shard has hosted.
    pub total_j: f64,
    /// Whole seconds the shard's server has been up, as reported by its
    /// `stats` reply (zero for dead shards or pre-uptime servers).
    pub uptime_s: u64,
    /// Wall time of the `stats` scrape that produced this row, in
    /// microseconds (bounded by [`ClusterLimits::scrape_timeout`]; zero
    /// for a shard already marked dead, which is not scraped).
    pub scrape_us: u64,
}

/// Aggregated cluster counters (`cluster-stats` over the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-shard breakdown, ascending by shard id.
    pub shards: Vec<ShardStats>,
    /// Sessions the router is currently routing.
    pub sessions: usize,
    /// Sessions evicted (over budget or by a shard's idle sweep) whose
    /// checkpoints are claimable from disk.
    pub evicted_sessions: usize,
    /// Jobs queued across all live shards.
    pub queued_jobs: usize,
    /// Stream samples ingested across all live shards.
    pub total_samples: u64,
    /// Modelled joules across all live shards.
    pub total_j: f64,
}

/// Where one session lives, plus its admission contract.
#[derive(Debug)]
struct Route {
    shard: ShardId,
    /// Evict the session once its joules *since admission* exceed this.
    budget_j: Option<f64>,
    /// The cumulative joules the session carried when the router admitted
    /// it (non-zero for restored checkpoints). Budgets meter new work,
    /// not history — mirroring the shard's `total_j` discipline.
    baseline_j: f64,
    /// Joules spent since admission, as of the last ingest reply. Used
    /// to keep spend continuous across hot swaps (which replace the
    /// learner's cumulative counters wholesale).
    spent_j: f64,
    /// Cumulative samples the session has seen, mirrored off every
    /// relayed reply that reports `samples=` (ingest, swap, restore).
    /// Under the route lock this is *exactly* the learner's
    /// `samples_seen`, which is what lets the shadower stamp provable
    /// sequence numbers without decoding snapshots.
    samples_seen: u64,
    /// The last shadow successfully parked: `(holder shard, sequence)`.
    /// `None` until the first push (or when shadowing is disabled) — a
    /// shard death then fails the session fast, as pre-PR 7.
    shadow: Option<(ShardId, u64)>,
    /// Samples lost by a restore-from-shadow failover (ingested after
    /// the shadowed checkpoint, died with the shard). Stamped as
    /// `replay_gap=` on the session's next relayed ok reply, then
    /// cleared — the loss is reported to the client, never silent.
    replay_gap: Option<u64>,
}

impl Route {
    /// Re-points the route at `to` after a live move onto it (migration,
    /// rebalance or failover). Restoring the live session on `to` dropped
    /// any shadow parked there, so it is forgotten before a failover can
    /// trust it; and a budget `to` cannot enforce (no evict directory) is
    /// dropped rather than silently voided on every ingest.
    fn moved_to(&mut self, to: &Backend) {
        self.shard = to.id;
        if self.shadow.is_some_and(|(holder, _)| holder == to.id) {
            self.shadow = None;
        }
        if self.budget_j.is_some() && !to.supports_evict() {
            self.budget_j = None;
        }
    }
}

/// One session's routing slot. The mutex serialises that session's
/// requests against each other and against migrations.
#[derive(Debug)]
struct Slot {
    route: Mutex<Route>,
}

#[derive(Debug)]
struct Inner {
    ring: HashRing,
    backends: BTreeMap<ShardId, Arc<Backend>>,
    sessions: HashMap<String, Arc<Slot>>,
    /// Evicted sessions: id → restore path (as reported by the shard).
    evicted: HashMap<String, String>,
    /// The last flight-recorder journal captured from each live shard by
    /// the health loop's black-box sweep (refreshed every interval), so
    /// a shard that dies without warning still left its journal behind.
    journal_cache: HashMap<ShardId, String>,
    /// Post-mortem store: the last captured journal of every shard that
    /// was declared dead, frozen at death time and merged into
    /// `cluster-journal` replies.
    victim_journals: HashMap<ShardId, String>,
    next_shard: ShardId,
    shutdown: bool,
}

#[derive(Debug)]
struct State {
    limits: ClusterLimits,
    obs: ClusterObs,
    inner: Mutex<Inner>,
}

impl State {
    /// Every routed session with its slot, as the table holds them now.
    fn routes(&self) -> Vec<(String, Arc<Slot>)> {
        let inner = self.inner.lock().expect("cluster state poisoned");
        inner
            .sessions
            .iter()
            .map(|(id, slot)| (id.clone(), Arc::clone(slot)))
            .collect()
    }

    /// Whether the router is draining: its threads then stop.
    fn is_shutdown(&self) -> bool {
        self.inner.lock().expect("cluster state poisoned").shutdown
    }

    /// Every attached backend, alive or not, ascending by id.
    fn backends(&self) -> Vec<Arc<Backend>> {
        let inner = self.inner.lock().expect("cluster state poisoned");
        inner.backends.values().cloned().collect()
    }
}

/// A running cluster router. Shuts down (and joins its accept + health
/// threads, stopping owned shards) on [`Cluster::shutdown`] or drop.
#[derive(Debug)]
pub struct Cluster {
    addr: SocketAddr,
    state: Arc<State>,
    accept_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
    shadow_thread: Option<JoinHandle<()>>,
}

impl Cluster {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts routing. The
    /// cluster starts with zero shards; add some with
    /// [`Cluster::spawn_shard`] or [`Cluster::attach_shard`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn start(addr: &str, config: ClusterConfig) -> io::Result<Cluster> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            limits: config.limits,
            obs: ClusterObs::new(),
            inner: Mutex::new(Inner {
                ring: HashRing::new(config.limits.replicas),
                backends: BTreeMap::new(),
                sessions: HashMap::new(),
                evicted: HashMap::new(),
                journal_cache: HashMap::new(),
                victim_journals: HashMap::new(),
                next_shard: 0,
                shutdown: false,
            }),
        });
        let accept_thread = {
            let host = Arc::new(ClusterHost {
                state: Arc::clone(&state),
            });
            std::thread::spawn(move || accept_loop(listener, host))
        };
        let health_thread = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || health_loop(state))
        };
        let shadow_thread = state.limits.shadow_interval.map(|interval| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || shadow_loop(state, interval))
        });
        Ok(Cluster {
            addr,
            state,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
            shadow_thread,
        })
    }

    /// The router's bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawns a fresh in-process `snn-serve` shard and joins it to the
    /// ring, live-migrating every session the new ring assigns to it.
    /// A config without an `evict_dir` gets one under the system temp
    /// directory so budget eviction always has somewhere to checkpoint.
    ///
    /// # Errors
    ///
    /// Fails if the shard cannot start or a rebalancing migration fails.
    pub fn spawn_shard(&self, mut config: ServerConfig) -> Result<ShardId, ClusterError> {
        let id = next_shard_id(&self.state)?;
        if config.evict_dir.is_none() {
            let dir = std::env::temp_dir().join(format!(
                "snn-cluster-{}-{}-shard{id}",
                std::process::id(),
                self.addr.port()
            ));
            std::fs::create_dir_all(&dir).map_err(ClusterError::Io)?;
            config.evict_dir = Some(dir);
        }
        let backend = Arc::new(Backend::spawn(
            id,
            config,
            self.state.limits.io_timeout,
            self.state.obs.relay_wire.clone(),
        )?);
        join_backend(&self.state, backend)?;
        Ok(id)
    }

    /// Attaches an already-running `snn-serve` shard and joins it to the
    /// ring (rebalancing as for [`Cluster::spawn_shard`]). The shard must
    /// speak [`PROTO_V2`]; any other backend is refused with
    /// [`ClusterError::ProtoMismatch`].
    ///
    /// # Errors
    ///
    /// Fails on connection/handshake errors or a failed rebalancing
    /// migration.
    pub fn attach_shard(&self, addr: SocketAddr) -> Result<ShardId, ClusterError> {
        let id = next_shard_id(&self.state)?;
        let backend = Arc::new(Backend::attach(
            id,
            addr,
            self.state.limits.io_timeout,
            self.state.obs.relay_wire.clone(),
        )?);
        join_backend(&self.state, backend)?;
        Ok(id)
    }

    /// Drains a shard and removes it: the shard leaves the ring, every
    /// session it holds is live-migrated to its new ring placement, and
    /// (for spawned shards) the backing server is stopped. A shard that
    /// is already dead is removed by dropping its sessions instead —
    /// their state died with it.
    ///
    /// # Errors
    ///
    /// Fails if the shard id is unknown or a migration fails (the shard
    /// then stays attached, minus the ring points).
    pub fn drain_shard(&self, shard: ShardId) -> Result<usize, ClusterError> {
        let backend = {
            let mut inner = self.state.inner.lock().expect("cluster state poisoned");
            let backend = inner
                .backends
                .get(&shard)
                .cloned()
                .ok_or(ClusterError::UnknownShard(shard))?;
            inner.ring.remove(shard);
            backend
        };
        let moved = if backend.is_alive() {
            rebalance_on(&self.state)?
        } else {
            drop_sessions_of(&self.state, shard);
            0
        };
        backend.stop();
        let mut inner = self.state.inner.lock().expect("cluster state poisoned");
        inner.backends.remove(&shard);
        inner.journal_cache.remove(&shard);
        Ok(moved)
    }

    /// Live-migrates one session to a specific shard (ops/test hook; the
    /// rebalancer uses the same locked path). A no-op if the session is
    /// already there.
    ///
    /// # Errors
    ///
    /// Fails on unknown session/shard or a failed migration (the session
    /// keeps serving on its source shard).
    pub fn migrate_session(&self, id: &str, to: ShardId) -> Result<(), ClusterError> {
        let slot = {
            let inner = self.state.inner.lock().expect("cluster state poisoned");
            inner
                .sessions
                .get(id)
                .cloned()
                .ok_or_else(|| ClusterError::UnknownSession(id.to_string()))?
        };
        let mut route = slot.route.lock().expect("session route poisoned");
        if route.shard == to {
            return Ok(());
        }
        let (from_backend, to_backend) = {
            let inner = self.state.inner.lock().expect("cluster state poisoned");
            (
                inner
                    .backends
                    .get(&route.shard)
                    .cloned()
                    .ok_or(ClusterError::UnknownShard(route.shard))?,
                inner
                    .backends
                    .get(&to)
                    .cloned()
                    .ok_or(ClusterError::UnknownShard(to))?,
            )
        };
        let rid = self.state.obs.registry.mint_rid();
        migrate_locked(id, &from_backend, &to_backend, &rid, &self.state.obs)?;
        route.moved_to(&to_backend);
        Ok(())
    }

    /// Migrates every session whose ring placement differs from where it
    /// currently lives (the consequence of a shard joining or leaving).
    /// Returns how many sessions moved.
    ///
    /// # Errors
    ///
    /// Stops at the first failed migration; already-moved sessions stay
    /// moved, the failed one keeps serving on its source shard.
    pub fn rebalance(&self) -> Result<usize, ClusterError> {
        rebalance_on(&self.state)
    }

    /// The shard a session is currently routed to.
    pub fn session_shard(&self, id: &str) -> Option<ShardId> {
        let slot = {
            let inner = self.state.inner.lock().expect("cluster state poisoned");
            inner.sessions.get(id).cloned()
        }?;
        let shard = slot.route.lock().expect("session route poisoned").shard;
        Some(shard)
    }

    /// The last shadow the shadower parked for a session: `(holder
    /// shard, sequence)`. `None` for unknown sessions, before the first
    /// push, or when shadowing is disabled. Ops/test hook: lets a caller
    /// wait until a session is protected up to a known sample count
    /// before injecting faults.
    pub fn session_shadow(&self, id: &str) -> Option<(ShardId, u64)> {
        let slot = {
            let inner = self.state.inner.lock().expect("cluster state poisoned");
            inner.sessions.get(id).cloned()
        }?;
        let shadow = slot.route.lock().expect("session route poisoned").shadow;
        shadow
    }

    /// The shard ids currently attached (alive or not), ascending.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        let inner = self.state.inner.lock().expect("cluster state poisoned");
        inner.backends.keys().copied().collect()
    }

    /// Aggregated cluster counters (the Rust-side `cluster-stats`).
    pub fn stats(&self) -> ClusterStats {
        gather_stats(&self.state)
    }

    /// Stops routing: the accept and health threads are joined and every
    /// spawned shard's server is shut down. Attached external shards are
    /// left running.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        {
            let mut inner = self.state.inner.lock().expect("cluster state poisoned");
            inner.shutdown = true;
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.shadow_thread.take() {
            let _ = t.join();
        }
        for backend in self.state.backends() {
            backend.stop();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Removes `id` from the session table only if it still maps to this
/// exact slot (a racing re-open under the same id installs a fresh
/// `Arc`, which must not be clobbered); optionally records an eviction
/// tombstone in the same critical section. Returns whether the entry
/// was removed.
fn remove_route_if_current(
    state: &State,
    id: &str,
    slot: &Arc<Slot>,
    tombstone: Option<String>,
) -> bool {
    let mut inner = state.inner.lock().expect("cluster state poisoned");
    let current = matches!(inner.sessions.get(id), Some(current) if Arc::ptr_eq(current, slot));
    if current {
        inner.sessions.remove(id);
        if let Some(path) = tombstone {
            inner.evicted.insert(id.to_string(), path);
        }
    }
    current
}

/// Removes every session routed to `shard`, respecting the slot→table
/// lock order (collect under the table lock, inspect under each slot
/// lock, then re-check identity before removing).
fn drop_sessions_of(state: &State, shard: ShardId) {
    for (id, slot) in state.routes() {
        let route = slot.route.lock().expect("session route poisoned");
        if route.shard != shard {
            continue;
        }
        remove_route_if_current(state, &id, &slot, None);
    }
}

fn next_shard_id(state: &State) -> Result<ShardId, ClusterError> {
    let mut inner = state.inner.lock().expect("cluster state poisoned");
    if inner.shutdown {
        return Err(ClusterError::Shutdown);
    }
    let id = inner.next_shard;
    inner.next_shard += 1;
    Ok(id)
}

fn join_backend(state: &State, backend: Arc<Backend>) -> Result<(), ClusterError> {
    {
        let mut inner = state.inner.lock().expect("cluster state poisoned");
        inner.backends.insert(backend.id, Arc::clone(&backend));
        inner.ring.add(backend.id);
    }
    rebalance_on(state)?;
    Ok(())
}

/// See [`Cluster::rebalance`], whose contract this implements.
fn rebalance_on(state: &State) -> Result<usize, ClusterError> {
    state.obs.rebalances.inc();
    let mut moved = 0usize;
    for (id, slot) in state.routes() {
        let mut route = slot.route.lock().expect("session route poisoned");
        let (from_backend, to_backend) = {
            let inner = state.inner.lock().expect("cluster state poisoned");
            let Some(target) = inner.ring.shard_for(&id) else {
                continue; // ringless cluster: nowhere to move anything
            };
            if target == route.shard {
                continue;
            }
            (
                inner.backends.get(&route.shard).cloned(),
                inner.backends.get(&target).cloned(),
            )
        };
        let (Some(from_backend), Some(to_backend)) = (from_backend, to_backend) else {
            continue; // backend raced away; the health/drain path owns it
        };
        let rid = state.obs.registry.mint_rid();
        migrate_locked(&id, &from_backend, &to_backend, &rid, &state.obs)?;
        state.obs.sessions_moved.inc();
        route.moved_to(&to_backend);
        moved += 1;
    }
    Ok(moved)
}

// ---------------------------------------------------------------------------
// Health and shadow threads.

fn health_loop(state: Arc<State>) {
    let mut last_sweep = Instant::now();
    // Per striking shard: its consecutive failed probes and the "death
    // rid", minted at the first failed probe and carried by every
    // probe-fail, the shard-down verdict, and (as `cause=`) each
    // resulting failover — one id stitches the whole incident through
    // the merged journal.
    let mut striking: HashMap<ShardId, (u32, String)> = HashMap::new();
    while !state.is_shutdown() {
        // Nap in small slices so shutdown never waits a full interval.
        std::thread::sleep(Duration::from_millis(20));
        if last_sweep.elapsed() < state.limits.health_interval {
            continue;
        }
        last_sweep = Instant::now();
        health_sweep(&state, &mut striking);
    }
}

/// What a health visit learned from a shard that answered its probe.
struct Health {
    /// The shard's flight-recorder journal, when the capture answered.
    journal: Option<String>,
    /// The shard's own session count, when its `stats` answered.
    sessions: Option<usize>,
}

/// One health sweep. Every live shard is visited at once through
/// [`fan_out`]: a `ping` under the probe deadline and, only if it
/// answers, the black-box `journal` capture and reconcile's `stats`
/// under the scrape deadline — so however many shards stall or wedge,
/// a sweep waits at most one probe deadline plus two scrape deadlines.
/// Then, in shard order, answered probes clear strikes and refresh the
/// journal cache, failed ones [`strike`], and [`reconcile`] runs
/// against the shards whose `stats` answered.
fn health_sweep(state: &State, striking: &mut HashMap<ShardId, (u32, String)>) {
    let visits = fan_out(state, |backend| {
        backend.ping().then(|| Health {
            journal: scrape(state, backend, "journal", |resp| hex_text(&resp, "data")).reply,
            sessions: scrape(state, backend, "stats", |resp| {
                resp.get("sessions")?.parse().ok()
            })
            .reply,
        })
    });
    let mut counted = Vec::new();
    for (backend, visit) in visits {
        match visit {
            // Already dead, so not contacted: nothing left to strike.
            None => {
                striking.remove(&backend.id);
            }
            Some(Some(health)) => {
                state.obs.probe_ok.inc();
                striking.remove(&backend.id);
                // Black-box sweep: the cached copy of the shard's flight
                // recorder is refreshed while it still answers, so a
                // death in the next interval leaves a journal behind for
                // the post-mortem.
                if let Some(text) = health.journal {
                    let mut inner = state.inner.lock().expect("cluster state poisoned");
                    inner.journal_cache.insert(backend.id, text);
                }
                if let Some(sessions) = health.sessions {
                    counted.push((backend, sessions));
                }
            }
            Some(None) => strike(state, &backend, striking),
        }
    }
    reconcile(state, &counted);
}

/// One failed probe of a live shard: a `cluster.probe_fail` strike under
/// the incident's death rid and, at [`ClusterLimits::probes_to_kill`]
/// consecutive strikes, the verdict — the shard leaves the ring, its last
/// captured journal is frozen for the post-mortem, and its sessions fail
/// over (with shadowing) or drop.
fn strike(state: &State, backend: &Backend, striking: &mut HashMap<ShardId, (u32, String)>) {
    state.obs.probe_fail.inc();
    let (strikes, rid) = striking
        .entry(backend.id)
        .or_insert_with(|| (0, state.obs.registry.mint_rid()));
    *strikes += 1;
    state.obs.registry.journal_event(
        "cluster.probe_fail",
        rid,
        &[
            ("shard", backend.id.to_string()),
            ("strike", strikes.to_string()),
        ],
    );
    if *strikes < state.limits.probes_to_kill {
        return;
    }
    let (_, rid) = striking.remove(&backend.id).expect("the shard just struck");
    state.obs.shard_down.inc();
    state.obs.registry.journal_event(
        "cluster.shard_down",
        &rid,
        &[("shard", backend.id.to_string())],
    );
    backend.mark_dead();
    {
        let mut inner = state.inner.lock().expect("cluster state poisoned");
        inner.ring.remove(backend.id);
        // Freeze the victim's last captured journal: its own process may
        // be gone, but the black-box copy survives and rides in every
        // later `cluster-journal` merge.
        if let Some(text) = inner.journal_cache.remove(&backend.id) {
            inner.victim_journals.insert(backend.id, text);
        }
    }
    if state.limits.shadow_interval.is_some() {
        // Shadowed sessions resume from their replicas on live shards;
        // the rest (never shadowed, stale, or the restore failed) fail
        // fast as before.
        failover_sessions_of(state, backend.id, &rid);
    } else {
        // Their state died with the shard: fail the sessions now rather
        // than letting clients discover it one timeout at a time.
        drop_sessions_of(state, backend.id);
    }
}

/// Shards evict sessions on their own (idle sweeps, operators talking
/// to a shard directly); if the affected clients never send another
/// request, the relayed-reply mirror in `handle_session` never fires
/// and the stale routes would hold cluster admission capacity forever.
/// This pass compares each shard's own session count — the `stats` its
/// health visit just scraped — against the routes pointing at it. Only
/// a shortfall triggers per-route `report` probes, and only to a shard
/// that has just answered, so the steady-state cost is the sweep's one
/// `stats` round trip per shard.
fn reconcile(state: &State, counted: &[(Arc<Backend>, usize)]) {
    if counted.is_empty() {
        return;
    }
    let mut routed: HashMap<ShardId, Vec<(String, Arc<Slot>)>> = HashMap::new();
    for (id, slot) in state.routes() {
        let shard = slot.route.lock().expect("session route poisoned").shard;
        routed.entry(shard).or_default().push((id, slot));
    }
    for (backend, shard_sessions) in counted {
        let Some(routes) = routed.get(&backend.id) else {
            continue;
        };
        if *shard_sessions >= routes.len() || !backend.is_alive() {
            continue;
        }
        // The shard holds fewer sessions than we route to it: probe each
        // route under its lock (serialising with in-flight requests and
        // migrations) and mirror what the shard actually says.
        for (id, slot) in routes {
            let route = slot.route.lock().expect("session route poisoned");
            if route.shard != backend.id {
                continue; // migrated since the snapshot
            }
            let Ok(reply) = backend.call_raw(&format!("report id={id}"), true) else {
                continue;
            };
            if reply.starts_with("ok") {
                continue;
            }
            match parse_response(&reply) {
                Ok(Response::Err { code, msg }) if code == "session-evicted" => {
                    remove_route_if_current(state, id, slot, Some(msg));
                }
                Ok(Response::Err { code, .. }) if code == "unknown-session" => {
                    remove_route_if_current(state, id, slot, None);
                }
                _ => {}
            }
        }
    }
}

/// The shadower thread: every `interval`, replicate each session's
/// checkpoint to its ring-successor shard (see `crate::heal`). Runs only
/// when [`ClusterLimits::shadow_interval`] is set.
fn shadow_loop(state: Arc<State>, interval: Duration) {
    let mut last_sweep = std::time::Instant::now();
    while !state.is_shutdown() {
        // Nap in small slices so shutdown never waits a full interval.
        std::thread::sleep(Duration::from_millis(10));
        if last_sweep.elapsed() < interval {
            continue;
        }
        last_sweep = std::time::Instant::now();
        shadow_sweep(&state);
    }
}

/// One shadower pass over every routed session. Each push runs under
/// the session's route lock (serialising with requests, migrations and
/// failover), and the sweep refreshes the `cluster.shadow_lag` gauge
/// with the worst per-session sample gap it leaves behind.
fn shadow_sweep(state: &State) {
    let mut max_lag = 0u64;
    for (id, slot) in state.routes() {
        let mut route = slot.route.lock().expect("session route poisoned");
        let lag_of = |route: &Route| {
            route
                .samples_seen
                .saturating_sub(route.shadow.map_or(0, |(_, seq)| seq))
        };
        // Nothing new to park: the current holder already has this exact
        // sequence (stores at equal seq are idempotent, so skipping is
        // purely a traffic optimisation).
        if route
            .shadow
            .is_some_and(|(_, seq)| seq >= route.samples_seen)
        {
            max_lag = max_lag.max(lag_of(&route));
            continue;
        }
        let (home, holder) = {
            let inner = state.inner.lock().expect("cluster state poisoned");
            // The natural holder is the key's ring successor — never the
            // key's owner. A session migrated *onto* its own successor
            // falls back to the ring owner, keeping the invariant that a
            // shadow never lives on the shard serving the session.
            let holder_id = match inner.ring.successor(&id) {
                Some(s) if s != route.shard => Some(s),
                Some(_) => inner.ring.shard_for(&id).filter(|&o| o != route.shard),
                None => None,
            };
            (
                inner.backends.get(&route.shard).cloned(),
                holder_id.and_then(|h| inner.backends.get(&h).cloned()),
            )
        };
        let (Some(home), Some(holder)) = (home, holder) else {
            // No live (home, holder) pair — e.g. a single-shard ring has
            // nowhere distinct to replicate to. The lag keeps accruing
            // and the gauge shows it.
            max_lag = max_lag.max(lag_of(&route));
            continue;
        };
        if !home.is_alive() || !holder.is_alive() {
            max_lag = max_lag.max(lag_of(&route));
            continue;
        }
        let rid = state.obs.registry.mint_rid();
        let seq = route.samples_seen;
        if shadow_locked(&id, seq, &home, &holder, &rid, &state.obs).is_ok() {
            route.shadow = Some((holder.id, seq));
        }
        max_lag = max_lag.max(lag_of(&route));
    }
    state.obs.shadow_lag.set(max_lag as f64);
}

/// Restores every session routed to the dead shard from its shadow onto
/// a live shard, under each session's route lock. A session without a
/// provable shadow (never pushed, holder lost it, sequence mismatch, or
/// the restore failed) falls back to the fail-fast drop — its next
/// request answers `unknown-session`, exactly the pre-shadowing
/// behaviour.
fn failover_sessions_of(state: &State, dead: ShardId, cause: &str) {
    // A failed failover (no shadow, dead holder/target, or a refused
    // restore) drops the session exactly as before; the journal records
    // the failure under the incident's death rid so the post-mortem
    // explains the loss.
    let journal_fail = |id: &str| {
        state.obs.registry.journal_event(
            "cluster.failover_fail",
            "",
            &[("id", id.to_string()), ("cause", cause.to_string())],
        );
    };
    for (id, slot) in state.routes() {
        let mut route = slot.route.lock().expect("session route poisoned");
        if route.shard != dead {
            continue;
        }
        let Some((holder_id, expect_seq)) = route.shadow else {
            state.obs.failover_fail.inc();
            journal_fail(&id);
            remove_route_if_current(state, &id, &slot, None);
            continue;
        };
        let (holder, target) = {
            let inner = state.inner.lock().expect("cluster state poisoned");
            // The dead shard already left the ring, so `shard_for` is a
            // live placement (possibly the holder itself — restoring
            // there promotes the shadow to a live session in place).
            let target = inner
                .ring
                .shard_for(&id)
                .and_then(|t| inner.backends.get(&t).cloned());
            (inner.backends.get(&holder_id).cloned(), target)
        };
        let pair = match (holder, target) {
            (Some(h), Some(t)) if h.is_alive() && t.is_alive() => Some((h, t)),
            _ => None,
        };
        let Some((holder, target)) = pair else {
            state.obs.failover_fail.inc();
            journal_fail(&id);
            remove_route_if_current(state, &id, &slot, None);
            continue;
        };
        let rid = state.obs.registry.mint_rid();
        match failover_locked(&id, expect_seq, &holder, &target, &rid, &state.obs) {
            Ok(seq) => {
                // The failover's own rid (which the target shard's
                // `serve.restore` journal entry also carries, relayed on
                // the restore line) plus `cause=` — the death rid — is
                // what lets a post-mortem chain probe strikes to the
                // verdict to the recovery, across tiers.
                state.obs.registry.journal_event(
                    "cluster.failover",
                    &rid,
                    &[
                        ("id", id.clone()),
                        ("cause", cause.to_string()),
                        ("from", dead.to_string()),
                        ("to", target.id.to_string()),
                        ("seq", seq.to_string()),
                    ],
                );
                route.moved_to(&target);
                // Samples past the shadowed checkpoint died with the
                // shard; report the gap on the next relayed reply.
                route.replay_gap = Some(route.samples_seen.saturating_sub(seq));
                route.samples_seen = seq;
                // Restoring a live session under the id drops the
                // holder's shadow copy; force a fresh push next sweep.
                route.shadow = None;
            }
            Err(_) => {
                journal_fail(&id);
                remove_route_if_current(state, &id, &slot, None);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling.

/// Routes one client line under its request id, timing the router's
/// whole ownership of the request as the trace tree's `accept` root
/// span. The rid is the client's (when the line already ends in
/// `rid=…`) or freshly minted; either way the line the router routes
/// carries it as the **final field**, so the relay span, the shard's
/// request-path spans, and this root all share one id. Returns
/// `(reply line, rid)`.
fn accept_line(line: &str, state: &State) -> (String, String) {
    let trimmed = line.trim_end_matches(['\r', '\n']);
    let (routed, rid) = match extract_rid(trimmed) {
        Some(rid) => (trimmed.to_string(), rid.to_string()),
        None => {
            let rid = state.obs.registry.mint_rid();
            (format!("{trimmed} rid={rid}"), rid)
        }
    };
    let t0 = Instant::now();
    let reply = route_line(&routed, state);
    let dur = t0.elapsed();
    state.obs.registry.span(
        "cluster.phase.accept",
        &rid,
        dur,
        &[("phase", "accept".to_string())],
    );
    (reply, rid)
}

/// The router as the connection front end's [`MuxHost`]: requests are
/// answered by [`route_line`] under both protocol generations, and
/// subscription pushes carry the merged cluster-wide exposition.
#[derive(Debug)]
struct ClusterHost {
    state: Arc<State>,
}

impl MuxHost for ClusterHost {
    fn handle_line(
        &self,
        line: &str,
        proto: u32,
        reply: &mut dyn FnMut(String) -> io::Result<()>,
    ) -> io::Result<()> {
        let state = &*self.state;
        // Hello and subscribe are connection control, not request
        // traffic: they never mint a rid, so a negotiated connection, a
        // streaming one and a bare one leave the rid sequence — and the
        // byte-exact relay lines later rids ride on — identical.
        let verb = line.split(' ').next().unwrap_or_default();
        if matches!(verb.trim_end_matches(['\r', '\n']), "hello" | "subscribe") {
            return reply(route_line(line, state));
        }
        let (answer, rid) = accept_line(line, state);
        state.obs.wire(proto).count_payload(line, &answer);
        if proto >= PROTO_V2 {
            // The shared writer thread writes the reply, so proto 2
            // traces have no router-side write node — the writer-queue
            // gauge is what shows that backlog instead.
            return reply(answer);
        }
        let w0 = Instant::now();
        reply(answer)?;
        state.obs.registry.span(
            "cluster.phase.write",
            &rid,
            w0.elapsed(),
            &[
                ("phase", "write".to_string()),
                ("parent", "accept".to_string()),
            ],
        );
        Ok(())
    }

    fn exposition(&self) -> String {
        merged_metrics(&self.state).2.render()
    }

    fn journal(&self) -> JournalSnapshot {
        self.state.obs.registry.journal_snapshot()
    }

    fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    fn subscriber(&self) -> (Arc<Counter>, Arc<Counter>) {
        let obs = &self.state.obs;
        (Arc::clone(&obs.subscribe_drops), obs.subscriber().1)
    }

    fn on_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        self.state.obs.wire(proto).count(rx_bytes, tx_bytes);
    }

    fn on_queue_wait(&self, line: &str, waited: Duration) {
        // Only rid-bearing frames get a demux-wait node: a rid minted
        // here would never match the accept span's rid.
        if let Some(rid) = extract_rid(line.trim_end_matches(['\r', '\n'])) {
            self.state.obs.registry.span(
                "cluster.phase.demux_wait",
                rid,
                waited,
                &[
                    ("phase", "demux_wait".to_string()),
                    ("parent", "accept".to_string()),
                ],
            );
        }
    }

    fn on_flow(&self, tags_in_flight: u64, writer_queue: u64) {
        self.state.obs.tags_in_flight.set(tags_in_flight as f64);
        self.state.obs.writer_queue.set(writer_queue as f64);
    }
}

fn err_line(code: &str, msg: &str) -> String {
    format_response(&Response::error(code, msg))
}

fn cluster_err_line(e: &ClusterError) -> String {
    err_line(e.code(), &e.to_string())
}

fn find<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Routes one raw request line to its reply line (no trailing newline).
fn route_line(line: &str, state: &State) -> String {
    let (verb, fields) = match protocol::tokenize(line) {
        Ok(parts) => parts,
        Err(e) => return err_line("bad-request", &e.to_string()),
    };
    match verb.as_str() {
        "hello" => match find(&fields, "proto").map(str::parse::<u32>) {
            Some(Ok(proto)) if proto >= PROTO_VERSION && proto <= state.limits.max_proto => {
                format_response(&Response::ok([
                    ("proto", proto.to_string()),
                    ("server", "snn-cluster".to_string()),
                    ("journal", "1".to_string()),
                    ("subscribe", "1".to_string()),
                    ("trace", "1".to_string()),
                ]))
            }
            Some(Ok(proto)) => err_line(
                "proto-mismatch",
                &format!(
                    "cluster speaks proto {PROTO_VERSION}..{}, client sent {proto}",
                    state.limits.max_proto
                ),
            ),
            _ => err_line("bad-request", "hello needs a numeric proto field"),
        },
        "ping" => {
            if state.is_shutdown() {
                // Mirror the shard server: a draining router is not a
                // healthy routing target.
                err_line("shutdown", "cluster shutting down")
            } else {
                format_response(&Response::ok([
                    ("pong", "1".to_string()),
                    ("proto", PROTO_VERSION.to_string()),
                ]))
            }
        }
        "stats" => stats_line(state),
        "cluster-stats" => cluster_stats_line(state),
        "metrics" => metrics_line(state),
        "cluster-metrics" => cluster_metrics_line(state),
        "journal" => journal_line(state),
        "cluster-journal" => cluster_journal_line(state),
        "trace" => trace_line(state, &fields),
        "cluster-trace" => cluster_trace_line(state, &fields),
        // The shard's rule and ack: the front end then streams the
        // merged exposition.
        "subscribe" => format_response(&match parse_request(line) {
            Ok(Request::Subscribe { interval_ms }) => subscribe_ack(interval_ms),
            Ok(_) => Response::error("bad-request", "not a subscribe line"),
            Err(e) => Response::error("bad-request", e.to_string()),
        }),
        "open" | "restore" | "close" | "evict" | "ingest" | "report" | "energy" | "checkpoint"
        | "swap" => relay(line, &verb, &fields, state),
        other => err_line("bad-request", &format!("unknown verb {other:?}")),
    }
}

/// Forwards one data-plane line through its per-verb handler. The line
/// already ends in its request id — [`accept_line`] appended it to every
/// line that reaches here — and is relayed verbatim, so the shard's spans
/// and the router's relay span share one id and a `cluster-metrics`
/// scrape can stitch a request's path across processes.
fn relay(line: &str, verb: &str, fields: &[(String, String)], state: &State) -> String {
    let obs = &state.obs;
    obs.relays.inc();
    let line = line.trim_end_matches(['\r', '\n']);
    let rid = extract_rid(line).unwrap_or_default();
    let t0 = Instant::now();
    let reply = match verb {
        "open" | "restore" => handle_open(line, fields, state),
        "close" | "evict" => handle_release(line, verb, fields, state),
        _ => handle_session(line, verb, fields, state),
    };
    let dur = t0.elapsed();
    obs.relay_us.record_duration(dur);
    let mut span_fields = vec![
        ("verb", verb.to_string()),
        ("phase", "relay".to_string()),
        ("parent", "accept".to_string()),
    ];
    if let Some(id) = find(fields, "id") {
        span_fields.push(("id", id.to_string()));
    }
    obs.registry
        .span(&format!("cluster.relay.{verb}"), rid, dur, &span_fields);
    reply
}

/// The router's own `metrics` exposition (hex in the `data` field, same
/// shape as a shard's so [`snn_serve::ServeClient::metrics`] works
/// against either tier).
fn metrics_line(state: &State) -> String {
    format_response(&Response::ok([
        ("instance", state.obs.registry.instance().to_string()),
        (
            "data",
            hex_encode(router_snapshot(state).render().as_bytes()),
        ),
    ]))
}

/// The router registry's snapshot with point-in-time gauges refreshed.
fn router_snapshot(state: &State) -> Snapshot {
    let r = &state.obs.registry;
    let (sessions, evicted, shards, alive) = {
        let inner = state.inner.lock().expect("cluster state poisoned");
        (
            inner.sessions.len(),
            inner.evicted.len(),
            inner.backends.len(),
            inner.backends.values().filter(|b| b.is_alive()).count(),
        )
    };
    r.gauge("cluster.sessions").set(sessions as f64);
    r.gauge("cluster.evicted_sessions").set(evicted as f64);
    r.gauge("cluster.shards").set(shards as f64);
    r.gauge("cluster.alive_shards").set(alive as f64);
    // Build/version info rides as an info-style gauge (the version is
    // part of the name, the value is always 1) plus the router's uptime,
    // so every scrape answers "what build, up how long" for free.
    r.gauge(&format!("build.info.{}", env!("CARGO_PKG_VERSION")))
        .set(1.0);
    r.gauge("cluster.uptime_s").set(r.uptime_us() as f64 / 1e6);
    r.snapshot()
}

/// One shard's answer to one [`scrape`].
struct Scraped<T> {
    /// Wall time of the round trip.
    elapsed: Duration,
    /// The parsed reply; `None` when the shard timed out, failed, or
    /// answered something the caller's parser rejects.
    reply: Option<T>,
}

/// The one way the router reaches every shard at once: runs `visit` for
/// each live shard on its own thread, so any number of stalled shards
/// cost the caller one visit's deadlines, never one per shard. Visits
/// contact a shard only on dedicated deadline-bounded connections
/// ([`Backend::ping`], [`scrape`]), never over the data plane and its
/// much larger `io_timeout`. Returns every attached shard, ascending by
/// id, with its visit's result — `None` for a shard already marked dead,
/// which is not contacted.
fn fan_out<T: Send>(
    state: &State,
    visit: impl Fn(&Backend) -> T + Sync,
) -> Vec<(Arc<Backend>, Option<T>)> {
    let visit = &visit;
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .backends()
            .into_iter()
            .map(|backend| {
                scope.spawn(move || {
                    let result = backend.is_alive().then(|| visit(&backend));
                    (backend, result)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out thread"))
            .collect()
    })
}

/// One round trip of `line` to a shard on a dedicated connection under
/// [`ClusterLimits::scrape_timeout`] ([`Backend::call_with_deadline`]),
/// timed into `cluster.scrape_us`. A reply that is missing or rejected
/// by `parse` ticks [`record_scrape_fail`].
fn scrape<T>(
    state: &State,
    backend: &Backend,
    line: &str,
    parse: impl FnOnce(Response) -> Option<T>,
) -> Scraped<T> {
    let t0 = Instant::now();
    let reply = backend
        .call_with_deadline(line, state.limits.scrape_timeout)
        .and_then(|reply| parse_response(&reply).ok())
        .and_then(parse);
    let elapsed = t0.elapsed();
    state.obs.scrape_us.record_duration(elapsed);
    if reply.is_none() {
        record_scrape_fail(state, backend.id);
    }
    Scraped { elapsed, reply }
}

/// A one-scrape [`fan_out`]'s live shards contacted, and the replies
/// that parsed.
fn replies<T>(scraped: Vec<(Arc<Backend>, Option<Scraped<T>>)>) -> (usize, Vec<T>) {
    let attempted = scraped.iter().filter(|(_, s)| s.is_some()).count();
    let parsed = scraped.into_iter().filter_map(|(_, s)| s?.reply);
    (attempted, parsed.collect())
}

/// A reply's hex-encoded text field, decoded (`None` when absent or not
/// hex-encoded UTF-8).
fn hex_text(resp: &Response, key: &str) -> Option<String> {
    String::from_utf8(hex_decode(resp.get(key)?).ok()?).ok()
}

/// `cluster-metrics`: every live shard's `metrics` exposition merged with
/// the router's own snapshot (hex in `data`). A slow or garbled shard
/// costs one deadline and one `cluster.scrape_fail` tick, never the whole
/// scrape.
fn cluster_metrics_line(state: &State) -> String {
    let (attempted, ok, merged) = merged_metrics(state);
    format_response(&Response::ok([
        ("instance", state.obs.registry.instance().to_string()),
        ("shards", attempted.to_string()),
        ("scraped", ok.to_string()),
        ("failed", (attempted - ok).to_string()),
        ("data", hex_encode(merged.render().as_bytes())),
    ]))
}

/// The cluster-wide merged exposition behind `cluster-metrics` and the
/// router's `subscribe` stream. Returns `(live shards attempted, scrapes
/// that succeeded, merged snapshot)`.
fn merged_metrics(state: &State) -> (usize, usize, Snapshot) {
    let (attempted, snaps) = replies(fan_out(state, |shard| {
        scrape(state, shard, "metrics", |resp| {
            Snapshot::parse(&hex_text(&resp, "data")?).ok()
        })
    }));
    let ok = snaps.len();
    let mut merged = router_snapshot(state);
    for snap in snaps {
        merged.merge(&snap);
    }
    (attempted, ok, merged)
}

/// Records a failed fan-out scrape of a live shard, attributing the
/// failure to the shard that caused it: the aggregate counter keeps its
/// historical name, a per-shard counter (`cluster.scrape_fail.s<id>`)
/// pins the culprit, and a journal event preserves it for post-mortems.
fn record_scrape_fail(state: &State, shard: ShardId) {
    state.obs.scrape_fail.inc();
    state
        .obs
        .registry
        .counter(&format!("cluster.scrape_fail.s{shard}"))
        .inc();
    state
        .obs
        .registry
        .journal_event("cluster.scrape_fail", "", &[("shard", shard.to_string())]);
}

/// `journal`: the router's own flight recorder (hex in `data`, the same
/// shape as a shard's so [`snn_serve::ServeClient::journal`] works
/// against either tier).
fn journal_line(state: &State) -> String {
    format_response(&Response::ok([
        ("instance", state.obs.registry.instance().to_string()),
        (
            "data",
            hex_encode(state.obs.registry.journal_snapshot().render().as_bytes()),
        ),
    ]))
}

/// `cluster-journal`: the merged cluster-wide flight recorder — the
/// router's own journal, every live shard's fetched now through
/// [`fan_out`], and the frozen post-mortem copies of dead shards. The
/// merge is ordered by event timestamp, so the tail of the reply reads
/// as the cluster's last moments in causal order.
fn cluster_journal_line(state: &State) -> String {
    let (attempted, journals) = replies(fan_out(state, |shard| {
        scrape(state, shard, "journal", |resp| {
            JournalSnapshot::parse(&hex_text(&resp, "data")?).ok()
        })
    }));
    let ok = journals.len();
    let mut merged = state.obs.registry.journal_snapshot();
    for snap in journals.iter().chain(&victim_journals(state)) {
        merged.merge(snap);
    }
    format_response(&Response::ok([
        ("instance", state.obs.registry.instance().to_string()),
        ("shards", attempted.to_string()),
        ("scraped", ok.to_string()),
        ("data", hex_encode(merged.render().as_bytes())),
    ]))
}

/// The frozen post-mortem journals of every shard declared dead.
fn victim_journals(state: &State) -> Vec<JournalSnapshot> {
    let inner = state.inner.lock().expect("cluster state poisoned");
    inner
        .victim_journals
        .values()
        .filter_map(|text| JournalSnapshot::parse(text).ok())
        .collect()
}

/// `trace rid=…`: the router's own raw trace material for one request
/// id — its rid-filtered spans (a spans-only exposition in `data`) and
/// rid-filtered journal events (in `journal`), the same reply shape a
/// shard answers, so [`snn_serve::ServeClient::trace`] works against
/// either tier. The merged, assembled view is `cluster-trace`.
fn trace_line(state: &State, fields: &[(String, String)]) -> String {
    let Some(rid) = find(fields, "rid") else {
        return err_line("bad-request", "missing field rid");
    };
    if !valid_rid(rid) {
        return err_line("bad-request", "invalid rid");
    }
    format_response(&trace_reply(&state.obs.registry, rid))
}

/// `cluster-trace rid=…`: the on-demand cluster-wide trace assembler.
/// Fans `trace rid=…` out to every live shard through [`fan_out`] (a slow
/// shard costs one deadline and a `cluster.scrape_fail` tick, never the
/// whole trace), merges the shards' spans and journal events with the
/// router's own rid-filtered material **and the frozen post-mortem
/// journals of dead shards**, assembles the parent-linked trace tree, and
/// replies with the rendered `# snn-trace v1` document (hex in `data`). A
/// request that crossed a shard which has since died still explains
/// itself: the victim's journal events ride in as `via=journal` leaves.
fn cluster_trace_line(state: &State, fields: &[(String, String)]) -> String {
    let Some(rid) = find(fields, "rid") else {
        return err_line("bad-request", "missing field rid");
    };
    if !valid_rid(rid) {
        return err_line("bad-request", "invalid rid");
    }
    let line = format!("trace rid={rid}");
    let (attempted, traces) = replies(fan_out(state, |shard| {
        scrape(state, shard, &line, |resp| {
            Some((
                Snapshot::parse(&hex_text(&resp, "data")?).ok()?,
                JournalSnapshot::parse(&hex_text(&resp, "journal")?).ok()?,
            ))
        })
    }));
    let ok = traces.len();
    let mut spans = state.obs.registry.snapshot().spans;
    let mut events = state.obs.registry.journal_snapshot().events;
    for (snap, journal) in traces {
        spans.extend(snap.spans);
        events.extend(journal.events);
    }
    for journal in victim_journals(state) {
        events.extend(journal.events);
    }
    let Some(tree) = TraceTree::assemble(rid, &spans, &events) else {
        return err_line(
            "unknown-rid",
            &format!("no span or journal event references rid {rid}"),
        );
    };
    format_response(&Response::ok([
        ("rid", rid.to_string()),
        ("shards", attempted.to_string()),
        ("scraped", ok.to_string()),
        ("failed", (attempted - ok).to_string()),
        ("nodes", tree.root.count().to_string()),
        ("root_us", tree.root.dur_us.to_string()),
        ("data", hex_encode(tree.render().as_bytes())),
    ]))
}

/// `open`/`restore`: cluster admission, ring placement, optimistic table
/// reservation, then forward. The reservation is removed again if the
/// shard rejects the request.
fn handle_open(line: &str, fields: &[(String, String)], state: &State) -> String {
    let Some(id) = find(fields, "id") else {
        return err_line("bad-request", "missing field id");
    };
    if !protocol::valid_session_id(id) {
        return err_line("bad-request", "invalid session id");
    }
    let budget_j = match find(fields, "budget_j") {
        None => None,
        Some(raw) => match raw.parse::<f64>() {
            Ok(b) if b.is_finite() && b > 0.0 => Some(b),
            _ => return err_line("bad-request", "budget_j must be a positive number"),
        },
    };
    // Create the slot and lock its route *before* publication: a racing
    // request for the same id then queues behind the open instead of
    // reaching the shard ahead of the forwarded `open` line. (The lock
    // is uncontended here — nobody else holds the Arc yet.)
    let slot = Arc::new(Slot {
        route: Mutex::new(Route {
            shard: ShardId::MAX, // placed under the table lock below
            budget_j,
            baseline_j: 0.0,
            spent_j: 0.0,
            samples_seen: 0,
            shadow: None,
            replay_gap: None,
        }),
    });
    let mut route = slot.route.lock().expect("session route poisoned");
    let backend = {
        let mut inner = state.inner.lock().expect("cluster state poisoned");
        if inner.shutdown {
            return err_line("shutdown", "cluster shutting down");
        }
        if inner.sessions.contains_key(id) {
            return err_line("duplicate-session", &format!("session {id} already exists"));
        }
        if inner.sessions.len() >= state.limits.max_sessions {
            return err_line(
                "admission",
                &format!(
                    "cluster session limit reached ({}/{})",
                    inner.sessions.len(),
                    state.limits.max_sessions
                ),
            );
        }
        let Some(shard) = inner.ring.shard_for(id) else {
            return cluster_err_line(&ClusterError::NoShards);
        };
        let backend = inner
            .backends
            .get(&shard)
            .cloned()
            .expect("ring shards are attached backends");
        if budget_j.is_some() && !backend.supports_evict() {
            // A budget the placement shard can never enforce (no evict
            // directory) would be silently void; refuse it up front.
            return err_line(
                "bad-request",
                &format!("shard {shard} has no evict directory and cannot enforce budget_j"),
            );
        }
        route.shard = shard;
        inner.sessions.insert(id.to_string(), Arc::clone(&slot));
        // The eviction tombstone (if any) survives until the shard
        // accepts the open/restore: a rejected restore must not destroy
        // the client's only pointer to its on-disk checkpoint.
        backend
    };
    let release = |state: &State| {
        remove_route_if_current(state, id, &slot, None);
    };
    match backend.call_raw(line, false) {
        Ok(reply) => {
            if reply.starts_with("ok") {
                // Budgets meter work done *from here on*: a restored
                // checkpoint's carried joules (total_j on the reply) are
                // history, not spend. The restore reply also reports the
                // checkpoint's cumulative samples — the starting point
                // for shadow-sequence accounting.
                if let Ok(resp) = parse_response(&reply) {
                    route.baseline_j = resp
                        .get("total_j")
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0);
                    route.samples_seen = resp
                        .get("samples")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                let mut inner = state.inner.lock().expect("cluster state poisoned");
                inner.evicted.remove(id);
            } else {
                release(state);
            }
            reply
        }
        Err(e) => {
            // The reply was lost but the shard may have applied the open;
            // a best-effort close undoes the possible orphan (it answers
            // unknown-session if the open never landed), so a client
            // retrying this id cannot be wedged on duplicate-session.
            let _ = backend.call_raw(&format!("close id={id}"), false);
            release(state);
            cluster_err_line(&e)
        }
    }
}

/// `close`/`evict`: forward, then drop (close) or tombstone (evict) the
/// routing entry on success.
fn handle_release(line: &str, verb: &str, fields: &[(String, String)], state: &State) -> String {
    let Some((id, slot)) = lookup(fields, state) else {
        return missing_session_line(fields, state);
    };
    let mut route = slot.route.lock().expect("session route poisoned");
    let Some(backend) = live_backend(&id, route.shard, &slot, state) else {
        return err_line("shard-down", &format!("shard {} is down", route.shard));
    };
    match backend.call_raw(line, false) {
        Ok(mut reply) => {
            if reply.starts_with("ok") {
                {
                    let mut inner = state.inner.lock().expect("cluster state poisoned");
                    inner.sessions.remove(&id);
                    if verb == "evict" {
                        let path = parse_response(&reply)
                            .ok()
                            .and_then(|r| r.get("path").map(str::to_string))
                            .unwrap_or_default();
                        inner.evicted.insert(id.clone(), path);
                    }
                }
                // Even a session released right after a failover is owed
                // its replay-gap disclosure.
                if let Some(gap) = route.replay_gap.take() {
                    reply.push_str(&format!(" replay_gap={gap}"));
                }
            } else {
                sync_shard_eviction(&id, &slot, &reply, state);
            }
            reply
        }
        Err(e) => cluster_err_line(&e),
    }
}

/// The per-session data-plane verbs: forward to the pinned shard, then
/// enforce the energy budget after a successful `ingest`.
fn handle_session(line: &str, verb: &str, fields: &[(String, String)], state: &State) -> String {
    let Some((id, slot)) = lookup(fields, state) else {
        return missing_session_line(fields, state);
    };
    let mut route = slot.route.lock().expect("session route poisoned");
    let Some(backend) = live_backend(&id, route.shard, &slot, state) else {
        return err_line("shard-down", &format!("shard {} is down", route.shard));
    };
    let idempotent = matches!(verb, "report" | "energy" | "checkpoint");
    match backend.call_raw(line, idempotent) {
        Ok(mut reply) => {
            let reply_total_j = || {
                parse_response(&reply)
                    .ok()
                    .and_then(|r| r.get("total_j").and_then(|v| v.parse::<f64>().ok()))
            };
            let reply_samples = || {
                parse_response(&reply)
                    .ok()
                    .and_then(|r| r.get("samples").and_then(|v| v.parse::<u64>().ok()))
            };
            if !reply.starts_with("ok") {
                sync_shard_eviction(&id, &slot, &reply, state);
            } else if verb == "ingest" {
                // The ingest reply carries the session's cumulative
                // joules, so budget enforcement costs no extra round
                // trip. Spend is measured from the admission baseline —
                // a restored checkpoint's history is not billed again.
                if let Some(spent) = reply_total_j().map(|total| total - route.baseline_j) {
                    route.spent_j = spent;
                    if route.budget_j.is_some_and(|budget| spent > budget) {
                        if let Some(path) = evict_on_shard(&id, &backend) {
                            // Over budget and checkpointed: release the
                            // route and leave the tombstone. The in-flight
                            // ingest reply stands; the *next* request
                            // answers `session-evicted` with the path.
                            route.budget_j = None;
                            let mut inner = state.inner.lock().expect("cluster state poisoned");
                            inner.sessions.remove(&id);
                            inner.evicted.insert(id.clone(), path);
                        }
                    }
                }
            } else if verb == "swap" {
                // A hot swap replaces the learner's cumulative counters;
                // rebase so spend stays continuous and the budget cannot
                // be evaded (or spuriously tripped) by swapping.
                if let Some(total) = reply_total_j() {
                    route.baseline_j = total - route.spent_j;
                }
            }
            if reply.starts_with("ok") {
                // Mirror the session's cumulative sample count (ingest
                // and swap replies report it) for shadow-sequence and
                // replay-gap accounting.
                if matches!(verb, "ingest" | "swap") {
                    if let Some(samples) = reply_samples() {
                        route.samples_seen = samples;
                    }
                }
                // A completed failover owes the client one disclosure:
                // how many ingested samples the dead shard took with it.
                // Parsers tolerate unknown fields, so the stamp is safe
                // on every reply shape.
                if let Some(gap) = route.replay_gap.take() {
                    reply.push_str(&format!(" replay_gap={gap}"));
                }
            }
            reply
        }
        Err(e) => cluster_err_line(&e),
    }
}

/// A shard can evict a session on its own (idle-timeout sweep, or an
/// operator talking to the shard directly). When such an eviction
/// surfaces in a relayed reply, mirror it into the router's table —
/// otherwise the id stays routed forever, leaking cluster capacity and
/// answering `duplicate-session` to every re-open.
fn sync_shard_eviction(id: &str, slot: &Arc<Slot>, reply: &str, state: &State) {
    if !reply.starts_with("err") {
        return;
    }
    let Ok(Response::Err { code, msg }) = parse_response(reply) else {
        return;
    };
    if code != "session-evicted" {
        return;
    }
    // The shard's message is exactly the restore path.
    remove_route_if_current(state, id, slot, Some(msg));
}

/// Looks up a session slot by the request's `id` field.
fn lookup(fields: &[(String, String)], state: &State) -> Option<(String, Arc<Slot>)> {
    let id = find(fields, "id")?;
    let inner = state.inner.lock().expect("cluster state poisoned");
    let slot = inner.sessions.get(id)?;
    Some((id.to_string(), Arc::clone(slot)))
}

/// The error line for a request whose session is not in the table:
/// evicted sessions answer their restore path, everything else is
/// unknown.
fn missing_session_line(fields: &[(String, String)], state: &State) -> String {
    let Some(id) = find(fields, "id") else {
        return err_line("bad-request", "missing field id");
    };
    let inner = state.inner.lock().expect("cluster state poisoned");
    match inner.evicted.get(id) {
        Some(path) => err_line("session-evicted", path),
        None => err_line("unknown-session", &format!("no session {id}")),
    }
}

/// Resolves the backend for a route, failing fast (and releasing the
/// session) when the shard is dead or detached.
///
/// With shadowing enabled the route is kept instead: the health loop's
/// failover sweep may yet restore the session from its replica, and a
/// client retrying into the detection window must not race the sweep
/// into freeing the id (the sweep itself drops whatever it cannot
/// prove). The client sees `shard-down` until the failover lands.
fn live_backend(id: &str, shard: ShardId, slot: &Arc<Slot>, state: &State) -> Option<Arc<Backend>> {
    let backend = {
        let inner = state.inner.lock().expect("cluster state poisoned");
        inner.backends.get(&shard).cloned()
    };
    match backend {
        Some(b) if b.is_alive() => Some(b),
        _ => {
            if state.limits.shadow_interval.is_none() {
                // The shard took the session state with it; free the id.
                remove_route_if_current(state, id, slot, None);
            }
            None
        }
    }
}

/// Evicts an over-budget session on its shard, returning the restore
/// path the shard checkpointed to.
fn evict_on_shard(id: &str, backend: &Backend) -> Option<String> {
    let evict_reply = backend.call_raw(&format!("evict id={id}"), false).ok()?;
    match parse_response(&evict_reply).ok()? {
        resp @ Response::Ok(_) => resp.get("path").map(str::to_string),
        // A shard without an evict directory cannot honour the budget by
        // checkpointing; keep serving rather than destroy state.
        Response::Err { .. } => None,
    }
}

// ---------------------------------------------------------------------------
// Stats aggregation.

fn gather_stats(state: &State) -> ClusterStats {
    let shards: Vec<ShardStats> = fan_out(state, |shard| scrape(state, shard, "stats", Some))
        .into_iter()
        .map(|(backend, scraped)| {
            let reply = scraped.as_ref().and_then(|s| s.reply.as_ref());
            let field = |key: &str| reply.and_then(|r| r.get(key));
            let num = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            ShardStats {
                id: backend.id,
                addr: backend.addr,
                alive: scraped.is_some(),
                sessions: num("sessions") as usize,
                queued_jobs: num("queued_jobs") as usize,
                total_samples: num("total_samples"),
                total_j: field("total_j")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0),
                uptime_s: num("uptime_s"),
                scrape_us: scraped.as_ref().map_or(0, |s| {
                    s.elapsed.as_micros().min(u128::from(u64::MAX)) as u64
                }),
            }
        })
        .collect();
    let (sessions, evicted_sessions) = {
        let inner = state.inner.lock().expect("cluster state poisoned");
        (inner.sessions.len(), inner.evicted.len())
    };
    ClusterStats {
        sessions,
        evicted_sessions,
        queued_jobs: shards.iter().map(|s| s.queued_jobs).sum(),
        total_samples: shards.iter().map(|s| s.total_samples).sum(),
        total_j: shards.iter().map(|s| s.total_j).sum(),
        shards,
    }
}

/// The aggregate `stats` line, field-compatible with a single shard's so
/// any `snn-serve` protocol client works unchanged against a cluster.
fn stats_line(state: &State) -> String {
    let stats = gather_stats(state);
    let ticks: u64 = 0; // ticks are a per-shard notion; see cluster-stats
    format_response(&Response::ok([
        ("sessions", stats.sessions.to_string()),
        ("max_sessions", state.limits.max_sessions.to_string()),
        ("queued_jobs", stats.queued_jobs.to_string()),
        ("ticks", ticks.to_string()),
        ("total_samples", stats.total_samples.to_string()),
        ("evicted", stats.evicted_sessions.to_string()),
        ("total_j", stats.total_j.to_string()),
    ]))
}

fn cluster_stats_line(state: &State) -> String {
    let stats = gather_stats(state);
    let mut pairs: Vec<(String, String)> = vec![
        ("shards".into(), stats.shards.len().to_string()),
        (
            "alive".into(),
            stats.shards.iter().filter(|s| s.alive).count().to_string(),
        ),
        ("version".into(), env!("CARGO_PKG_VERSION").to_string()),
        ("sessions".into(), stats.sessions.to_string()),
        ("evicted".into(), stats.evicted_sessions.to_string()),
        ("queued_jobs".into(), stats.queued_jobs.to_string()),
        ("total_samples".into(), stats.total_samples.to_string()),
        ("total_j".into(), stats.total_j.to_string()),
        (
            "health_interval_ms".into(),
            state.limits.health_interval.as_millis().to_string(),
        ),
        (
            "probes_to_kill".into(),
            state.limits.probes_to_kill.to_string(),
        ),
        // 0 reads as "shadowing off": the knob is an interval, and a
        // zero interval is never configured.
        (
            "shadow_interval_ms".into(),
            state
                .limits
                .shadow_interval
                .map_or(0, |d| d.as_millis())
                .to_string(),
        ),
    ];
    for (i, shard) in stats.shards.iter().enumerate() {
        pairs.push((format!("s{i}_id"), shard.id.to_string()));
        pairs.push((format!("s{i}_alive"), u8::from(shard.alive).to_string()));
        pairs.push((format!("s{i}_sessions"), shard.sessions.to_string()));
        pairs.push((format!("s{i}_queued"), shard.queued_jobs.to_string()));
        pairs.push((format!("s{i}_samples"), shard.total_samples.to_string()));
        pairs.push((format!("s{i}_j"), shard.total_j.to_string()));
        pairs.push((format!("s{i}_uptime_s"), shard.uptime_s.to_string()));
        pairs.push((format!("s{i}_scrape_us"), shard.scrape_us.to_string()));
    }
    format_response(&Response::Ok(pairs))
}
