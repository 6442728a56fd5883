//! Session registry: admission control, bounded per-session queues, and
//! the hand-off point between connection threads and the scheduler.
//!
//! The [`SessionManager`] owns every session's [`OnlineLearner`] plus a
//! bounded FIFO of pending jobs. Connection threads *submit* jobs and
//! block on a reply channel. A session with queued jobs and its learner
//! at home waits, exactly once, on a FIFO *ready queue*; each scheduler
//! worker checks one session out (`SessionManager::take_unit`), runs up
//! to `max_jobs_per_tick` of its jobs in order and hands the learner
//! back (`SessionManager::finish`), which requeues the session if jobs
//! remain. A session whose learner is checked out is simply not ready —
//! its queue keeps absorbing jobs (up to the bound) and rejoins the back
//! of the ready queue when the learner returns, so per-session FIFO order
//! is preserved while different sessions proceed concurrently and none
//! waits for another session's checkout to end.
//!
//! ## Admission and backpressure rules
//!
//! * `open`/`restore` are rejected with [`ServeError::Admission`] once
//!   `max_sessions` sessions exist (closing sessions count until fully
//!   removed), and with [`ServeError::DuplicateSession`] on id reuse.
//! * Each session's queue holds at most `queue_capacity` jobs; a submit
//!   against a full queue fails *immediately* with
//!   [`ServeError::Backpressure`] — the server never buffers unboundedly
//!   and never blocks a connection thread on another session's work.
//! * After a `close` is accepted the session stops admitting jobs
//!   ([`ServeError::SessionClosing`]); jobs already queued behind the
//!   close are answered with the same error.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use neuro_energy::GpuSpec;
use snn_data::Image;
use snn_online::{EnergyReport, ModelSnapshot, OnlineLearner, OnlineReport, StepOutcome};

use crate::obs::ServeObs;
use crate::protocol::SessionSpec;
use crate::scheduler::{FinishedUnit, WorkUnit};

/// Admission and queueing limits of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLimits {
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Maximum queued jobs per session (backpressure bound).
    pub queue_capacity: usize,
    /// Maximum samples per `ingest` request.
    pub max_batch: usize,
    /// Fairness cap: at most this many jobs of one session run per
    /// checkout; the remainder stays queued and the session rejoins the
    /// back of the ready queue, so a chatty session cannot hold a
    /// scheduler worker while other sessions wait.
    pub max_jobs_per_tick: usize,
    /// Evict sessions idle for this long (checkpoint to the server's
    /// evict directory, free the learner). `None` disables the sweep;
    /// eviction also requires [`crate::ServerConfig::evict_dir`].
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_sessions: 32,
            queue_capacity: 8,
            max_batch: 256,
            max_jobs_per_tick: 4,
            idle_timeout: None,
        }
    }
}

/// Server-wide counters, as returned by the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Currently open sessions (including ones draining towards close).
    pub sessions: usize,
    /// Admission limit.
    pub max_sessions: usize,
    /// Jobs queued across all sessions right now.
    pub queued_jobs: usize,
    /// Scheduler checkouts so far (one checkout = one session's learner
    /// plus up to `max_jobs_per_tick` of its jobs). Named `ticks` on the
    /// wire, where the field predates the per-session scheduler.
    pub ticks: u64,
    /// Stream samples ingested across all sessions.
    pub total_samples: u64,
    /// Sessions evicted to disk whose checkpoints are still claimable.
    pub evicted_sessions: usize,
    /// Modelled joules (train + infer) expended **on this server** by
    /// every session it has hosted, including closed and evicted ones —
    /// the number a cluster tier aggregates per shard. Work a restored
    /// checkpoint did elsewhere is billed where it ran, so migrating a
    /// session never double-counts its history.
    pub total_j: f64,
    /// Whole seconds since this server's registry was created — scrapes
    /// of a mixed-age cluster can tell a fresh replacement shard from a
    /// long-lived one.
    pub uptime_s: u64,
}

/// Everything that can go wrong serving a request, with a stable wire
/// code per variant ([`ServeError::code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server is at its session limit.
    Admission {
        /// Open sessions.
        active: usize,
        /// The limit.
        max: usize,
    },
    /// The session id is already in use.
    DuplicateSession(String),
    /// No session with this id exists.
    UnknownSession(String),
    /// The session's job queue is full.
    Backpressure {
        /// Jobs pending.
        depth: usize,
        /// The queue bound.
        capacity: usize,
    },
    /// The session has a close pending and admits no further jobs.
    SessionClosing(String),
    /// The session was evicted to disk; the payload is the restore path.
    /// The wire message for this code is exactly the path (no prose), so
    /// clients and the cluster tier can recover the checkpoint location
    /// without parsing free text.
    SessionEvicted(String),
    /// The request was structurally valid but semantically unacceptable.
    BadRequest(String),
    /// A snapshot payload failed to decode or validate.
    Snapshot(String),
    /// The learner rejected the operation (for example a sample whose
    /// pixel count does not match the session's input layer).
    Learner(String),
    /// A shadow payload is out of sequence: its claimed `seq` does not
    /// match the snapshot's `samples_seen`, or an older shadow arrived
    /// after a newer one was stored. A failover tier treats this as
    /// proof it must NOT replay from this blob.
    ShadowStale(String),
    /// The server is shutting down.
    Shutdown,
}

impl ServeError {
    /// The stable machine-readable code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Admission { .. } => "admission",
            ServeError::DuplicateSession(_) => "duplicate-session",
            ServeError::UnknownSession(_) => "unknown-session",
            ServeError::Backpressure { .. } => "backpressure",
            ServeError::SessionClosing(_) => "session-closing",
            ServeError::SessionEvicted(_) => "session-evicted",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::Snapshot(_) => "snapshot",
            ServeError::Learner(_) => "learner",
            ServeError::ShadowStale(_) => "shadow-stale",
            ServeError::Shutdown => "shutdown",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Admission { active, max } => {
                write!(f, "session limit reached ({active}/{max})")
            }
            ServeError::DuplicateSession(id) => write!(f, "session {id} already exists"),
            ServeError::UnknownSession(id) => write!(f, "no session {id}"),
            ServeError::Backpressure { depth, capacity } => {
                write!(f, "session queue full ({depth}/{capacity} pending)")
            }
            ServeError::SessionClosing(id) => write!(f, "session {id} is closing"),
            // Deliberately the bare path: see the variant docs.
            ServeError::SessionEvicted(path) => write!(f, "{path}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot rejected: {msg}"),
            ServeError::Learner(msg) => write!(f, "learner error: {msg}"),
            ServeError::ShadowStale(msg) => write!(f, "stale shadow: {msg}"),
            ServeError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued unit of session work.
#[derive(Debug)]
pub(crate) enum Job {
    /// Feed a micro-batch.
    Ingest(Vec<Image>),
    /// Current prequential report.
    Report,
    /// Modelled energy totals.
    Energy,
    /// Serialise the session state.
    Checkpoint,
    /// Hot-swap onto a snapshot.
    Swap(Vec<u8>),
    /// Checkpoint to the evict directory, then free the learner.
    Evict,
    /// Final report, then remove the session.
    Close,
}

/// What a successfully executed [`Job`] produced.
#[derive(Debug)]
pub(crate) enum JobOutput {
    /// Outcome of an ingest step, plus the session's cumulative modelled
    /// joules (train + infer) afterwards — carried on the wire so a
    /// budget-enforcing tier needs no extra `energy` round trip.
    Ingested(StepOutcome, f64),
    /// A prequential report.
    Report(OnlineReport),
    /// Energy totals.
    Energy(EnergyReport),
    /// Serialised snapshot bytes.
    Checkpoint(Vec<u8>),
    /// The swap took effect; the session now sits at this stream position.
    Swapped {
        /// Samples seen by the adopted state.
        samples_seen: u64,
        /// The session's cumulative joules after adopting the snapshot
        /// (the adopted state's carried history — budget tiers rebase on
        /// this).
        total_j: f64,
    },
    /// The session's state was checkpointed to this path and its learner
    /// freed.
    Evicted(PathBuf),
    /// The session's final report.
    Closed(OnlineReport),
}

pub(crate) type JobResult = Result<JobOutput, ServeError>;

/// A job plus the channel its reply goes out on and the request id that
/// originated it (for trace spans; empty when unattributed).
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) job: Job,
    pub(crate) rid: String,
    pub(crate) reply: mpsc::Sender<JobResult>,
    /// When the job entered its session queue; the scheduler turns the
    /// gap to execution into the trace's queue-wait phase.
    pub(crate) enqueued: Instant,
}

/// Bounds a wire-supplied session spec before any construction happens:
/// `OnlineLearner::new` asserts on zero-valued knobs (a panic would kill
/// the connection thread with no response), and unchecked sizes would let
/// one hostile `open` drive network allocation to OOM before admission.
fn validate_spec(spec: &SessionSpec) -> Result<(), ServeError> {
    let checks = [
        ("n_exc", spec.n_exc >= 1 && spec.n_exc <= 1 << 14),
        ("n_input", spec.n_input >= 1 && spec.n_input <= 1 << 16),
        ("n_classes", spec.n_classes >= 1 && spec.n_classes <= 256),
        ("batch", spec.batch_size >= 1 && spec.batch_size <= 1 << 16),
        ("assign_every", spec.assign_every >= 1),
        // The per-field caps alone still admit a 2^14 × 2^16 weight
        // matrix (4 GiB); the product cap bounds the whole network to
        // ≤ 16M synapses (64 MiB) before anything is allocated.
        (
            "n_exc*n_input",
            spec.n_exc.saturating_mul(spec.n_input) <= 1 << 24,
        ),
        (
            "reservoir",
            spec.reservoir_capacity >= 1 && spec.reservoir_capacity <= 1 << 16,
        ),
        (
            "metric_window",
            spec.metric_window >= 1 && spec.metric_window <= 1 << 20,
        ),
        (
            "drift_window",
            spec.drift_window >= 1 && spec.drift_window <= 1 << 20,
        ),
    ];
    for (name, ok) in checks {
        if !ok {
            return Err(ServeError::BadRequest(format!(
                "session spec field {name} is zero or out of range"
            )));
        }
    }
    Ok(())
}

#[derive(Debug)]
struct SessionEntry {
    /// `None` while the scheduler has the learner checked out.
    learner: Option<OnlineLearner>,
    queue: VecDeque<Envelope>,
    closing: bool,
    /// Last submit or checkout completion; drives the idle-eviction sweep.
    last_active: Instant,
    /// Modelled joules at the end of the session's last checkout. Cumulative
    /// from the learner's birth — op counters survive checkpoints, so a
    /// restored session carries its history here.
    joules: f64,
    /// The learner's joules when this server admitted it. The session's
    /// contribution to this server's `total_j` is `joules - baseline_j`,
    /// so restoring or migrating a checkpoint never double-counts the
    /// energy already billed where the work actually ran.
    baseline_j: f64,
}

#[derive(Debug)]
struct Registry {
    sessions: HashMap<String, SessionEntry>,
    /// Sessions checkpointed to disk by eviction: id → restore path.
    /// Cleared when the id is reused by a successful `open`/`restore`.
    evicted: HashMap<String, PathBuf>,
    /// Joules expended *on this server* by sessions that have closed or
    /// been evicted (final minus admission baseline, per session).
    retired_j: f64,
    /// Sessions waiting for a scheduler worker, in the order they became
    /// ready. A live session's id is here exactly once while its learner
    /// is home and its queue is non-empty, and never otherwise: `submit`
    /// and `finish` push only in that state, and a session leaves the
    /// registry only at the end of a checkout, whose id was popped (or,
    /// for an idle victim, never pushed).
    ready: VecDeque<String>,
    /// When the idle-eviction sweep is next due (unused while eviction is
    /// off). Checked on every `take_unit`, busy or not, so a steady stream
    /// of ready sessions cannot postpone it.
    next_sweep: Instant,
    shutdown: bool,
    ticks: u64,
    total_samples: u64,
}

impl Registry {
    /// Checks out the front of the ready queue.
    fn pop_ready(&mut self, per_unit: usize) -> Option<WorkUnit> {
        let id = self.ready.pop_front()?;
        let entry = self
            .sessions
            .get_mut(&id)
            .expect("a ready id names a live session");
        let learner = entry
            .learner
            .take()
            .expect("a ready session's learner is home");
        assert!(!entry.queue.is_empty(), "a ready session has jobs queued");
        let take = entry.queue.len().min(per_unit);
        let jobs = entry.queue.drain(..take).collect();
        Some(WorkUnit { id, learner, jobs })
    }
}

/// Bound on shadow checkpoints held per server (the `shadow` verb's
/// store). A shard shadows roughly its ring predecessor's sessions, so
/// this sits well above any realistic `max_sessions`; at the bound the
/// lowest-sequence (oldest-progress) entry is evicted, never the write
/// rejected — a wedged store would silently stop failover protection.
pub const SHADOW_CAPACITY: usize = 256;

/// One stored shadow checkpoint: the blob plus its stream position.
#[derive(Debug)]
struct ShadowEntry {
    seq: u64,
    bytes: Vec<u8>,
}

/// The shared session registry. See the module docs for the rules.
#[derive(Debug)]
pub struct SessionManager {
    state: Mutex<Registry>,
    work_ready: Condvar,
    limits: ServeLimits,
    gpu: GpuSpec,
    evict_dir: Option<PathBuf>,
    /// Shadow checkpoints parked here by other shards' routers (id →
    /// blob + seq). Independent of the session registry: storing a
    /// shadow opens no live session and touches no learner.
    shadows: Mutex<HashMap<String, ShadowEntry>>,
    obs: ServeObs,
}

impl SessionManager {
    /// Creates an empty registry. Eviction (idle-timeout sweeps and the
    /// `evict` request) stays disabled unless `evict_dir` names a
    /// directory to checkpoint victims into.
    pub fn new(limits: ServeLimits, gpu: GpuSpec, evict_dir: Option<PathBuf>) -> Self {
        SessionManager {
            state: Mutex::new(Registry {
                sessions: HashMap::new(),
                evicted: HashMap::new(),
                retired_j: 0.0,
                ready: VecDeque::new(),
                next_sweep: Instant::now(),
                shutdown: false,
                ticks: 0,
                total_samples: 0,
            }),
            work_ready: Condvar::new(),
            limits,
            gpu,
            evict_dir,
            shadows: Mutex::new(HashMap::new()),
            obs: ServeObs::new(),
        }
    }

    /// This server's metric registry and cached handles.
    pub(crate) fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// The manager's limits.
    pub fn limits(&self) -> &ServeLimits {
        &self.limits
    }

    pub(crate) fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Whether this server can evict (an evict directory is configured).
    /// Advertised in the `hello` banner so routing tiers can refuse
    /// energy budgets on shards that could never enforce them.
    pub(crate) fn eviction_enabled(&self) -> bool {
        self.evict_dir.is_some()
    }

    /// Where an evicted session's checkpoint lands, or `None` when this
    /// server was configured without an evict directory.
    pub(crate) fn evict_path(&self, id: &str) -> Option<PathBuf> {
        self.evict_dir
            .as_ref()
            .map(|d| d.join(format!("{id}.sdyn")))
    }

    /// Opens a fresh session. The learner is built *outside* the registry
    /// lock (network init is the expensive part); admission is enforced
    /// atomically at insert.
    pub(crate) fn open(&self, id: &str, spec: &SessionSpec) -> Result<(), ServeError> {
        validate_spec(spec)?;
        let mut learner = OnlineLearner::new(spec.online_config());
        learner.set_obs(self.obs.learner_obs());
        self.insert(id, learner)
    }

    /// Opens a new session restored from snapshot bytes. Returns the
    /// restored stream position and the cumulative joules the snapshot
    /// carries (so a budget-enforcing tier can set its baseline without
    /// an extra round trip).
    pub(crate) fn open_restored(
        &self,
        id: &str,
        snapshot: &[u8],
    ) -> Result<(u64, f64), ServeError> {
        let t0 = Instant::now();
        let snap =
            ModelSnapshot::from_bytes(snapshot).map_err(|e| ServeError::Snapshot(e.to_string()))?;
        let mut learner =
            OnlineLearner::resume(snap).map_err(|e| ServeError::Snapshot(e.to_string()))?;
        self.obs.decode_us.record_duration(t0.elapsed());
        self.obs.decode_bytes.record(snapshot.len() as u64);
        learner.set_obs(self.obs.learner_obs());
        let samples = learner.samples_seen();
        let energy = learner.energy(&self.gpu);
        let total_j = energy.train_j + energy.infer_j;
        self.insert(id, learner)?;
        Ok((samples, total_j))
    }

    fn insert(&self, id: &str, learner: OnlineLearner) -> Result<(), ServeError> {
        // Priced outside the lock: a restored learner arrives carrying
        // the op counters of work done elsewhere.
        let admitted = learner.energy(&self.gpu);
        let baseline_j = admitted.train_j + admitted.infer_j;
        let mut state = self.state.lock().expect("session registry poisoned");
        if state.shutdown {
            return Err(ServeError::Shutdown);
        }
        if state.sessions.contains_key(id) {
            self.obs.admission_rejects.inc();
            return Err(ServeError::DuplicateSession(id.to_string()));
        }
        if state.sessions.len() >= self.limits.max_sessions {
            self.obs.admission_rejects.inc();
            return Err(ServeError::Admission {
                active: state.sessions.len(),
                max: self.limits.max_sessions,
            });
        }
        // Reusing an evicted id supersedes the on-disk tombstone.
        state.evicted.remove(id);
        state.sessions.insert(
            id.to_string(),
            SessionEntry {
                learner: Some(learner),
                queue: VecDeque::new(),
                closing: false,
                last_active: Instant::now(),
                joules: baseline_j,
                baseline_j,
            },
        );
        drop(state);
        // A live session on this server supersedes any shadow copy
        // parked here under the same id (e.g. a failover restored the
        // session onto its own shadow holder).
        self.drop_shadow(id);
        Ok(())
    }

    /// Queues a job on a session, enforcing the backpressure bound. A
    /// `Close` job flips the session into its closing state.
    pub(crate) fn submit(
        &self,
        id: &str,
        job: Job,
        rid: &str,
        reply: mpsc::Sender<JobResult>,
    ) -> Result<(), ServeError> {
        let mut state = self.state.lock().expect("session registry poisoned");
        if state.shutdown {
            return Err(ServeError::Shutdown);
        }
        if let Some(path) = state.evicted.get(id) {
            return Err(ServeError::SessionEvicted(path.display().to_string()));
        }
        let entry = state
            .sessions
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownSession(id.to_string()))?;
        if entry.closing {
            return Err(ServeError::SessionClosing(id.to_string()));
        }
        if entry.queue.len() >= self.limits.queue_capacity {
            self.obs.backpressure_rejects.inc();
            return Err(ServeError::Backpressure {
                depth: entry.queue.len(),
                capacity: self.limits.queue_capacity,
            });
        }
        if matches!(job, Job::Close) {
            entry.closing = true;
        }
        entry.last_active = Instant::now();
        // A checked-out session is requeued by `finish`; one already
        // queued is ready already.
        let became_ready = entry.queue.is_empty() && entry.learner.is_some();
        entry.queue.push_back(Envelope {
            job,
            rid: rid.to_string(),
            reply,
            enqueued: Instant::now(),
        });
        if became_ready {
            state.ready.push_back(id.to_string());
        }
        drop(state);
        if became_ready {
            self.work_ready.notify_one();
        }
        Ok(())
    }

    /// Blocks until a session is ready, then checks out the one that has
    /// waited longest: its learner plus up to `max_jobs_per_tick` of its
    /// queued jobs, in order. When idle eviction is configured and the
    /// sweep is due, the session idle longest past the timeout is checked
    /// out first, with a synthesised eviction job. Returns `None` only at
    /// shutdown with nothing ready, so pending jobs always drain before
    /// the workers exit.
    pub(crate) fn take_unit(&self) -> Option<WorkUnit> {
        let per_unit = self.limits.max_jobs_per_tick.max(1);
        let sweep = match (self.limits.idle_timeout, &self.evict_dir) {
            (Some(timeout), Some(_)) => Some(timeout),
            _ => None,
        };
        let mut state = self.state.lock().expect("session registry poisoned");
        loop {
            let mut unit = None;
            if let Some(timeout) = sweep {
                if Instant::now() >= state.next_sweep {
                    unit = self.idle_victim(&mut state, timeout);
                    // A victim keeps the sweep due, so the next checkout
                    // looks for another. Otherwise look again after a nap
                    // of at most a quarter of the timeout, which bounds
                    // how far eviction lags it.
                    if unit.is_none() {
                        state.next_sweep =
                            Instant::now() + (timeout / 4).min(Duration::from_millis(250));
                    }
                }
            }
            if let Some(unit) = unit.or_else(|| state.pop_ready(per_unit)) {
                state.ticks += 1;
                return Some(unit);
            }
            if state.shutdown {
                return None;
            }
            state = match sweep {
                // The sweep needs a wake-up even when no job ever arrives.
                Some(_) => {
                    let nap = state.next_sweep.saturating_duration_since(Instant::now());
                    self.work_ready
                        .wait_timeout(state, nap)
                        .expect("session registry poisoned")
                        .0
                }
                None => self
                    .work_ready
                    .wait(state)
                    .expect("session registry poisoned"),
            };
        }
    }

    /// Checks out the session idle longest past `timeout` with a
    /// synthesised eviction job. Only sessions with their learner home and
    /// an empty queue qualify, so a victim is never in the ready queue and
    /// no queued job is answered with an eviction.
    fn idle_victim(&self, state: &mut Registry, timeout: Duration) -> Option<WorkUnit> {
        let (id, entry) = state
            .sessions
            .iter_mut()
            .filter(|(_, e)| {
                e.learner.is_some()
                    && e.queue.is_empty()
                    && !e.closing
                    && e.last_active.elapsed() >= timeout
            })
            .min_by_key(|(_, e)| e.last_active)?;
        // The reply receiver is dropped immediately: nobody waits on a
        // sweep.
        let (reply, _) = mpsc::channel();
        Some(WorkUnit {
            id: id.clone(),
            learner: entry.learner.take().expect("filtered on is_some"),
            jobs: vec![Envelope {
                job: Job::Evict,
                // Sweeps originate server-side; mint a rid so the
                // eviction span is still traceable.
                rid: self.obs.registry.mint_rid(),
                reply,
                enqueued: Instant::now(),
            }],
        })
    }

    /// Returns a checked-out session's learner, requeueing the session if
    /// its queue refilled while the learner was out, or removes a session
    /// that closed or evicted (answering any jobs that raced in behind the
    /// close/evict). A requeue wakes no one: the calling worker's next
    /// `take_unit` finds it.
    pub(crate) fn finish(&self, unit: FinishedUnit) {
        let mut deferred = Vec::new();
        let mut state = self.state.lock().expect("session registry poisoned");
        state.total_samples += unit.samples_delta;
        match unit.learner {
            Some(learner) => {
                if let Some(entry) = state.sessions.get_mut(&unit.id) {
                    entry.learner = Some(learner);
                    entry.joules = unit.joules;
                    // A hot swap replaces the learner's cumulative op
                    // counters wholesale; shifting the baseline by the
                    // jump keeps `joules - baseline_j` — the session's
                    // spend on THIS server — continuous across it.
                    entry.baseline_j += unit.baseline_shift;
                    entry.last_active = Instant::now();
                    if !entry.queue.is_empty() {
                        state.ready.push_back(unit.id);
                    }
                }
            }
            None => {
                if let Some(path) = unit.evicted.clone() {
                    self.obs.evictions.inc();
                    state.evicted.insert(unit.id.clone(), path);
                }
                if let Some(entry) = state.sessions.remove(&unit.id) {
                    let spent_j = unit.joules - (entry.baseline_j + unit.baseline_shift);
                    self.obs
                        .retired_mj
                        .record((spent_j.max(0.0) * 1e3).round() as u64);
                    state.retired_j += spent_j;
                    for envelope in entry.queue {
                        let err = match &unit.evicted {
                            Some(path) => ServeError::SessionEvicted(path.display().to_string()),
                            None => ServeError::SessionClosing(unit.id.clone()),
                        };
                        deferred.push((envelope.reply, Err(err)));
                    }
                }
            }
        }
        deferred.extend(unit.deferred);
        drop(state);
        // Close-path replies go out only now, after the registry update:
        // a client holding its `close` reply can reuse the id at once.
        for (reply, result) in deferred {
            let _ = reply.send(result);
        }
    }

    /// Stores a shadow checkpoint for `id` without opening a session.
    /// The blob must be a valid [`ModelSnapshot`] whose `samples_seen`
    /// equals the claimed `seq`, and `seq` must not regress below an
    /// already-stored shadow for the same id — both violations come back
    /// as [`ServeError::ShadowStale`], the failover tier's proof that
    /// this blob must not be replayed.
    pub(crate) fn store_shadow(
        &self,
        id: &str,
        seq: u64,
        bytes: Vec<u8>,
    ) -> Result<(), ServeError> {
        let snap =
            ModelSnapshot::from_bytes(&bytes).map_err(|e| ServeError::Snapshot(e.to_string()))?;
        if snap.samples_seen != seq {
            return Err(ServeError::ShadowStale(format!(
                "claimed seq {seq} but snapshot sits at {}",
                snap.samples_seen
            )));
        }
        let mut shadows = self.shadows.lock().expect("shadow store poisoned");
        if let Some(existing) = shadows.get(id) {
            if existing.seq > seq {
                return Err(ServeError::ShadowStale(format!(
                    "shadow at seq {} already stored, refusing regression to {seq}",
                    existing.seq
                )));
            }
        } else if shadows.len() >= SHADOW_CAPACITY {
            // Evict the entry with the least stream progress rather than
            // rejecting: a full store must not wedge shadowing.
            if let Some(oldest) = shadows
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
            {
                shadows.remove(&oldest);
            }
        }
        self.obs.shadow_bytes.record(bytes.len() as u64);
        shadows.insert(id.to_string(), ShadowEntry { seq, bytes });
        self.obs.shadows.set(shadows.len() as f64);
        Ok(())
    }

    /// The stored shadow for `id` (seq, blob), if any. The entry stays in
    /// the store — a failover may retry its restore on another shard.
    pub(crate) fn fetch_shadow(&self, id: &str) -> Option<(u64, Vec<u8>)> {
        self.shadows
            .lock()
            .expect("shadow store poisoned")
            .get(id)
            .map(|e| (e.seq, e.bytes.clone()))
    }

    /// Drops the stored shadow for `id`, if any (sessions that closed
    /// cleanly no longer need failover cover).
    pub(crate) fn drop_shadow(&self, id: &str) {
        let mut shadows = self.shadows.lock().expect("shadow store poisoned");
        shadows.remove(id);
        self.obs.shadows.set(shadows.len() as f64);
    }

    /// Current server-wide counters.
    pub fn stats(&self) -> ServerStats {
        let state = self.state.lock().expect("session registry poisoned");
        ServerStats {
            sessions: state.sessions.len(),
            max_sessions: self.limits.max_sessions,
            queued_jobs: state.sessions.values().map(|e| e.queue.len()).sum(),
            ticks: state.ticks,
            total_samples: state.total_samples,
            evicted_sessions: state.evicted.len(),
            total_j: state.retired_j
                + state
                    .sessions
                    .values()
                    .map(|e| e.joules - e.baseline_j)
                    .sum::<f64>(),
            uptime_s: self.obs.registry.uptime_us() / 1_000_000,
        }
    }

    /// Renders this server's full metrics exposition (`snn-obs` text
    /// format): the cumulative counters/histograms/spans plus
    /// point-in-time gauges (session count, queue depth, joules)
    /// published at scrape time. Served by the `metrics`
    /// wire verb, hex-encoded into the reply's `data` field.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let r = &self.obs.registry;
        r.gauge("serve.sessions").set(stats.sessions as f64);
        r.gauge("serve.queued_jobs").set(stats.queued_jobs as f64);
        r.gauge("serve.evicted_sessions")
            .set(stats.evicted_sessions as f64);
        r.gauge("serve.ticks").set(stats.ticks as f64);
        r.gauge("serve.total_samples")
            .set(stats.total_samples as f64);
        r.gauge("serve.total_j").set(stats.total_j);
        // Build/version attribution for mixed-version clusters: the
        // exposition is numeric-only, so the version string rides in the
        // gauge *name* (`build.info.<version> = 1`, the Prometheus info
        // idiom) next to the instance's uptime.
        r.gauge(&format!("build.info.{}", env!("CARGO_PKG_VERSION")))
            .set(1.0);
        r.gauge("serve.uptime_s").set(r.uptime_us() as f64 / 1e6);
        r.snapshot().render()
    }

    /// Renders this server's flight-recorder journal (`snn-journal`
    /// text): the bounded ring of structured events plus its meta
    /// counters. Served by the `journal` wire verb, hex-encoded into the
    /// reply's `data` field.
    pub fn journal_text(&self) -> String {
        self.obs.registry.journal_snapshot().render()
    }

    /// Whether shutdown has been flagged (drives the honest `ping`:
    /// a draining server is not a healthy serving target).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.state
            .lock()
            .expect("session registry poisoned")
            .shutdown
    }

    /// Flags shutdown: further opens/submits are rejected, and the
    /// scheduler exits once the remaining queued work has drained.
    pub fn shutdown(&self) {
        self.state
            .lock()
            .expect("session registry poisoned")
            .shutdown = true;
        self.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikedyn::Method;

    fn tiny_spec() -> SessionSpec {
        SessionSpec {
            method: Method::SpikeDyn,
            n_exc: 6,
            n_input: 49,
            n_classes: 4,
            seed: 1,
            batch_size: 4,
            assign_every: 8,
            reservoir_capacity: 8,
            metric_window: 8,
            drift_window: 8,
        }
    }

    fn manager(max_sessions: usize, queue_capacity: usize) -> SessionManager {
        SessionManager::new(
            ServeLimits {
                max_sessions,
                queue_capacity,
                max_batch: 64,
                ..ServeLimits::default()
            },
            GpuSpec::gtx_1080_ti(),
            None,
        )
    }

    #[test]
    fn admission_enforced_at_the_limit() {
        let m = manager(2, 4);
        m.open("a", &tiny_spec()).unwrap();
        m.open("b", &tiny_spec()).unwrap();
        assert!(matches!(
            m.open("c", &tiny_spec()),
            Err(ServeError::Admission { active: 2, max: 2 })
        ));
        assert!(matches!(
            m.open("a", &tiny_spec()),
            Err(ServeError::DuplicateSession(_))
        ));
        assert_eq!(m.stats().sessions, 2);
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        let m = manager(4, 2);
        m.open("a", &tiny_spec()).unwrap();
        let (tx, _rx) = mpsc::channel();
        m.submit("a", Job::Report, "", tx.clone()).unwrap();
        m.submit("a", Job::Report, "", tx.clone()).unwrap();
        assert!(matches!(
            m.submit("a", Job::Report, "", tx.clone()),
            Err(ServeError::Backpressure {
                depth: 2,
                capacity: 2
            })
        ));
        assert!(matches!(
            m.submit("ghost", Job::Report, "", tx),
            Err(ServeError::UnknownSession(_))
        ));
        assert_eq!(m.stats().queued_jobs, 2);
    }

    #[test]
    fn closing_session_admits_no_further_jobs() {
        let m = manager(4, 4);
        m.open("a", &tiny_spec()).unwrap();
        let (tx, _rx) = mpsc::channel();
        m.submit("a", Job::Close, "", tx.clone()).unwrap();
        assert!(matches!(
            m.submit("a", Job::Report, "", tx),
            Err(ServeError::SessionClosing(_))
        ));
    }

    #[test]
    fn sessions_are_checked_out_in_the_order_they_became_ready() {
        let m = manager(4, 8);
        m.open("a", &tiny_spec()).unwrap();
        m.open("b", &tiny_spec()).unwrap();
        m.open("c", &tiny_spec()).unwrap();
        let (tx, _rx) = mpsc::channel();
        m.submit("b", Job::Report, "", tx.clone()).unwrap();
        m.submit("a", Job::Report, "", tx.clone()).unwrap();
        m.submit("a", Job::Checkpoint, "", tx.clone()).unwrap();
        for _ in 0..5 {
            m.submit("c", Job::Report, "", tx.clone()).unwrap();
        }
        // Readiness order, not id order.
        let b = m.take_unit().unwrap();
        assert_eq!((b.id.as_str(), b.jobs.len()), ("b", 1));
        let a = m.take_unit().unwrap();
        assert_eq!(a.id, "a");
        assert_eq!(a.jobs.len(), 2, "whole queue drained");
        let c = m.take_unit().unwrap();
        assert_eq!(c.id, "c");
        assert_eq!(
            c.jobs.len(),
            ServeLimits::default().max_jobs_per_tick,
            "capped at max_jobs_per_tick"
        );
        assert_eq!(m.stats().queued_jobs, 1);
        assert_eq!(m.stats().ticks, 3, "one tick per checkout");
    }

    #[test]
    fn chatty_session_cannot_monopolise_the_workers() {
        // A session with a deep queue gets at most max_jobs_per_tick jobs
        // per checkout; a quiet session that became ready meanwhile is
        // checked out before the chatty remainder, which rejoins the back
        // of the ready queue when its learner comes home.
        let m = SessionManager::new(
            ServeLimits {
                max_sessions: 4,
                queue_capacity: 8,
                max_batch: 64,
                max_jobs_per_tick: 2,
                idle_timeout: None,
            },
            GpuSpec::gtx_1080_ti(),
            None,
        );
        m.open("chatty", &tiny_spec()).unwrap();
        m.open("quiet", &tiny_spec()).unwrap();
        let (tx, _rx) = mpsc::channel();
        for _ in 0..6 {
            m.submit("chatty", Job::Report, "", tx.clone()).unwrap();
        }
        m.submit("quiet", Job::Report, "", tx).unwrap();

        let chatty = m.take_unit().unwrap();
        assert_eq!(chatty.id, "chatty");
        assert_eq!(chatty.jobs.len(), 2, "chatty capped at max_jobs_per_tick");
        m.finish(crate::scheduler::execute_unit(chatty, &m));
        let quiet = m.take_unit().unwrap();
        assert_eq!(quiet.id, "quiet", "quiet goes before chatty's remainder");
        assert_eq!(
            m.stats().queued_jobs,
            4,
            "the remainder stays queued for later checkouts"
        );
        let rest = m.take_unit().unwrap();
        assert_eq!((rest.id.as_str(), rest.jobs.len()), ("chatty", 2));
    }

    #[test]
    fn shutdown_unblocks_take_unit_after_draining() {
        let m = std::sync::Arc::new(manager(2, 4));
        m.open("a", &tiny_spec()).unwrap();
        let (tx, _rx) = mpsc::channel();
        m.submit("a", Job::Report, "", tx).unwrap();
        m.shutdown();
        // Pending work still comes out...
        let unit = m.take_unit().unwrap();
        assert_eq!((unit.id.as_str(), unit.jobs.len()), ("a", 1));
        // ...then the queue reports empty-and-done. (The learner is still
        // checked out, so nothing is ready either way.)
        assert!(m.take_unit().is_none());
        assert!(matches!(
            m.open("b", &tiny_spec()),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn hostile_specs_are_rejected_not_panicked() {
        // Zero-valued knobs would trip OnlineLearner's asserts; oversized
        // dimensions would allocate before admission. Both must come back
        // as bad-request errors.
        let m = manager(4, 4);
        let cases: Vec<SessionSpec> = vec![
            SessionSpec {
                batch_size: 0,
                ..tiny_spec()
            },
            SessionSpec {
                reservoir_capacity: 0,
                ..tiny_spec()
            },
            SessionSpec {
                assign_every: 0,
                ..tiny_spec()
            },
            SessionSpec {
                metric_window: 0,
                ..tiny_spec()
            },
            SessionSpec {
                drift_window: 0,
                ..tiny_spec()
            },
            SessionSpec {
                n_exc: 4_000_000_000,
                ..tiny_spec()
            },
            SessionSpec {
                n_input: 4_000_000_000,
                ..tiny_spec()
            },
            SessionSpec {
                n_classes: 0,
                ..tiny_spec()
            },
            // Each dimension inside its cap, product catastrophically big.
            SessionSpec {
                n_exc: 1 << 14,
                n_input: 1 << 16,
                ..tiny_spec()
            },
        ];
        for spec in cases {
            assert!(
                matches!(m.open("h", &spec), Err(ServeError::BadRequest(_))),
                "spec must be rejected: {spec:?}"
            );
        }
        assert_eq!(m.stats().sessions, 0);
    }

    #[test]
    fn shadow_store_validates_payloads_and_sequences() {
        let m = manager(4, 4);
        let mut learner = OnlineLearner::new(tiny_spec().online_config());
        let blob0 = learner.checkpoint().to_bytes(); // samples_seen = 0
        let gen = snn_data::SyntheticDigits::new(1);
        let batch: Vec<_> = (0..4u64)
            .map(|i| gen.sample((i % 4) as u8, i).downsample(4))
            .collect();
        learner.ingest_batch(&batch).unwrap();
        let blob4 = learner.checkpoint().to_bytes(); // samples_seen = 4

        // Garbage never lands in the store.
        assert!(matches!(
            m.store_shadow("g", 0, vec![1, 2, 3]),
            Err(ServeError::Snapshot(_))
        ));
        assert!(m.fetch_shadow("g").is_none());
        // The claimed seq must match the snapshot's stream position.
        assert!(matches!(
            m.store_shadow("x", 9, blob4.clone()),
            Err(ServeError::ShadowStale(_))
        ));
        // A valid store round-trips...
        m.store_shadow("x", 4, blob4.clone()).unwrap();
        assert_eq!(m.fetch_shadow("x").unwrap(), (4, blob4.clone()));
        // ...an older shadow can no longer displace it...
        assert!(matches!(
            m.store_shadow("x", 0, blob0),
            Err(ServeError::ShadowStale(_))
        ));
        assert_eq!(m.fetch_shadow("x").unwrap().0, 4);
        // ...and re-storing the same position is idempotent.
        m.store_shadow("x", 4, blob4).unwrap();
        // A live session under the id supersedes the parked shadow.
        m.open("x", &tiny_spec()).unwrap();
        assert!(m.fetch_shadow("x").is_none());
    }

    #[test]
    fn shadow_store_is_bounded_by_least_progress_eviction() {
        let m = manager(4, 4);
        let blob = OnlineLearner::new(tiny_spec().online_config())
            .checkpoint()
            .to_bytes();
        let n = SHADOW_CAPACITY + 8;
        for i in 0..n {
            m.store_shadow(&format!("sh-{i}"), 0, blob.clone()).unwrap();
        }
        let held = (0..n)
            .filter(|i| m.fetch_shadow(&format!("sh-{i}")).is_some())
            .count();
        assert_eq!(held, SHADOW_CAPACITY, "full store evicts, never wedges");
    }

    #[test]
    fn rejected_open_does_not_leak_snapshot_sessions() {
        let m = manager(1, 4);
        m.open("a", &tiny_spec()).unwrap();
        assert!(matches!(
            m.open_restored("b", &[1, 2, 3]),
            Err(ServeError::Snapshot(_))
        ));
        assert_eq!(m.stats().sessions, 1);
    }
}
