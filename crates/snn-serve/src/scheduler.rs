//! The session scheduler: persistent workers over one ready queue.
//!
//! `run` turns its thread into `rayon::current_num_threads()` workers
//! that live as long as the server. Each worker loops: check out the
//! session that became ready first (`SessionManager::take_unit`), run up
//! to `max_jobs_per_tick` of its jobs strictly in submission order, hand
//! the learner straight back (`SessionManager::finish`, which requeues
//! the session if jobs remain), repeat. No worker ever waits for another
//! worker's session, so a request that arrives while other sessions are
//! running starts as soon as a worker is free. The workers are vendored
//! `rayon` threads, so a session's whole learner step, its engine's batch
//! fan-out and its `rayon::join` of prediction with training included,
//! runs on the worker rather than spawning threads of its own.
//!
//! Parallel session execution cannot perturb results: every learner's
//! randomness is derived from its own persisted counters and each session
//! owns its engine, whose replicas carry no state between samples, so a
//! session's outputs are bit-identical however its checkouts interleave
//! with other sessions' and whichever worker runs them. The integration
//! test pins this by comparing served sessions against single-process
//! references.

use std::sync::Arc;

use rayon::prelude::*;

use snn_online::{ModelSnapshot, OnlineLearner};

use crate::session::{Envelope, Job, JobOutput, ServeError, SessionManager};

/// One session checked out by a worker: its learner plus up to
/// `max_jobs_per_tick` of its queued jobs, executed in order.
#[derive(Debug)]
pub(crate) struct WorkUnit {
    pub(crate) id: String,
    pub(crate) learner: OnlineLearner,
    pub(crate) jobs: Vec<Envelope>,
}

/// A processed unit handed back to the registry. `learner: None` means
/// the session closed (or was evicted) during the checkout and must be
/// removed; the close path's replies ride along in `deferred` and are
/// sent only *after* the registry update, so a client that received its
/// `close` reply can immediately reuse the id (close is linearizable).
#[derive(Debug)]
pub(crate) struct FinishedUnit {
    pub(crate) id: String,
    pub(crate) learner: Option<OnlineLearner>,
    pub(crate) samples_delta: u64,
    /// Modelled joules (train + infer) of this session after the checkout.
    pub(crate) joules: f64,
    /// Net jump in the learner's cumulative joules caused by hot swaps
    /// this checkout (a swap replaces the op counters wholesale); the
    /// registry shifts the session's accounting baseline by this much.
    pub(crate) baseline_shift: f64,
    /// Set when the session was evicted: where its checkpoint landed.
    pub(crate) evicted: Option<std::path::PathBuf>,
    pub(crate) deferred: Vec<(
        std::sync::mpsc::Sender<crate::session::JobResult>,
        crate::session::JobResult,
    )>,
}

/// Runs the scheduler's workers until the manager shuts down and its
/// queues have drained. Intended to own a dedicated thread.
pub(crate) fn run(manager: Arc<SessionManager>) {
    let workers: Vec<usize> = (0..rayon::current_num_threads()).collect();
    // Started as vendored-rayon workers, so the `par_iter` and `join`
    // inside a job run on its worker instead of spawning threads.
    workers.par_iter().for_each(|_| work(&manager));
}

/// One worker's loop. `serve.tick_us` and `serve.tick.jobs` record one
/// sample per checkout.
fn work(manager: &SessionManager) {
    while let Some(unit) = manager.take_unit() {
        let jobs = unit.jobs.len();
        let t0 = std::time::Instant::now();
        let finished = execute_unit(unit, manager);
        let obs = manager.obs();
        obs.tick_us.record_duration(t0.elapsed());
        obs.tick_jobs.record(jobs as u64);
        manager.finish(finished);
    }
}

/// The stable span/metric label of a job kind.
fn job_kind(job: &Job) -> &'static str {
    match job {
        Job::Ingest(_) => "ingest",
        Job::Report => "report",
        Job::Energy => "energy",
        Job::Checkpoint => "checkpoint",
        Job::Swap(_) => "swap",
        Job::Evict => "evict",
        Job::Close => "close",
    }
}

/// Executes one checked-out session: every job in submission order, each
/// reply sent as soon as its job completes. Jobs queued behind a `Close`
/// are answered with [`ServeError::SessionClosing`].
pub(crate) fn execute_unit(unit: WorkUnit, manager: &SessionManager) -> FinishedUnit {
    let WorkUnit {
        id,
        mut learner,
        jobs,
    } = unit;
    let mut closed = false;
    let mut evicted: Option<std::path::PathBuf> = None;
    let mut samples_delta = 0u64;
    let mut baseline_shift = 0.0f64;
    let mut deferred = Vec::new();
    let obs = manager.obs();
    let engine_before = learner.engine_stats();
    for Envelope {
        job,
        rid,
        reply,
        enqueued,
    } in jobs
    {
        if closed {
            deferred.push((reply, Err(ServeError::SessionClosing(id.clone()))));
            continue;
        }
        if let Some(path) = &evicted {
            deferred.push((
                reply,
                Err(ServeError::SessionEvicted(path.display().to_string())),
            ));
            continue;
        }
        let kind = job_kind(&job);
        // The gap between submit and this checkout is the request's
        // queue-wait phase: a child span under the wire layer's request
        // span, plus the histogram the latency-breakdown bench reads.
        let queue_wait = enqueued.elapsed();
        obs.queue_wait_us.record_duration(queue_wait);
        obs.registry.span(
            "serve.phase.queue_wait",
            &rid,
            queue_wait,
            &[
                ("phase", "queue_wait".to_string()),
                ("parent", "request".to_string()),
                ("id", id.clone()),
            ],
        );
        let t0 = std::time::Instant::now();
        // Records the job's execution span under the rid stamped on the
        // envelope at the wire layer, so one client request is traceable
        // from connection thread to scheduler worker. The phase/parent
        // fields link it into the request's trace tree; the stashed
        // phase note lets the wire layer attach this split to the
        // request's tail-latency exemplar.
        let queue_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
        let span = |dur: std::time::Duration| {
            obs.exec_us.record_duration(dur);
            obs.registry.span(
                &format!("serve.exec.{kind}"),
                &rid,
                dur,
                &[
                    ("phase", "exec".to_string()),
                    ("parent", "request".to_string()),
                    ("id", id.clone()),
                ],
            );
            obs.note_phases(
                &rid,
                queue_us,
                u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            );
        };
        let result = match job {
            Job::Ingest(images) => {
                obs.ingest_batch.record(images.len() as u64);
                learner
                    .step(&images)
                    .map(|outcome| {
                        samples_delta += images.len() as u64;
                        // Drift is the event the whole paper is about:
                        // every detection lands in the flight recorder
                        // with the batch's rid, so a post-mortem can line
                        // drift storms up against rejects and failovers.
                        if !outcome.drift_events.is_empty() {
                            obs.registry.journal_event(
                                "serve.drift",
                                &rid,
                                &[
                                    ("id", id.clone()),
                                    ("drifts", outcome.drift_events.len().to_string()),
                                    ("at", outcome.samples_seen.to_string()),
                                ],
                            );
                        }
                        let energy = learner.energy(manager.gpu());
                        JobOutput::Ingested(outcome, energy.train_j + energy.infer_j)
                    })
                    .map_err(|e| ServeError::Learner(e.to_string()))
            }
            Job::Report => Ok(JobOutput::Report(learner.report())),
            Job::Energy => Ok(JobOutput::Energy(learner.energy(manager.gpu()))),
            Job::Checkpoint => {
                let snapshot = learner.checkpoint();
                let enc0 = std::time::Instant::now();
                let bytes = snapshot.to_bytes();
                obs.encode_us.record_duration(enc0.elapsed());
                obs.encode_bytes.record(bytes.len() as u64);
                Ok(JobOutput::Checkpoint(bytes))
            }
            Job::Swap(bytes) => {
                let pre = learner.energy(manager.gpu());
                let dec0 = std::time::Instant::now();
                ModelSnapshot::from_bytes(&bytes)
                    .map_err(|e| ServeError::Snapshot(e.to_string()))
                    .and_then(|snap| {
                        obs.decode_us.record_duration(dec0.elapsed());
                        obs.decode_bytes.record(bytes.len() as u64);
                        learner
                            .adopt(snap)
                            .map_err(|e| ServeError::Snapshot(e.to_string()))
                    })
                    .map(|()| {
                        let post = learner.energy(manager.gpu());
                        let total_j = post.train_j + post.infer_j;
                        baseline_shift += total_j - (pre.train_j + pre.infer_j);
                        JobOutput::Swapped {
                            samples_seen: learner.samples_seen(),
                            total_j,
                        }
                    })
            }
            Job::Evict => match manager.evict_path(&id) {
                None => Err(ServeError::BadRequest(
                    "eviction is disabled on this server (no evict_dir)".into(),
                )),
                Some(path) => match learner.checkpoint().save(&path) {
                    Ok(()) => {
                        obs.registry
                            .journal_event("serve.evict", &rid, &[("id", id.clone())]);
                        evicted = Some(path.clone());
                        // Like close, evict is linearizable: the reply is
                        // deferred until after the registry update, so a
                        // client holding it can reuse the id at once.
                        deferred.push((reply, Ok(JobOutput::Evicted(path))));
                        span(t0.elapsed());
                        continue;
                    }
                    // The learner stays live: a failed save must not lose
                    // session state.
                    Err(e) => Err(ServeError::Snapshot(format!("eviction save failed: {e}"))),
                },
            },
            Job::Close => {
                closed = true;
                obs.registry.journal_event(
                    "serve.close",
                    &rid,
                    &[
                        ("id", id.clone()),
                        ("samples", learner.samples_seen().to_string()),
                    ],
                );
                // The reply must not be visible before the registry drops
                // the session, or a client could race its own close.
                deferred.push((reply, Ok(JobOutput::Closed(learner.report()))));
                span(t0.elapsed());
                continue;
            }
        };
        span(t0.elapsed());
        // A dropped receiver (client went away) is not an error worth
        // tearing the session down for.
        let _ = reply.send(result);
    }
    // Engine-work delta of this checkout, folded into the server-wide
    // counters (each learner owns its engine, so deltas never race).
    let engine_after = learner.engine_stats();
    obs.infer_batches
        .add(engine_after.batches - engine_before.batches);
    obs.infer_samples
        .add(engine_after.samples - engine_before.samples);
    obs.infer_busy_us
        .add(engine_after.busy_us - engine_before.busy_us);
    // The learner is still owned here even when the session closed or
    // evicted, so the registry always learns the session's final joules.
    let energy = learner.energy(manager.gpu());
    FinishedUnit {
        id,
        learner: (!closed && evicted.is_none()).then_some(learner),
        samples_delta,
        joules: energy.train_j + energy.infer_j,
        baseline_shift,
        evicted,
        deferred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use crate::session::{JobResult, ServeLimits};
    use neuro_energy::GpuSpec;
    use snn_data::SyntheticDigits;
    use spikedyn::Method;
    use std::sync::mpsc;

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

    fn batch(seed: u64, n: u64) -> Vec<snn_data::Image> {
        let gen = SyntheticDigits::new(seed);
        (0..n)
            .map(|i| gen.sample((i % 4) as u8, i).downsample(4))
            .collect()
    }

    fn start(manager: &Arc<SessionManager>) -> std::thread::JoinHandle<()> {
        let m = Arc::clone(manager);
        std::thread::spawn(move || run(m))
    }

    fn roundtrip(manager: &SessionManager, id: &str, job: Job) -> JobResult {
        let (tx, rx) = mpsc::channel();
        manager.submit(id, job, "", tx).unwrap();
        rx.recv().expect("scheduler replies to accepted jobs")
    }

    #[test]
    fn concurrent_sessions_match_single_process_references() {
        let manager = Arc::new(SessionManager::new(
            ServeLimits::default(),
            GpuSpec::gtx_1080_ti(),
            None,
        ));
        let scheduler = start(&manager);
        // Three sessions with different seeds, interleaved submissions.
        for s in 0..3u64 {
            manager.open(&format!("s{s}"), &tiny_spec(s)).unwrap();
        }
        for round in 0..3usize {
            for s in 0..3u64 {
                let stream = batch(s, 12);
                let out = roundtrip(
                    &manager,
                    &format!("s{s}"),
                    Job::Ingest(stream[round * 4..(round + 1) * 4].to_vec()),
                );
                assert!(matches!(out, Ok(JobOutput::Ingested(..))));
            }
        }
        // Each served session must equal a learner fed the same stream
        // in one process, bit for bit.
        for s in 0..3u64 {
            let served = match roundtrip(&manager, &format!("s{s}"), Job::Checkpoint) {
                Ok(JobOutput::Checkpoint(bytes)) => bytes,
                other => panic!("unexpected {other:?}"),
            };
            let mut reference = OnlineLearner::new(tiny_spec(s).online_config());
            for chunk in batch(s, 12).chunks(4) {
                reference.ingest_batch(chunk).unwrap();
            }
            assert_eq!(served, reference.checkpoint().to_bytes(), "session s{s}");
        }
        manager.shutdown();
        scheduler.join().unwrap();
    }

    #[test]
    fn close_answers_trailing_jobs_and_removes_session() {
        let manager = Arc::new(SessionManager::new(
            ServeLimits::default(),
            GpuSpec::gtx_1080_ti(),
            None,
        ));
        manager.open("a", &tiny_spec(1)).unwrap();
        // Queue close + a trailing report before the scheduler runs, so
        // both land in the same checkout. (Submitting after close is
        // already rejected; this covers the same-checkout race.)
        let (close_tx, close_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel();
        manager.submit("a", Job::Close, "", close_tx).unwrap();
        // Force-queue behind the close by bypassing the closing check:
        // build the envelope through a fresh session with the same queue…
        // not possible from outside, so exercise the scheduler directly.
        let mut unit = manager.take_unit().unwrap();
        unit.jobs.push(Envelope {
            job: Job::Report,
            rid: String::new(),
            reply: late_tx,
            enqueued: std::time::Instant::now(),
        });
        let finished = execute_unit(unit, &manager);
        assert!(finished.learner.is_none(), "closed => learner dropped");
        manager.finish(finished);
        assert!(matches!(close_rx.recv().unwrap(), Ok(JobOutput::Closed(_))));
        assert!(matches!(
            late_rx.recv().unwrap(),
            Err(ServeError::SessionClosing(_))
        ));
        assert_eq!(manager.stats().sessions, 0);
    }

    #[test]
    fn idle_sessions_are_evicted_while_every_worker_stays_busy() {
        // One busy session per worker, each fed so its queue never
        // empties: the ready queue never drains and no worker ever waits.
        // The idle session must still be swept within its timeout.
        let dir =
            std::env::temp_dir().join(format!("snn-serve-sched-{}-busy-sweep", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let timeout = std::time::Duration::from_millis(200);
        let manager = Arc::new(SessionManager::new(
            ServeLimits {
                idle_timeout: Some(timeout),
                ..ServeLimits::default()
            },
            GpuSpec::gtx_1080_ti(),
            Some(dir.clone()),
        ));
        let busy = rayon::current_num_threads();
        manager.open("idle", &tiny_spec(99)).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let feeders: Vec<_> = (0..busy as u64)
            .map(|b| {
                let id = format!("busy{b}");
                manager.open(&id, &tiny_spec(b)).unwrap();
                let (manager, stop) = (Arc::clone(&manager), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    let images = batch(b, 16);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Top the queue up to its bound, then wait for one
                        // reply: a checkout takes at most half the queue.
                        match manager.submit(&id, Job::Ingest(images.clone()), "", tx.clone()) {
                            Ok(()) => {}
                            Err(ServeError::Backpressure { .. }) => {
                                assert!(matches!(rx.recv().unwrap(), Ok(JobOutput::Ingested(..))));
                            }
                            Err(e) => panic!("busy session refused a job: {e}"),
                        }
                    }
                })
            })
            .collect();
        let scheduler = start(&manager);

        let t0 = std::time::Instant::now();
        while manager.stats().evicted_sessions == 0 {
            assert!(
                t0.elapsed() < timeout * 25,
                "the idle session was never swept while the workers were busy"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(manager.stats().sessions, busy, "only the idle session went");
        assert!(dir.join("idle.sdyn").exists(), "sweep checkpoint on disk");

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for feeder in feeders {
            feeder.join().unwrap();
        }
        manager.shutdown();
        scheduler.join().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn swap_rejects_garbage_and_keeps_serving() {
        let manager = Arc::new(SessionManager::new(
            ServeLimits::default(),
            GpuSpec::gtx_1080_ti(),
            None,
        ));
        let scheduler = start(&manager);
        manager.open("a", &tiny_spec(1)).unwrap();
        assert!(matches!(
            roundtrip(&manager, "a", Job::Swap(vec![1, 2, 3])),
            Err(ServeError::Snapshot(_))
        ));
        // The session survives the bad swap.
        assert!(matches!(
            roundtrip(&manager, "a", Job::Ingest(batch(1, 4))),
            Ok(JobOutput::Ingested(..))
        ));
        manager.shutdown();
        scheduler.join().unwrap();
    }
}
