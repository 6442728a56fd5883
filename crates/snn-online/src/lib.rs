//! # snn-online — streaming continual learning with durable model state
//!
//! SpikeDyn's premise is *unsupervised continual learning in dynamic
//! environments* (Putra & Shafique, DAC 2021), but offline batch
//! experiments end when the process exits. This crate is the long-running
//! counterpart: an [`OnlineLearner`] that consumes an `Image` stream,
//! interleaves scalar plasticity with batched `snn-runtime` inference,
//! watches the stream with a deterministic [`DriftDetector`], reacts to
//! confirmed drift with SpikeDyn's adaptive responses, and checkpoints its
//! *entire* state — network, trainer, RNG cursors, metrics, detector —
//! into a versioned [`ModelSnapshot`] that round-trips bit-exactly.
//!
//! ## Determinism contract
//!
//! Extends the workspace policy (`DESIGN.md` §4) to pausable streams:
//! **same seed + same stream ⇒ identical checkpoints at any pause point**
//! (pause points are micro-batch boundaries). A learner stopped, saved,
//! reloaded and fed the identical remaining stream produces the same
//! predictions, the same weights and the same next checkpoint, byte for
//! byte, as one that never stopped. Pinned by this crate's unit tests and
//! the workspace-level `tests/online_checkpoint.rs`.
//!
//! ## Hot model swap
//!
//! The learner holds one long-lived engine and adopts each new weight
//! state through [`snn_runtime::Engine::hot_swap`] — one copy into the
//! engine's template, which all its workers read, and the pool of
//! per-sample neuron state stays warm. The same call serves external
//! consumers that want to swap a deployed engine onto a freshly loaded
//! snapshot between request batches.
//!
//! ## Driving a learner externally
//!
//! A session host (the `snn-serve` crate) drives the learner through the
//! handle API instead of [`OnlineLearner::run`]: [`OnlineLearner::step`]
//! processes one micro-batch and returns a [`StepOutcome`] with
//! everything a serving layer reports back per request, and
//! [`OnlineLearner::adopt`] hot-swaps a *running* learner onto a received
//! [`ModelSnapshot`] without rebuilding its engine. Each learner owns its
//! engine, in a session host as in process.
//!
//! ## Quick example
//!
//! ```
//! use snn_online::{ModelSnapshot, OnlineConfig, OnlineLearner};
//! use snn_data::SyntheticDigits;
//! use spikedyn::Method;
//!
//! let mut cfg = OnlineConfig::fast(Method::SpikeDyn, 10);
//! cfg.batch_size = 4;
//! let gen = SyntheticDigits::new(7);
//! let stream: Vec<_> = (0..8).map(|i| gen.sample(i % 3, i.into()).downsample(2)).collect();
//!
//! let mut learner = OnlineLearner::new(cfg);
//! learner.run(stream.clone()).unwrap();
//!
//! // Durable state: save, reload, warm-start mid-stream.
//! let bytes = learner.checkpoint().to_bytes();
//! let mut resumed = OnlineLearner::resume(ModelSnapshot::from_bytes(&bytes).unwrap()).unwrap();
//! resumed.run(stream).unwrap();
//! assert_eq!(resumed.samples_seen(), 16);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod drift;
pub mod learner;
pub mod metrics;
pub mod snapshot;

pub use drift::{DriftConfig, DriftDetector, DriftEvent};
pub use learner::{
    EnergyReport, LearnerObs, OnlineConfig, OnlineLearner, OnlineReport, ResponseConfig,
    StepOutcome,
};
pub use metrics::{SlidingMetrics, WindowRecord};
pub use snapshot::{ModelSnapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
