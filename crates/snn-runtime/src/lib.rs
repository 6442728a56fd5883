//! # snn-runtime — batched, sample-parallel SNN execution engine
//!
//! The SpikeDyn evaluation protocols (§IV–V of the paper) push thousands of
//! samples through the simulator per experiment. The scalar
//! [`snn_core::sim::run_sample`] path presents them one at a time; this
//! crate adds the first scaling multiplier on top of it: an [`Engine`] that
//! fans a batch of samples out across worker threads with `rayon`, one
//! whole-sample simulation per unit of work. Every worker reads the
//! engine's one weight copy through [`snn_core::sim::infer_sample`] and
//! writes only a pooled per-sample [`snn_core::network::NeuronState`].
//!
//! The engine stores that copy input-major
//! ([`snn_core::synapse::InputMajor`]): row `k` holds the weights input
//! `k` drives, so each step adds every spiking input's fan-out as one
//! contiguous run. The trainer keeps the row-major matrix its plasticity
//! rule writes; [`Engine::hot_swap`] transposes it into the engine's copy
//! in one pass. Per neuron, both layouts add the same weights in the same
//! order, so the engine is bit-identical to the scalar `run_sample` path.
//!
//! ## Determinism policy
//!
//! Batched execution is **bit-identical** to sequential execution. Every
//! sample's Poisson encoding noise comes from a private RNG seeded as
//! `derive_seed(batch_seed, sample_index)` ([`snn_core::rng::derive_seed`]),
//! so no sample's randomness depends on scheduling, thread count or the
//! presence of other samples. Inference never writes the weights, each
//! replica's adaptation potentials `θ` are re-synchronised to the engine's
//! template before every sample, and results are assembled in submission
//! order. The property is pinned by tests that compare
//! [`Engine::infer_batch`] against [`Engine::infer_sequential`] bit for
//! bit and across `RAYON_NUM_THREADS` settings. See `DESIGN.md` for the
//! full policy.
//!
//! ## Quick example
//!
//! ```
//! use snn_core::network::SnnConfig;
//! use snn_runtime::{Engine, EngineConfig};
//! use snn_data::SyntheticDigits;
//!
//! let gen = SyntheticDigits::new(7);
//! let images: Vec<_> = (0..8).map(|i| gen.sample(3, i).downsample(2)).collect();
//! let engine = Engine::new(EngineConfig::new(SnnConfig::direct_lateral(196, 10), 42));
//! let results = engine.infer_batch(&images, 1);
//! assert_eq!(results.len(), 8);
//! // Bit-identical to the sequential path, whatever the thread count:
//! assert_eq!(results, engine.infer_sequential(&images, 1));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod pool;
pub mod report;

pub use engine::{Engine, EngineConfig, EngineStats};
pub use pool::{PoolStats, ReplicaPool};
pub use report::{BatchOutcome, EvalReport};
