//! # snn-core — a clock-driven spiking neural network simulator
//!
//! This crate is the simulation substrate for the SpikeDyn reproduction
//! (Putra & Shafique, DAC 2021). The paper evaluates its contribution on a
//! Python/BindsNET simulator; no equivalent exists in the offline Rust crate
//! universe, so this crate implements the required pieces from scratch:
//!
//! * [`neuron`] — Leaky Integrate-and-Fire neurons with conductance-based
//!   synaptic input and an optional adaptive threshold (homeostasis), plus
//!   the simpler non-leaky IF model for comparison.
//! * [`synapse`] — dense weight matrices and conductance bookkeeping.
//! * [`encoding`] — spike encoders: Poisson rate coding (used by the paper)
//!   and the other schemes its background section cites (time-to-first-spike,
//!   rank-order, phase, burst).
//! * [`stdp`] — exponentially decaying pre/post synaptic traces and a
//!   pair-based STDP helper, the building block for every learning rule in
//!   the reproduction.
//! * [`network`] — the two-layer architecture family used by the paper:
//!   input → excitatory with either an explicit inhibitory layer
//!   (Diehl & Cook style) or SpikeDyn's direct lateral inhibition.
//! * [`sim`] — the clock-driven engine that presents one encoded sample to a
//!   network, with hooks for plasticity rules and operation counting; its
//!   inference entry reads shared weights and writes only per-sample
//!   neuron state.
//! * [`metrics`] — neuron-to-class assignment, accuracy and confusion
//!   matrices for the unsupervised evaluation protocol.
//! * [`ops`] — operation counters consumed by the `neuro-energy` crate to
//!   estimate energy the way the paper does (§III-C analytical models).
//! * [`quantize`] — fixed-point weight quantisation, the `BP` axis of the
//!   paper's `mem = (Pw + Pn) · BP` memory model.
//!
//! ## Quick example
//!
//! ```
//! use snn_core::network::{Snn, SnnConfig};
//! use snn_core::sim::{run_sample, PresentConfig};
//! use snn_core::encoding::PoissonEncoder;
//! use snn_core::ops::OpCounts;
//! use snn_core::rng::seeded_rng;
//!
//! // A tiny network: 9 inputs, 4 excitatory neurons, direct lateral inhibition.
//! let cfg = SnnConfig::direct_lateral(9, 4);
//! let mut net = Snn::new(cfg, &mut seeded_rng(7));
//! let encoder = PoissonEncoder::new(63.75);
//! let image = vec![0.8_f32; 9];
//! let mut ops = OpCounts::default();
//! let result = run_sample(
//!     &mut net,
//!     &encoder.rates_hz(&image),
//!     &PresentConfig::default(),
//!     None,
//!     &mut seeded_rng(8),
//!     &mut ops,
//! );
//! assert_eq!(result.exc_spike_counts.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod encoding;
pub mod error;
pub mod metrics;
pub mod network;
pub mod neuron;
pub mod ops;
pub mod quantize;
pub mod rng;
pub mod sim;
pub mod spikes;
pub mod stdp;
pub mod synapse;

pub use config::PresentConfig;
pub use error::{SnnError, SnnResult};
pub use network::{Inhibition, NeuronState, Snn, SnnConfig};
pub use ops::OpCounts;
pub use sim::{infer_sample, run_sample, SampleResult};
