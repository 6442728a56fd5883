//! # spikedyn-repro — umbrella crate for the SpikeDyn reproduction
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use one coherent namespace:
//!
//! * [`core`](snn_core) — the clock-driven SNN simulator substrate,
//! * [`data`](snn_data) — synthetic MNIST-like digits, IDX parsing, task streams,
//! * [`baselines`](snn_baselines) — Diehl & Cook and ASP comparison partners,
//! * [`energy`](neuro_energy) — GPU cost models and the paper's analytical estimators,
//! * [`runtime`](snn_runtime) — the batched, sample-parallel execution engine,
//! * [`spikedyn`] — the paper's contribution: architecture, Alg. 1 search, Alg. 2 learning,
//! * [`online`](snn_online) — the streaming continual learner with durable checkpoints,
//! * [`serve`](snn_serve) — the multi-session TCP serving layer over `snn-online`,
//! * [`cluster`](snn_cluster) — the consistent-hash session router sharding
//!   `snn-serve` with checkpoint-based live migration, replica shadowing,
//!   and restore-from-shadow failover,
//! * [`obs`](snn_obs) — the telemetry spine: metrics, trace spans, and the
//!   always-on flight-recorder journal,
//! * [`slo`](snn_slo) — declarative SLOs with burn-rate alerting over
//!   streamed telemetry windows.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

#![warn(missing_docs)]

pub use neuro_energy;
pub use snn_baselines;
pub use snn_cluster;
pub use snn_core;
pub use snn_data;
pub use snn_obs;
pub use snn_online;
pub use snn_runtime;
pub use snn_serve;
pub use snn_slo;
pub use spikedyn;
