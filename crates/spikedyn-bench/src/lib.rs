//! # spikedyn-bench — the experiment harness
//!
//! One module (and one binary) per table and figure of the paper's
//! evaluation. Every experiment prints the paper's reported numbers next
//! to the values measured by this reproduction and writes a CSV under
//! `target/experiments/`.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Fig. 1(b,c) motivational study | [`experiments::fig01`] | `fig01_motivation` |
//! | Fig. 4(b–d) architecture reduction | [`experiments::fig04`] | `fig04_arch` |
//! | Fig. 5(a–e) analytical-model validation | [`experiments::fig05`] | `fig05_estimation` |
//! | Fig. 6 wdecay/θ sweep | [`experiments::fig06`] | `fig06_sweep` |
//! | Fig. 9 accuracy (dynamic + non-dynamic) | [`experiments::fig09`] | `fig09_accuracy` |
//! | Fig. 10 confusion matrices | [`experiments::fig10`] | `fig10_confusion` |
//! | Fig. 11 energy across GPUs | [`experiments::fig11`] | `fig11_energy` |
//! | Table I GPU specs | [`experiments::table01`] | `table01_gpus` |
//! | Table II processing time | [`experiments::table02`] | `table02_time` |
//! | Ablations (design choices) | [`experiments::ablations`] | `ablations` |
//! | Online drift scenarios (beyond the paper) | [`experiments::online`] | `online` (`--fast` for the smoke profile) |
//!
//! `run_all` executes everything in sequence. The serving tier is
//! measured by the repository's benchmark, `perfbench/` (driven by
//! `BENCHMARK.json`), and its drills are workspace tests.
//!
//! ## Scale
//!
//! The paper trains on full MNIST (6000 samples/task, N200/N400, 350 ms
//! presentations) for GPU-hours per run. The harness defaults to the
//! *fast profile*: 14×14 synthetic digits, 100 ms presentations, 40
//! samples per task, with every method's time constants rescaled by the
//! temporal-compression factor (see `DESIGN.md` §2). Pass `--spt <n>` to
//! change the per-task sample count and `--seed <s>` for a different
//! replication.

#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod scale;

pub use output::{write_csv, Table};
pub use scale::HarnessScale;
