//! One module per table/figure of the paper's evaluation.

pub mod ablations;
pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod online;
pub mod table01;
pub mod table02;

use snn_core::ops::OpCounts;
use snn_data::{eval_set, SyntheticDigits};
use spikedyn::{Method, Trainer};

use crate::scale::HarnessScale;

/// Meters the average per-sample operation counts of one method at one
/// network size: a short mixed-class training burst followed by a short
/// inference burst (the `E1` measurements of the paper's `E = E1 · N`).
pub fn meter_method(method: Method, n_exc: usize, scale: &HarnessScale) -> (OpCounts, OpCounts) {
    let cfg = scale.protocol(method, n_exc);
    let mut trainer = Trainer::with_compression(
        method,
        cfg.n_input(),
        n_exc,
        cfg.present,
        cfg.time_compression,
        scale.seed,
    )
    .with_max_rate(cfg.max_rate_hz);
    let gen = SyntheticDigits::new(scale.seed);
    let classes: Vec<u8> = (0..10).collect();
    let images: Vec<_> = eval_set(&gen, &classes, 1, 0, scale.seed)
        .into_iter()
        .map(|i| i.downsample(2))
        .collect();
    trainer.train_on(&images);
    for img in &images {
        trainer.infer_image(img);
    }
    (
        trainer.avg_train_sample_ops(),
        trainer.avg_infer_sample_ops(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metering_orders_methods_as_the_paper_expects() {
        let scale = HarnessScale {
            n_small: 50,
            n_large: 100,
            ..Default::default()
        };
        let (base_t, base_i) = meter_method(Method::Baseline, 50, &scale);
        let (asp_t, asp_i) = meter_method(Method::Asp, 50, &scale);
        let (sd_t, sd_i) = meter_method(Method::SpikeDyn, 50, &scale);
        // Training: ASP costs more kernels than the baseline (extra traces,
        // leak); SpikeDyn costs fewer (no inhibitory layer, gated updates).
        assert!(asp_t.kernel_launches > base_t.kernel_launches);
        assert!(sd_t.kernel_launches < base_t.kernel_launches);
        // Inference: SpikeDyn saves the inhibitory-layer kernels.
        assert!(sd_i.kernel_launches < base_i.kernel_launches);
        assert!(sd_i.kernel_launches < asp_i.kernel_launches);
    }
}
