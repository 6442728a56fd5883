//! Shared experiment scale configuration and CLI parsing.

use spikedyn::eval::ProtocolConfig;
use spikedyn::Method;

/// The paper's samples-per-task on MNIST.
pub const PAPER_SAMPLES_PER_TASK: u64 = 6000;

/// Scale knobs common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessScale {
    /// Samples per task in dynamic runs.
    pub samples_per_task: u64,
    /// The small network size (paper: N200).
    pub n_small: usize,
    /// The large network size (paper: N400).
    pub n_large: usize,
    /// Master seed.
    pub seed: u64,
    /// Labelled samples per class for neuron→class assignment.
    pub assign_per_class: u64,
    /// Held-out samples per class for accuracy measurement.
    pub eval_per_class: u64,
}

impl Default for HarnessScale {
    fn default() -> Self {
        HarnessScale {
            samples_per_task: 40,
            n_small: 200,
            n_large: 400,
            seed: 42,
            assign_per_class: 6,
            eval_per_class: 10,
        }
    }
}

impl HarnessScale {
    /// Parses `--spt`, `--seed`, `--n-small`, `--n-large`, `--eval` and
    /// `--assign` from the process arguments on top of the defaults;
    /// other arguments (such as `--fast`) are left to the binary. A known
    /// flag with a missing or unparseable value is reported on stderr and
    /// exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Temporal compression of this scale relative to the paper.
    pub fn compression(&self) -> f32 {
        PAPER_SAMPLES_PER_TASK as f32 / self.samples_per_task.max(1) as f32
    }

    /// Builds the dynamic/non-dynamic protocol config for one method and
    /// network size at this scale.
    pub fn protocol(&self, method: Method, n_exc: usize) -> ProtocolConfig {
        let mut cfg = ProtocolConfig::fast(method, n_exc);
        cfg.samples_per_task = self.samples_per_task;
        cfg.assign_per_class = self.assign_per_class;
        cfg.eval_per_class = self.eval_per_class;
        cfg.seed = self.seed;
        cfg.time_compression = self.compression();
        cfg
    }

    /// `(label, n_exc)` pairs for the two paper network sizes.
    pub fn sizes(&self) -> [(&'static str, usize); 2] {
        [("N200", self.n_small), ("N400", self.n_large)]
    }
}

/// Applies the scale flags in `args` (program name excluded) to the
/// defaults.
fn parse(args: &[String]) -> Result<HarnessScale, String> {
    fn value<T: std::str::FromStr>(flag: &str, arg: Option<&String>) -> Result<T, String> {
        let v = arg.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}"))
    }
    let mut scale = HarnessScale::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--spt" => scale.samples_per_task = value(flag, args.next())?,
            "--seed" => scale.seed = value(flag, args.next())?,
            "--n-small" => scale.n_small = value(flag, args.next())?,
            "--n-large" => scale.n_large = value(flag, args.next())?,
            "--eval" => scale.eval_per_class = value(flag, args.next())?,
            "--assign" => scale.assign_per_class = value(flag, args.next())?,
            _ => {}
        }
    }
    Ok(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_tuned_operating_point() {
        let s = HarnessScale::default();
        assert_eq!(s.samples_per_task, 40);
        assert!((s.compression() - 150.0).abs() < 1e-3);
    }

    #[test]
    fn protocol_inherits_scale() {
        let s = HarnessScale {
            samples_per_task: 20,
            seed: 9,
            ..Default::default()
        };
        let cfg = s.protocol(Method::SpikeDyn, 100);
        assert_eq!(cfg.samples_per_task, 20);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.n_exc, 100);
        assert!((cfg.time_compression - 300.0).abs() < 1e-3);
    }

    #[test]
    fn sizes_are_labelled() {
        let s = HarnessScale::default();
        let sizes = s.sizes();
        assert_eq!(sizes[0], ("N200", 200));
        assert_eq!(sizes[1], ("N400", 400));
    }

    /// Parses a space-separated argument line.
    fn parse_line(line: &str) -> Result<HarnessScale, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn unparseable_value_is_an_error_naming_the_flag() {
        let err = parse_line("--spt abc").unwrap_err();
        assert!(err.contains("--spt"), "{err}");
        let err = parse_line("--eval -3").unwrap_err();
        assert!(err.contains("--eval"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error_naming_the_flag() {
        let err = parse_line("--spt 5 --seed").unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn valid_flags_mix_with_bare_switches() {
        let s = parse_line("--fast --spt 5 --seed 7 --n-small 50 --eval 3").unwrap();
        assert_eq!(s.samples_per_task, 5);
        assert_eq!(s.seed, 7);
        assert_eq!(s.n_small, 50);
        assert_eq!(s.eval_per_class, 3);
        let d = HarnessScale::default();
        assert_eq!(s.n_large, d.n_large);
        assert_eq!(s.assign_per_class, d.assign_per_class);
    }
}
