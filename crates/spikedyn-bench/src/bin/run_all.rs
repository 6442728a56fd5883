//! Runs every table/figure reproduction in sequence (the full evaluation
//! of the paper). Accepts the same scale flags as the individual binaries.
use spikedyn_bench::experiments::{
    ablations, fig01, fig04, fig05, fig06, fig09, fig10, fig11, online, table01, table02,
};
use spikedyn_bench::HarnessScale;

fn main() {
    let scale = HarnessScale::from_args();
    println!(
        "SpikeDyn reproduction — full evaluation (spt={}, compression={:.0}x, seed={})\n",
        scale.samples_per_task,
        scale.compression(),
        scale.seed
    );
    type Experiment = (&'static str, fn(&HarnessScale) -> String);
    let experiments: [Experiment; 11] = [
        ("Table I", table01::run),
        ("Fig. 1", fig01::run),
        ("Fig. 4", fig04::run),
        ("Fig. 5", fig05::run),
        ("Fig. 6", fig06::run),
        ("Fig. 9", fig09::run),
        ("Fig. 10", fig10::run),
        ("Fig. 11", fig11::run),
        ("Table II", table02::run),
        ("Ablations", ablations::run),
        ("Online", online::run),
    ];
    for (name, f) in experiments {
        let t0 = std::time::Instant::now();
        print!("{}", f(&scale));
        println!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f32());
    }
    println!("CSV outputs under target/experiments/");
}
