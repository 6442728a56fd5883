//! Multi-session serving load generator: sessions × throughput × latency.
//!
//! ```sh
//! cargo run --release --bin serve              # harness scale (8 sessions)
//! cargo run --release --bin serve -- --fast    # seconds-long smoke run
//! ```
//! Accepts the shared scale flags (`--spt`, `--seed`, `--n-small`, …).

use spikedyn_bench::experiments::serve::{run_profile, Profile};
use spikedyn_bench::output::write_bench_json;
use spikedyn_bench::HarnessScale;

fn main() {
    let scale = HarnessScale::from_args();
    let profile = if std::env::args().any(|a| a == "--fast") {
        Profile::Smoke
    } else {
        Profile::Standard
    };
    let t0 = std::time::Instant::now();
    let (report, bench) = run_profile(&scale, profile);
    write_bench_json("serve", &bench).expect("write BENCH_serve.json");
    print!("{report}");
    println!("[serve done in {:.1}s]", t0.elapsed().as_secs_f32());
}
