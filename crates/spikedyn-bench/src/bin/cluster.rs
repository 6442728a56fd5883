//! Cluster load generator: aggregate throughput for 1 vs N shards.
//!
//! ```sh
//! cargo run --release --bin cluster              # harness scale (1/2/4 shards)
//! cargo run --release --bin cluster -- --fast    # seconds-long smoke run
//! ```
//! Accepts the shared scale flags (`--spt`, `--seed`, `--n-small`, …).

use spikedyn_bench::experiments::cluster::{run_profile, Profile};
use spikedyn_bench::output::{write_bench_json, write_root_artifact};
use spikedyn_bench::HarnessScale;

fn main() {
    let scale = HarnessScale::from_args();
    let profile = if std::env::args().any(|a| a == "--fast") {
        Profile::Smoke
    } else {
        Profile::Standard
    };
    let t0 = std::time::Instant::now();
    let (report, bench, postmortem) = run_profile(&scale, profile);
    write_bench_json("cluster", &bench).expect("write BENCH_cluster.json");
    write_root_artifact("POSTMORTEM_cluster.journal", &postmortem)
        .expect("write POSTMORTEM_cluster.journal");
    print!("{report}");
    println!("[cluster done in {:.1}s]", t0.elapsed().as_secs_f32());
}
