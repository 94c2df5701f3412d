//! Workload replay: the §4.3 application-driven experiment in miniature.
//!
//! Replays a workflow-platform job trace against the spot-market substrate
//! under all three provisioning policies and prints a Table-2/3 style
//! comparison.
//!
//! ```text
//! cargo run --release --example workload_replay -- 200
//! ```
//! (number of jobs; default 150)

use drafts::platform::workload::WorkloadConfig;
use drafts::platform::{paper_replay, ProvisionerPolicy, ReplayConfig};

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    println!("replaying a {jobs}-job workload under each policy...\n");
    println!(
        "{:<20} {:>9} {:>10} {:>14} {:>13} {:>9}",
        "policy", "instances", "cost", "max bid cost", "terminations", "makespan"
    );
    for policy in ProvisionerPolicy::ALL {
        let cfg = ReplayConfig {
            policy,
            workload: WorkloadConfig {
                jobs,
                span: 4000,
                ..WorkloadConfig::default()
            },
            ..ReplayConfig::default()
        };
        let m = paper_replay(cfg);
        println!(
            "{:<20} {:>9} {:>10} {:>14} {:>13} {:>8}m",
            policy.label(),
            m.instances,
            format!("${:.2}", m.cost.dollars()),
            format!("${:.2}", m.max_bid_cost.dollars()),
            m.terminations,
            m.makespan / 60,
        );
        assert_eq!(m.jobs_completed as usize, jobs, "all jobs must finish");
    }
    println!("\n(DrAFTS policies should cut the worst-case 'max bid cost' sharply.)");
}
