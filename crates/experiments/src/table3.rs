//! Table 3: averages over repeated simulated replays for the three
//! provisioning policies (paper: 35 experiments each, April 1–2, 2017).

use crate::common::Scale;
use crate::table2::replay_config;
use backtest::report::Table;
use provisioner::metrics::AveragedMetrics;
use provisioner::{paper_replay, ProvisionerPolicy, ReplayMetrics};

/// Table 3 output: averaged metrics per policy.
pub struct Table3Output {
    /// Number of experiments averaged.
    pub experiments: u64,
    /// `(policy, averages)` rows in paper order.
    pub rows: Vec<(ProvisionerPolicy, AveragedMetrics)>,
}

/// Runs `experiments` replays per policy (varying the workload draw and
/// market seed) and averages.
pub fn run(scale: Scale) -> Table3Output {
    let experiments = scale.pick(5u64, 35);
    // Flatten (policy, experiment) into one task list so the pool can
    // balance all 3 x N replays, then fold per policy in experiment order
    // — the same float-accumulation order as a serial loop, so averages
    // are bit-identical at any thread count.
    let tasks: Vec<(ProvisionerPolicy, u64)> = ProvisionerPolicy::ALL
        .into_iter()
        .flat_map(|policy| (0..experiments).map(move |i| (policy, i)))
        .collect();
    let metrics = parallel::par_map(&tasks, |&(policy, i)| {
        let mut cfg = replay_config(scale, policy, i);
        // Each experiment replays at a different market time and with a
        // different workload draw, like the paper's repeated simulator
        // runs.
        cfg.seed = cfg.seed.wrapping_add(i * 7919);
        paper_replay(cfg)
    });
    let rows = ProvisionerPolicy::ALL
        .into_iter()
        .enumerate()
        .map(|(pi, policy)| {
            let mut acc = ReplayMetrics::default();
            for m in &metrics[pi * experiments as usize..(pi + 1) * experiments as usize] {
                acc.add(m);
            }
            (policy, acc.averaged(experiments))
        })
        .collect();
    Table3Output { experiments, rows }
}

/// Renders the paper-style table.
pub fn render(out: &Table3Output) -> Table {
    let mut t = Table::new(
        &format!(
            "Table 3: averages over {} simulated replays per method",
            out.experiments
        ),
        &[
            "Method",
            "Avg. Instances",
            "Avg. Cost",
            "Avg. Max Bid Cost",
            "Avg. Terminations",
        ],
    );
    for (policy, m) in &out.rows {
        t.row(vec![
            policy.label().to_string(),
            format!("{:.1}", m.instances),
            format!("${:.2}", m.cost),
            format!("${:.2}", m.max_bid_cost),
            format!("{:.2}", m.terminations),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_matches_the_paper_shape() {
        let out = run(Scale::Quick);
        assert_eq!(out.rows.len(), 3);
        let m = |p: ProvisionerPolicy| {
            out.rows
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, m)| *m)
                .expect("policy present")
        };
        let orig = m(ProvisionerPolicy::Original);
        let one_hr = m(ProvisionerPolicy::Drafts1Hr);
        let profiles = m(ProvisionerPolicy::DraftsProfiles);
        // Risk ordering (the paper's headline): Original >> 1-hr >= profiles.
        assert!(
            one_hr.max_bid_cost < orig.max_bid_cost,
            "1-hr risk {} vs original {}",
            one_hr.max_bid_cost,
            orig.max_bid_cost
        );
        assert!(
            profiles.max_bid_cost <= one_hr.max_bid_cost * 1.02,
            "profiles risk {} vs 1-hr {}",
            profiles.max_bid_cost,
            one_hr.max_bid_cost
        );
        // Tighter bids can only raise the termination count.
        assert!(profiles.terminations >= one_hr.terminations - 1e-9);
        let rendered = render(&out).render();
        assert!(rendered.contains("DrAFTS (profiles)"));
    }
}
