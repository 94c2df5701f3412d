//! Strategy-layer invariants: zero-fault plans are invisible, and the
//! online estimators are bounded and deterministic.

use drafts::market::faults::ShardFaults;
use drafts::market::FaultPlan;
use drafts::platform::workload::WorkloadConfig;
use drafts::platform::{ProvisionerPolicy, ReplayConfig, StrategyReplay, StrategyReplayConfig};
use drafts::rng::{Rng, StreamFactory};
use drafts::strategy::estimators::{BetaEstimator, BP};
use drafts::strategy::lineup;

fn base_cfg() -> StrategyReplayConfig {
    StrategyReplayConfig {
        base: ReplayConfig {
            policy: ProvisionerPolicy::DraftsProfiles,
            target_p: 0.95,
            workload: WorkloadConfig {
                jobs: 30,
                span: 2_000,
                ..WorkloadConfig::default()
            },
            ..ReplayConfig::default()
        },
        ..StrategyReplayConfig::default()
    }
}

/// The PR 3 invariant, extended to the strategy replay: wiring zero-fault
/// `FaultyFeed`s and an all-healthy shard plan must reproduce the clean
/// path bit for bit, for every strategy in the lineup.
#[test]
fn zero_fault_plans_reproduce_the_clean_path_for_every_strategy() {
    for mut clean_strategy in lineup() {
        let name = clean_strategy.name();
        let clean = StrategyReplay::new(base_cfg()).run(clean_strategy.as_mut());

        let cfg = StrategyReplayConfig {
            feed_faults: Some(FaultPlan::none(7)),
            shard_faults: ShardFaults::none(3),
            ..base_cfg()
        };
        let mut faulted_strategy = lineup()
            .into_iter()
            .find(|s| s.name() == name)
            .expect("lineup is stable");
        let faulted = StrategyReplay::new(cfg).run(faulted_strategy.as_mut());

        assert_eq!(clean, faulted, "{name}: zero-fault plan must be invisible");
    }
}

/// The Beta-Bayesian availability estimate stays a valid probability in
/// basis points under any seeded observation sequence, and replaying the
/// same sequence reproduces the same estimates.
#[test]
fn beta_estimates_stay_bounded_and_deterministic() {
    let factory = StreamFactory::new(20_171_112);
    for run in 0..4u64 {
        let mut rng_a = factory.stream("beta-prop", run);
        let mut rng_b = factory.stream("beta-prop", run);
        let mut a = BetaEstimator::with_default_prior();
        let mut b = BetaEstimator::with_default_prior();
        for i in 0..2_000u64 {
            a.observe(rng_a.next_f64() < 0.6);
            b.observe(rng_b.next_f64() < 0.6);
            let est = a.availability_bp();
            assert!(est <= BP, "estimate {est} above 10000 bp at step {i}");
            assert_eq!(est, b.availability_bp(), "runs diverged at step {i}");
        }
        assert_eq!(a.observations(), 2_000);
    }
}
