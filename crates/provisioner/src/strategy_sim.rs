//! The provisioning replay (the SCRIMP-style plugin of paper §4.3): a
//! boxed [`Strategy`] owns every launch, keep and abandon decision over
//! the virtual-time substrate.
//!
//! Jobs queue on submission, the provisioner scans the queue on a fixed
//! interval, reuses idle pool instances within their billed hour, requeues
//! jobs whose instance the market revokes, and releases idle instances at
//! the 3300 s point of their hour. At every scan the replay asks the
//! strategy about every queued job and every job riding a spot instance,
//! and executes whatever it answers: spot requests at the strategy's bid,
//! on-demand launches (instances the market can never revoke), or
//! checkpoint migrations from spot to on-demand. Tables 2 and 3 run the
//! platform's own rule, [`strategy::PaperPolicy`]; the strategy arena runs
//! the [`strategy::lineup`]. The advisory plane can be degraded two ways:
//! a [`FaultPlan`] corrupts the price feeds behind the DrAFTS service, and
//! a [`ShardFaults`] plan darkens advisory shards — combos mapped to a
//! killed or hung shard stop answering, exactly as the sharded front
//! would experience it.
//!
//! On-demand instances live only in the pool: the spot simulator never
//! sees them. They are billed at the catalog's fixed hourly price with
//! round-up, are immune to launch faults and revocations, and release at
//! the same 3300 s point of their billed hour as spot capacity.
//! Everything is deterministic in the configuration.

use crate::job::{suitable_types, Job, JobProfile};
use crate::metrics::ReplayMetrics;
use crate::policy::{self, ProvisionerPolicy};
use crate::pool::{EntryKind, Pool, PoolEntry};
use crate::workload::{self, WorkloadConfig};
use drafts_core::predictor::DraftsConfig;
use drafts_core::service::{DraftsService, ServiceConfig};
use simrng::StreamFactory;
use spotmarket::catalog::Catalog;
use spotmarket::faults::{ShardFaultKind, ShardFaults};
use spotmarket::lifecycle::{InstanceId, InstanceState, TerminationReason};
use spotmarket::simulator::{LaunchError, SpotSimulator};
use spotmarket::tracegen::TraceConfig;
use spotmarket::{
    Combo, FaultPlan, FaultyFeed, LaunchFaults, Price, Region, DAY, HOUR, MINUTE, UPDATE_PERIOD,
};
use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use strategy::{Action, JobState, MarketView, PriceQuantiles, ResourceKind, SpotPlan, Strategy};

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Experiment seed (markets and workload).
    pub seed: u64,
    /// Which workload draw to replay (Table 3 varies this per run).
    pub workload_index: u64,
    /// The region the platform runs in.
    pub region: Region,
    /// The provisioning policy: which plan strategies see as the DrAFTS
    /// plan. Under [`ProvisionerPolicy::Original`] that is the original
    /// rule, and the replay builds no advisory plane at all.
    pub policy: ProvisionerPolicy,
    /// Durability probability for the DrAFTS policies (paper: 0.99).
    pub target_p: f64,
    /// Offset into the price histories where the replay begins (leaves
    /// warm-up data for the predictor).
    pub replay_start: u64,
    /// Price-history length in days.
    pub history_days: u64,
    /// Provisioner scan interval in seconds.
    pub scan_interval: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// DrAFTS prediction configuration used by the service.
    pub drafts: DraftsConfig,
    /// Seeded launch-API faults injected into the market simulator
    /// ([`LaunchFaults::none`] by default: the clean path).
    pub launch_faults: LaunchFaults,
    /// Cap on the per-job exponential backoff after transient launch
    /// failures (throttling, insufficient capacity).
    pub max_launch_backoff: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            seed: 20160428,
            workload_index: 0,
            region: Region::UsEast1,
            policy: ProvisionerPolicy::Drafts1Hr,
            target_p: 0.99,
            replay_start: 24 * DAY,
            history_days: 26,
            scan_interval: 60,
            workload: WorkloadConfig::default(),
            drafts: DraftsConfig {
                duration_stride: 3,
                ..DraftsConfig::default()
            },
            launch_faults: LaunchFaults::none(),
            max_launch_backoff: 15 * MINUTE,
        }
    }
}

impl ReplayConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent windows or a zero scan interval.
    pub fn validate(&self) {
        assert!(self.scan_interval > 0, "zero scan interval");
        assert!(self.max_launch_backoff > 0, "zero launch backoff cap");
        self.launch_faults.validate();
        assert!(
            self.replay_start < self.history_days * DAY,
            "replay starts outside the histories"
        );
        assert!(
            self.target_p > 0.0 && self.target_p < 1.0,
            "probability must be in (0,1)"
        );
    }
}

/// On-demand instance ids start here — far outside the spot simulator's
/// dense id range, so an on-demand id reaching the simulator is a bug that
/// trips its bounds checks instead of silently aliasing an instance.
const OD_ID_BASE: u64 = 1 << 62;

/// Strategy-replay parameters: the base replay substrate plus the two
/// advisory-plane degradation levers.
#[derive(Debug, Clone)]
pub struct StrategyReplayConfig {
    /// The substrate: seed, region, workload, scan interval, launch
    /// faults. `base.policy` selects the DrAFTS arm strategies see as the
    /// guaranteed plan ([`ProvisionerPolicy::DraftsProfiles`] by default).
    pub base: ReplayConfig,
    /// Feed corruption behind the DrAFTS service. `None` wires the clean
    /// feeds; `Some(FaultPlan::none(..))` wires zero-fault [`FaultyFeed`]s,
    /// which must behave identically (the PR 3 invariant).
    pub feed_faults: Option<FaultPlan>,
    /// Advisory-shard fault schedule: combos mapped (by `key % shards`) to
    /// a killed or hung shard serve no DrAFTS plan while the fault is
    /// active. Slow shards still answer.
    pub shard_faults: ShardFaults,
}

impl Default for StrategyReplayConfig {
    fn default() -> Self {
        Self::clean(ReplayConfig {
            policy: ProvisionerPolicy::DraftsProfiles,
            ..ReplayConfig::default()
        })
    }
}

impl StrategyReplayConfig {
    /// `base` over a healthy advisory plane: clean feeds, no shard faults.
    pub fn clean(base: ReplayConfig) -> Self {
        Self {
            base,
            feed_faults: None,
            shard_faults: ShardFaults::none(1),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on an invalid base config or fault plan.
    pub fn validate(&self) {
        self.base.validate();
        if let Some(plan) = &self.feed_faults {
            plan.validate();
        }
    }
}

/// What one strategy replay measured, beyond the base [`ReplayMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyOutcome {
    /// The replay accounting (cost, completions, misses, switches, ...).
    pub metrics: ReplayMetrics,
    /// Strategy decisions taken (queued + running consultations).
    pub decisions: u64,
    /// Times the strategy's deadline backstop fired.
    pub panic_activations: u64,
    /// On-demand instances launched (also counted in
    /// `metrics.instances`).
    pub od_instances: u64,
    /// Billed cost of the on-demand instances.
    pub od_cost: Price,
    /// Billed cost of the spot instances.
    pub spot_cost: Price,
}

impl StrategyOutcome {
    /// Exports the per-strategy counters into `registry` under
    /// `drafts_strategy_*_total{strategy="<name>"}`, mirroring
    /// [`ReplayMetrics::export_to`].
    pub fn export_to(&self, registry: &obs::Registry, strategy: &str) {
        for (stem, value) in [
            ("decisions", self.decisions),
            ("switches", self.metrics.strategy_switches),
            ("panics", self.panic_activations),
            ("deadline_misses", self.metrics.deadline_misses),
        ] {
            let counter = obs::Counter::new();
            counter.add(value);
            registry.attach_counter(
                &format!("drafts_strategy_{stem}_total{{strategy=\"{strategy}\"}}"),
                &counter,
            );
        }
    }
}

/// Memoizes trailing-window price quantiles per `(combo, update bucket)` —
/// prices step every [`UPDATE_PERIOD`], so finer recomputation would sort
/// the same window repeatedly for identical results.
#[derive(Default)]
struct QuantileCache {
    map: HashMap<(u64, u64), PriceQuantiles>,
}

impl QuantileCache {
    fn get(&mut self, sim: &mut SpotSimulator, combo: Combo, t: u64) -> PriceQuantiles {
        let bucket = t / UPDATE_PERIOD;
        *self
            .map
            .entry((combo.key(), bucket))
            .or_insert_with(|| Self::compute(sim, combo, bucket * UPDATE_PERIOD))
    }

    /// Quantiles of the combo's market prices over the trailing seven
    /// days — the provisioner's own clean observation of prices it has
    /// seen, independent of the (possibly corrupted) advisory feeds.
    fn compute(sim: &mut SpotSimulator, combo: Combo, t: u64) -> PriceQuantiles {
        let series = sim.history(combo).series();
        let times = series.times();
        let from = t.saturating_sub(7 * DAY);
        let lo = times.partition_point(|&x| x < from);
        let hi = times.partition_point(|&x| x <= t);
        if lo >= hi {
            return PriceQuantiles::default();
        }
        let mut vals: Vec<u64> = series.values()[lo..hi].to_vec();
        vals.sort_unstable();
        let q = |p: u64| Some(Price::from_ticks(vals[((vals.len() - 1) as u64 * p / 100) as usize]));
        PriceQuantiles {
            q50: q(50),
            q75: q(75),
            q90: q(90),
            q95: q(95),
        }
    }
}

/// The replay's [`MarketView`] for one job profile at one scan time. The
/// plans are computed on first read and memoised for the tick, and the
/// quantiles come from the replay-wide [`QuantileCache`]: a strategy that
/// answers without reading the advisory fields costs no service query.
struct ReplayTick<'a> {
    replay: &'a StrategyReplay,
    service: &'a DraftsService,
    sim: RefCell<&'a mut SpotSimulator>,
    qcache: RefCell<&'a mut QuantileCache>,
    pool: RefCell<&'a mut Pool>,
    profile: &'a JobProfile,
    now: u64,
    drafts: OnceCell<Option<SpotPlan>>,
    fallback: OnceCell<Option<SpotPlan>>,
}

impl ReplayTick<'_> {
    fn plan(&self, policy: ProvisionerPolicy) -> Option<SpotPlan> {
        let cfg = &self.replay.cfg;
        let shards = cfg.shard_faults.shards() as u64;
        // A killed or hung advisory shard answers nothing; a slow one
        // still answers correctly (the front marks it degraded but keeps
        // routing to it).
        let gate = |combo: Combo| {
            !matches!(
                cfg.shard_faults.active((combo.key() % shards) as usize, self.now),
                Some(ShardFaultKind::Kill | ShardFaultKind::Hang)
            )
        };
        policy::plan_gated(
            policy,
            self.replay.catalog,
            self.service,
            cfg.base.region,
            self.profile,
            self.now,
            cfg.base.target_p,
            &gate,
        )
    }
}

impl MarketView for ReplayTick<'_> {
    fn now(&self) -> u64 {
        self.now
    }

    fn scan_interval(&self) -> u64 {
        self.replay.cfg.base.scan_interval
    }

    fn drafts(&self) -> Option<SpotPlan> {
        *self
            .drafts
            .get_or_init(|| self.plan(self.replay.cfg.base.policy))
    }

    fn fallback(&self) -> Option<SpotPlan> {
        *self
            .fallback
            .get_or_init(|| self.plan(ProvisionerPolicy::Original))
    }

    fn idle_spot(&self) -> bool {
        self.pool
            .borrow_mut()
            .find_idle_kind(self.replay.catalog, self.profile, self.now, EntryKind::Spot)
            .is_some()
    }

    fn spot_price(&self, combo: Combo) -> Option<Price> {
        self.sim.borrow_mut().price_at(combo, self.now)
    }

    fn od_price(&self, combo: Combo) -> Price {
        self.replay.catalog.od_price(combo.ty, combo.az.region())
    }

    fn quantiles(&self) -> PriceQuantiles {
        match self.fallback() {
            Some(f) => self
                .qcache
                .borrow_mut()
                .get(&mut self.sim.borrow_mut(), f.combo, self.now),
            None => PriceQuantiles::default(),
        }
    }
}

/// One Table 2/3 replay: `base` under the platform's own rule,
/// [`strategy::PaperPolicy`], over a healthy advisory plane.
pub fn paper_replay(base: ReplayConfig) -> ReplayMetrics {
    StrategyReplay::new(StrategyReplayConfig::clean(base))
        .run(&mut strategy::PaperPolicy)
        .metrics
}

/// A configured strategy replay, ready to run.
pub struct StrategyReplay {
    cfg: StrategyReplayConfig,
    catalog: &'static Catalog,
}

impl StrategyReplay {
    /// Creates a strategy replay.
    pub fn new(cfg: StrategyReplayConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            catalog: Catalog::standard(),
        }
    }

    /// Runs the replay to completion under `strategy`.
    pub fn run(&self, strategy: &mut dyn Strategy) -> StrategyOutcome {
        let cfg = &self.cfg;
        let base = &cfg.base;
        let trace_cfg = TraceConfig::days(base.history_days, base.seed);
        let mut sim = SpotSimulator::new(self.catalog, trace_cfg);
        sim.set_launch_faults(base.launch_faults);

        // Every strategy sees the same advisory plane: all region combos
        // registered, behind faulty feeds when a plan is configured. The
        // `Original` policy never consults it, so it stays empty there.
        let mut service = DraftsService::new(ServiceConfig {
            probabilities: vec![base.target_p],
            drafts: base.drafts,
            // Half-hourly refresh keeps single-core replays tractable
            // while staying within the spirit of the 15-minute service.
            recompute_period: 30 * MINUTE,
            ..ServiceConfig::default()
        });
        if base.policy != ProvisionerPolicy::Original {
            for az in base.region.azs() {
                for combo in self.catalog.combos_in_az(az) {
                    let history = sim.history(combo).clone();
                    match &cfg.feed_faults {
                        Some(plan) => service.register_feed(Arc::new(FaultyFeed::new(
                            Arc::new(history),
                            *plan,
                        ))),
                        None => service.register(history),
                    }
                }
            }
        }

        let factory = StreamFactory::new(base.seed);
        let jobs = workload::generate(&base.workload, &factory, base.workload_index);

        let mut out = StrategyOutcome::default();
        let mut pool = Pool::new();
        let mut qcache = QuantileCache::default();
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut attempts = vec![0u32; jobs.len()];
        let mut restarts = vec![0u32; jobs.len()];
        let mut fault_attempts = vec![0u32; jobs.len()];
        let mut not_before = vec![0u64; jobs.len()];
        let mut od_seq = 0u64;
        let mut next_job = 0usize;
        let mut last_completion = base.replay_start;

        // The availability signal the online estimators learn from is the
        // advisory plane's answer for a reference profile — the workload's
        // most common class.
        let ref_profile = jobs
            .first()
            .map(|j| {
                let mut p = j.profile;
                p.est_runtime = base.workload.runtime_median;
                p
            })
            .expect("non-empty workload");

        let convergence = base.replay_start + 7 * DAY;
        let mut t = base.replay_start;
        loop {
            let _tick_span = obs::span("strategy_tick");
            let t_rel = t - base.replay_start;

            // 1. Admissions.
            while next_job < jobs.len() && jobs[next_job].submit_offset <= t_rel {
                queue.push_back(jobs[next_job].id);
                next_job += 1;
            }

            // 2. Market revocations: requeue victims' jobs (all progress
            // lost — spot restarts are from scratch).
            let spot_ids: Vec<_> = pool
                .iter()
                .filter(|e| e.kind == EntryKind::Spot)
                .map(|e| e.id)
                .collect();
            for id in spot_ids {
                if let InstanceState::Terminated { reason, .. } = sim.poll(id, t) {
                    let entry = pool.remove(id).expect("tracked member");
                    if reason == TerminationReason::Price {
                        out.metrics.terminations += 1;
                        if let Some(job_id) = entry.running_job {
                            restarts[job_id as usize] += 1;
                            queue.push_front(job_id);
                        }
                    }
                    let c = sim.cost(id, t);
                    out.metrics.cost += c;
                    out.spot_cost += c;
                    out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                }
            }

            // 3. Completions (a completion at `busy_until` past the job's
            // deadline is a miss — attainment accounting).
            let done: Vec<_> = pool
                .iter()
                .filter(|e| !e.is_idle() && e.busy_until <= t)
                .map(|e| e.id)
                .collect();
            for id in done {
                let entry = pool.get_mut(id).expect("tracked member");
                let finished_at = entry.busy_until;
                let job_id = Pool::finish(entry).expect("busy entry has a job");
                out.metrics.jobs_completed += 1;
                let deadline_abs = base.replay_start + jobs[job_id as usize].deadline;
                if finished_at > deadline_abs {
                    out.metrics.deadline_misses += 1;
                }
                last_completion = t;
            }

            // 4. The global observation tick: estimators ingest one
            // availability sample per scan, from the reference profile.
            let ref_tick = self.tick(&service, &mut sim, &mut qcache, &mut pool, &ref_profile, t);
            strategy.observe(&ref_tick);

            // 5. Running-job consultations: the strategy may checkpoint a
            // spot job off to on-demand (keeping its progress, paying one
            // scan interval of migration overhead).
            let riding: Vec<(InstanceId, u32, u64)> = pool
                .iter()
                .filter(|e| e.kind == EntryKind::Spot && !e.is_idle() && e.busy_until > t)
                .map(|e| (e.id, e.running_job.expect("busy"), e.busy_until))
                .collect();
            for (id, job_id, busy_until) in riding {
                let _span = obs::span("strategy_decide");
                let ji = job_id as usize;
                let job = &jobs[ji];
                let elapsed = t - (busy_until - job.runtime);
                let js = JobState {
                    id: job_id,
                    deadline: base.replay_start + job.deadline,
                    est_total: job.profile.est_runtime,
                    est_remaining: job.profile.est_runtime.saturating_sub(elapsed),
                    running_on: Some(ResourceKind::Spot),
                    attempts: attempts[ji],
                    restarts: restarts[ji],
                };
                let tick = self.tick(&service, &mut sim, &mut qcache, &mut pool, &job.profile, t);
                out.decisions += 1;
                if matches!(
                    strategy.decide(&tick, &js),
                    Action::Switch | Action::OnDemand
                ) {
                    sim.terminate(id, t);
                    pool.remove(id);
                    let c = sim.cost(id, t);
                    out.metrics.cost += c;
                    out.spot_cost += c;
                    out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                    let remaining = busy_until - t;
                    let mut entry = self.od_entry(job, t, &mut od_seq);
                    entry.running_job = Some(job_id);
                    entry.busy_until = t + remaining + base.scan_interval;
                    pool.add(entry);
                    out.metrics.instances += 1;
                    out.od_instances += 1;
                    out.metrics.strategy_switches += 1;
                }
            }

            // 6. Queued-job scheduling.
            let mut still_queued = VecDeque::new();
            while let Some(job_id) = queue.pop_front() {
                let _span = obs::span("strategy_decide");
                let ji = job_id as usize;
                let job = &jobs[ji];
                if not_before[ji] > t {
                    still_queued.push_back(job_id);
                    continue;
                }
                let js = JobState {
                    id: job_id,
                    deadline: base.replay_start + job.deadline,
                    est_total: job.profile.est_runtime,
                    est_remaining: job.profile.est_runtime,
                    running_on: None,
                    attempts: attempts[ji],
                    restarts: restarts[ji],
                };
                let tick = self.tick(&service, &mut sim, &mut qcache, &mut pool, &job.profile, t);
                out.decisions += 1;
                match strategy.decide(&tick, &js) {
                    Action::Wait => still_queued.push_back(job_id),
                    Action::OnDemand | Action::Switch => {
                        if let Some(entry) =
                            pool.find_idle_kind(self.catalog, &job.profile, t, EntryKind::OnDemand)
                        {
                            Pool::assign(entry, job, t);
                        } else {
                            let mut entry = self.od_entry(job, t, &mut od_seq);
                            Pool::assign(&mut entry, job, t);
                            pool.add(entry);
                            out.metrics.instances += 1;
                            out.od_instances += 1;
                        }
                    }
                    Action::Spot { plan } => {
                        if let Some(entry) =
                            pool.find_idle_kind(self.catalog, &job.profile, t, EntryKind::Spot)
                        {
                            Pool::assign(entry, job, t);
                            continue;
                        }
                        match sim.request(plan.combo, plan.bid, t) {
                            Ok(id) => {
                                let mut entry = PoolEntry {
                                    id,
                                    combo: plan.combo,
                                    launched_at: t,
                                    running_job: None,
                                    busy_until: 0,
                                    kind: EntryKind::Spot,
                                    hourly: Price::ZERO,
                                };
                                Pool::assign(&mut entry, job, t);
                                pool.add(entry);
                                out.metrics.instances += 1;
                            }
                            Err(e) if e.is_transient() => {
                                match e {
                                    LaunchError::InsufficientCapacity => {
                                        out.metrics.capacity_failures += 1;
                                    }
                                    LaunchError::Throttled => {
                                        out.metrics.throttle_failures += 1;
                                    }
                                    _ => {}
                                }
                                let shift = fault_attempts[ji].min(16);
                                let delay =
                                    (base.scan_interval << shift).min(base.max_launch_backoff);
                                not_before[ji] = t + delay;
                                fault_attempts[ji] += 1;
                                out.metrics.requeues += 1;
                                still_queued.push_back(job_id);
                            }
                            Err(_) => {
                                attempts[ji] += 1;
                                out.metrics.requeues += 1;
                                still_queued.push_back(job_id);
                            }
                        }
                    }
                }
            }
            queue = still_queued;

            // 7. Idle releases (full drain once the workload is done).
            let drained =
                next_job == jobs.len() && queue.is_empty() && pool.iter().all(|e| e.is_idle());
            let releases = if drained {
                pool.iter().map(|e| e.id).collect()
            } else {
                pool.due_for_release(t)
            };
            for id in releases {
                let entry = pool.remove(id).expect("tracked member");
                match entry.kind {
                    EntryKind::Spot => {
                        sim.terminate(id, t);
                        let c = sim.cost(id, t);
                        out.metrics.cost += c;
                        out.spot_cost += c;
                        out.metrics.max_bid_cost += sim.worst_case_cost(id, t);
                    }
                    EntryKind::OnDemand => {
                        let hours = (t - entry.launched_at).div_ceil(HOUR).max(1);
                        let c = entry.hourly.times(hours);
                        out.metrics.cost += c;
                        out.od_cost += c;
                        // On-demand carries no bid risk: worst case is the
                        // bill itself.
                        out.metrics.max_bid_cost += c;
                    }
                }
            }

            if next_job == jobs.len() && queue.is_empty() && pool.is_empty() {
                break;
            }
            t += base.scan_interval;
            assert!(t < convergence, "strategy replay failed to converge within 7 days");
        }

        out.metrics.makespan = last_completion - base.replay_start;
        out.panic_activations = strategy.panic_activations();
        out
    }

    /// The [`MarketView`] a strategy sees for one profile at `t`.
    fn tick<'a>(
        &'a self,
        service: &'a DraftsService,
        sim: &'a mut SpotSimulator,
        qcache: &'a mut QuantileCache,
        pool: &'a mut Pool,
        profile: &'a JobProfile,
        now: u64,
    ) -> ReplayTick<'a> {
        ReplayTick {
            replay: self,
            service,
            sim: RefCell::new(sim),
            qcache: RefCell::new(qcache),
            pool: RefCell::new(pool),
            profile,
            now,
            drafts: OnceCell::new(),
            fallback: OnceCell::new(),
        }
    }

    /// Allocates a fresh on-demand pool entry for `job`'s profile.
    fn od_entry(&self, job: &Job, t: u64, od_seq: &mut u64) -> PoolEntry {
        let region = self.cfg.base.region;
        let types = suitable_types(self.catalog, &job.profile);
        let ty = *types.first().expect("workload profiles are satisfiable");
        let az = region.azs().next().expect("regions have AZs");
        let id = InstanceId(OD_ID_BASE + *od_seq);
        *od_seq += 1;
        PoolEntry {
            id,
            combo: Combo::new(az, ty),
            launched_at: t,
            running_job: None,
            busy_until: 0,
            kind: EntryKind::OnDemand,
            hourly: self.catalog.od_price(ty, region),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strategy::{lineup, DraftsBid, OnDemandOnly, SpotGreedy};

    fn small_cfg() -> StrategyReplayConfig {
        StrategyReplayConfig {
            base: ReplayConfig {
                policy: ProvisionerPolicy::DraftsProfiles,
                workload: WorkloadConfig {
                    jobs: 40,
                    span: 2400,
                    ..WorkloadConfig::default()
                },
                target_p: 0.95,
                ..ReplayConfig::default()
            },
            ..StrategyReplayConfig::default()
        }
    }

    #[test]
    fn every_strategy_completes_the_workload() {
        for mut s in lineup() {
            let out = StrategyReplay::new(small_cfg()).run(s.as_mut());
            assert_eq!(out.metrics.jobs_completed, 40, "{}", s.name());
            assert!(out.decisions > 0, "{}", s.name());
            assert!(out.metrics.cost > Price::ZERO, "{}", s.name());
        }
    }

    #[test]
    fn ondemand_only_never_misses_and_never_terminates() {
        let out = StrategyReplay::new(small_cfg()).run(&mut OnDemandOnly);
        assert_eq!(out.metrics.deadline_misses, 0);
        assert_eq!(out.metrics.terminations, 0);
        assert_eq!(out.spot_cost, Price::ZERO);
        assert_eq!(out.od_instances, out.metrics.instances);
        assert_eq!(out.od_cost, out.metrics.cost);
    }

    #[test]
    fn spot_greedy_is_cheaper_than_ondemand_on_clean_feeds() {
        let od = StrategyReplay::new(small_cfg()).run(&mut OnDemandOnly);
        let greedy = StrategyReplay::new(small_cfg()).run(&mut SpotGreedy);
        assert!(
            greedy.metrics.cost < od.metrics.cost,
            "greedy {} must undercut on-demand {}",
            greedy.metrics.cost,
            od.metrics.cost
        );
        assert_eq!(greedy.od_cost, Price::ZERO);
    }

    #[test]
    fn strategy_replay_is_deterministic() {
        let a = StrategyReplay::new(small_cfg()).run(&mut DraftsBid);
        let b = StrategyReplay::new(small_cfg()).run(&mut DraftsBid);
        assert_eq!(a, b);
    }

    #[test]
    fn launch_faults_do_not_strand_jobs() {
        let cfg = StrategyReplayConfig {
            base: ReplayConfig {
                launch_faults: LaunchFaults::with_intensity(11, 1.0),
                ..small_cfg().base
            },
            ..small_cfg()
        };
        let out = StrategyReplay::new(cfg).run(&mut SpotGreedy);
        assert_eq!(out.metrics.jobs_completed, 40);
        assert!(out.metrics.capacity_failures + out.metrics.throttle_failures > 0);
    }

    /// The platform rule's replay (Tables 2 and 3) at unit-test size.
    fn paper_cfg(policy: ProvisionerPolicy) -> ReplayConfig {
        ReplayConfig {
            policy,
            workload: WorkloadConfig {
                jobs: 60,
                span: 3000,
                ..WorkloadConfig::default()
            },
            history_days: 26,
            replay_start: 24 * DAY,
            drafts: DraftsConfig {
                duration_stride: 3,
                ..DraftsConfig::default()
            },
            target_p: 0.95,
            ..ReplayConfig::default()
        }
    }

    /// Metrics in field order: instances, cost (ticks), max-bid cost
    /// (ticks), terminations, jobs completed, makespan, requeues,
    /// capacity failures, throttle failures, deadline misses, switches.
    fn metrics(f: [u64; 11]) -> ReplayMetrics {
        ReplayMetrics {
            instances: f[0],
            cost: Price::from_ticks(f[1]),
            max_bid_cost: Price::from_ticks(f[2]),
            terminations: f[3],
            jobs_completed: f[4],
            makespan: f[5],
            requeues: f[6],
            capacity_failures: f[7],
            throttle_failures: f[8],
            deadline_misses: f[9],
            strategy_switches: f[10],
        }
    }

    // The pinned values below are what the dedicated paper-rule replay
    // engine produced before Tables 2 and 3 moved onto this replay; every
    // field matched, except that the old engine counted no deadline
    // misses (all of these replays have none).

    #[test]
    fn paper_replays_match_the_pinned_metrics() {
        let orig = paper_replay(paper_cfg(ProvisionerPolicy::Original));
        let one_hr = paper_replay(paper_cfg(ProvisionerPolicy::Drafts1Hr));
        let profiles = paper_replay(paper_cfg(ProvisionerPolicy::DraftsProfiles));
        assert_eq!(orig, metrics([28, 11480, 49913, 2, 60, 7200, 3, 0, 0, 0, 0]));
        assert_eq!(one_hr, metrics([27, 9671, 21248, 0, 60, 6420, 0, 0, 0, 0, 0]));
        assert_eq!(profiles, metrics([27, 10001, 13303, 0, 60, 6420, 0, 0, 0, 0, 0]));
        // The headline Table 2/3 shape: DrAFTS cuts the risked cost.
        assert!(one_hr.max_bid_cost < orig.max_bid_cost);
        assert!(orig.max_bid_cost >= orig.cost);
    }

    #[test]
    fn faulty_launches_still_complete_the_workload() {
        let cfg = ReplayConfig {
            launch_faults: LaunchFaults::with_intensity(11, 1.0),
            ..paper_cfg(ProvisionerPolicy::Original)
        };
        let m = paper_replay(cfg);
        assert_eq!(m, metrics([28, 11530, 49988, 2, 60, 7620, 12, 0, 9, 0, 0]));
        // Transient faults requeue (and back off) rather than strand jobs.
        assert!(m.requeues >= m.capacity_failures + m.throttle_failures);
    }

    #[test]
    fn table3_quick_replays_match_the_pinned_metrics() {
        // Experiment `i` of `repro table3 --quick`.
        let cfg = |policy, i: u64| ReplayConfig {
            seed: 20171112 + i * 7919,
            workload_index: i,
            policy,
            target_p: 0.99,
            workload: WorkloadConfig {
                jobs: 200,
                span: 2400,
                ..WorkloadConfig::default()
            },
            ..ReplayConfig::default()
        };
        use ProvisionerPolicy::{Drafts1Hr, DraftsProfiles, Original};
        for (policy, i, want) in [
            (Original, 0, [120, 40396, 192392, 0, 200, 9000, 0, 0, 0, 0, 0]),
            (Drafts1Hr, 0, [120, 41677, 89739, 0, 200, 9000, 0, 0, 0, 0, 0]),
            (DraftsProfiles, 0, [120, 41309, 87414, 0, 200, 9000, 0, 0, 0, 0, 0]),
            (Original, 1, [109, 65518, 201632, 0, 200, 11700, 0, 0, 0, 0, 0]),
            (Drafts1Hr, 1, [109, 41682, 108746, 0, 200, 11700, 0, 0, 0, 0, 0]),
            (DraftsProfiles, 1, [109, 42047, 108613, 0, 200, 11700, 0, 0, 0, 0, 0]),
        ] {
            assert_eq!(paper_replay(cfg(policy, i)), metrics(want), "{policy:?} seed {i}");
        }
    }

    #[test]
    fn pool_reuse_keeps_instances_below_jobs() {
        // Bursts of short jobs must share instances within the hour.
        let cfg = ReplayConfig {
            workload: WorkloadConfig {
                jobs: 80,
                span: 2000,
                runtime_median: 300,
                ..WorkloadConfig::default()
            },
            ..paper_cfg(ProvisionerPolicy::Original)
        };
        let m = paper_replay(cfg);
        assert_eq!(m.jobs_completed, 80);
        assert!(
            m.instances < 60,
            "hourly reuse should pack 80 short jobs onto fewer instances, used {}",
            m.instances
        );
    }

    #[test]
    fn zero_launch_faults_match_the_clean_replay() {
        let clean = paper_replay(paper_cfg(ProvisionerPolicy::Original));
        let gated = paper_replay(ReplayConfig {
            launch_faults: LaunchFaults::none(),
            max_launch_backoff: 7 * MINUTE,
            ..paper_cfg(ProvisionerPolicy::Original)
        });
        assert_eq!(clean, gated, "the zero-fault plan is the clean path");
        assert_eq!(clean.capacity_failures, 0);
        assert_eq!(clean.throttle_failures, 0);
    }

    #[test]
    #[should_panic(expected = "replay starts outside")]
    fn rejects_bad_replay_start() {
        ReplayConfig {
            replay_start: 50 * DAY,
            history_days: 10,
            ..ReplayConfig::default()
        }
        .validate();
    }

    #[test]
    fn outcome_exports_labelled_counters() {
        let registry = obs::Registry::new();
        let out = StrategyOutcome {
            decisions: 5,
            panic_activations: 2,
            ..StrategyOutcome::default()
        };
        out.export_to(&registry, "demo");
        let text = registry.render_text();
        assert!(text.contains("drafts_strategy_decisions_total{strategy=\"demo\"} 5"));
        assert!(text.contains("drafts_strategy_panics_total{strategy=\"demo\"} 2"));
    }
}
