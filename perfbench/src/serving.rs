//! The serving workloads: `serve_steady`, `serve_rollover` and
//! `fleet_steady`.
//!
//! Each run boots the deployment (one warmed instance, or three warmed
//! shards behind the consistent-hash front), then drives seeded load
//! through it in two phases:
//!
//! * **closed loop** — two keep-alive connections back to back, every
//!   request in the warmed bucket, so reads hit published snapshots;
//!   gives the round-trip quantiles and the capacity.
//! * **rolling** — open loop at a fixed rate, timed from each request's
//!   due time, while the request clock (`?now=`) crosses one 15-min
//!   refresh bucket every roll period, so single-flight rebuilds (and,
//!   past eight buckets, evictions) run beside the reads; gives the stall
//!   a refresh costs. On `serve_rollover` it fills half the run; on the
//!   steady workloads it is a 3 s probe after the steady counters are
//!   read.
//!
//! Every response body is compared with the body the in-process handler
//! gives for the same target, and a pinned digest over a reference plan
//! guards the program's output itself.

use crate::driver::{self, Expected, Generator, Op, Outcome, SpanLink, Trace, GEN_THREADS};
use crate::spans::{self, Recorder};
use crate::stats::{fnv1a, fnv1a_from, iqr, median, quantile, quantile_in_place};
use crate::{Args, Report};
use drafts_core::service::ServiceConfig;
use drafts_core::{BidDurationGraph, DraftsConfig, DraftsPredictor, DraftsService};
use experiments::fleet::FLEET_SEED;
use experiments::serve::SERVE_SEED;
use experiments::Scale;
use loadgen::{Client, Kind, WorkloadConfig};
use obs::{Registry, TraceContext, TRACE_HEADER};
use server::http::{self, Request, Response};
use server::{Fleet, FleetConfig, Handler, Metrics, Route, Router, Server};
use simrng::StreamFactory;
use spotmarket::archetype::Archetype;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, PriceHistory, DAY};
use std::collections::HashMap;
use std::io::BufReader;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual serving time of the warmed bucket (bucket-aligned).
const NOW: u64 = 20 * DAY;
/// The service's refresh period.
const BUCKET: u64 = 900;
/// Probability level every query asks for.
const P: f64 = 0.95;
/// Route mix `[graphs, bid, health, metrics]`.
const MIX: [f64; 4] = [0.35, 0.5, 0.1, 0.05];
/// Requests, and their rate, of the reference plan the pinned digest
/// covers.
const PIN_REQUESTS: usize = 400;
const PIN_RATE: f64 = 2000.0;
/// Seed of the reference plan.
const PIN_SEED: u64 = 1;
/// Boots timed for `setup_s` at the start, and again after each phase;
/// the median is reported.
const SETUPS: usize = 3;
const SETUPS_LATER: usize = 2;
/// Requests of the plan the closed loop cycles through.
const CLOSED_PLAN: usize = 20_000;
/// Unmeasured start of the closed loop.
const CLOSED_WARMUP: Duration = Duration::from_millis(500);
/// Slice of the closed loop's measured time.
const SLICE: Duration = Duration::from_secs(1);
/// Length of the roll probe on the steady workloads. At most six buckets
/// on the single instance, so they stay within the eight it retains.
const PROBE_SECS: f64 = 3.0;
/// Lead time before the rolling phase's first request.
const ROLL_GAP_SECS: f64 = 0.05;
/// Requests replayed in-process for the traced run's layer breakdown.
const DECOMPOSE_REQUESTS: usize = 3000;
/// Interleaved A/B pairs for the difference metrics.
const AB_PAIRS: usize = 3000;
const AB_PAIRS_FLEET: usize = 1200;
/// Trace-ring capacity of the traced `Metrics` variant.
const TRACE_RING: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Rollover,
    Fleet,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Steady => "serve_steady",
            Workload::Rollover => "serve_rollover",
            Workload::Fleet => "fleet_steady",
        }
    }

    /// The open-loop rate: about a quarter of the closed-loop throughput
    /// on one CPU of a 2-core x86-64 host, so a rebuild's backlog clears
    /// well within a roll period.
    fn fixed_rps(self) -> f64 {
        match self {
            Workload::Steady | Workload::Rollover => 6250.0,
            Workload::Fleet => 750.0,
        }
    }

    /// Wall seconds per refresh bucket while the clock rolls: long enough
    /// for each rebuild's stall and the catch-up after it to finish before
    /// the next bucket (a fleet roll rebuilds every replica).
    fn roll_period_s(self) -> f64 {
        match self {
            Workload::Steady => 0.5,
            Workload::Rollover => 1.0,
            Workload::Fleet => 1.25,
        }
    }
}

/// How a phase sets each request's virtual `now`.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// No override: the router's warmed default.
    Fixed,
    /// `now = first + ⌊due_s · virt_per_s⌋`.
    Rolling { first: u64, virt_per_s: f64 },
}

/// One phase's requests with what the checks need beside them.
struct Phase {
    ops: Arc<Vec<Op>>,
    kinds: Vec<Kind>,
    buckets: Vec<u64>,
}

fn combos() -> Vec<Combo> {
    experiments::serve::plan(Scale::Paper).combos
}

impl Phase {
    /// Moves the phase to start `start_ns` after the run epoch. Phases are
    /// built before their start is fixed, so building never makes the
    /// generator late.
    fn starting_at(mut self, start_ns: u64) -> Phase {
        let ops = Arc::get_mut(&mut self.ops).expect("phase not yet driven");
        for op in ops {
            op.due_ns += start_ns;
        }
        self
    }

}

fn build_phase(seed: u64, tag: u64, rate: f64, secs: f64, clock: Clock) -> Phase {
    let cfg = WorkloadConfig {
        requests: ((rate * secs).round() as usize).max(1),
        rate_per_sec: rate,
        clients: GEN_THREADS,
        combos: combos(),
        p: P,
        mix: MIX,
        virtual_now: None,
    };
    let plan = loadgen::build_plan(&cfg, &StreamFactory::new(seed ^ tag), Catalog::standard());
    let mut phase = Phase {
        ops: Arc::new(Vec::with_capacity(plan.len())),
        kinds: Vec::with_capacity(plan.len()),
        buckets: Vec::with_capacity(plan.len()),
    };
    for planned in plan {
        let at = planned.at.as_secs_f64();
        let now = match clock {
            Clock::Fixed => None,
            Clock::Rolling { first, virt_per_s } => Some(first + (at * virt_per_s) as u64),
        };
        let mut path = planned.path;
        if let Some(now) = now {
            let sep = if path.contains('?') { '&' } else { '?' };
            path.push_str(&format!("{sep}now={now}"));
        }
        phase.buckets.push(now.unwrap_or(NOW) / BUCKET);
        phase.kinds.push(planned.kind);
        Arc::get_mut(&mut phase.ops)
            .expect("phase under construction")
            .push(Op {
                due_ns: planned.at.as_nanos() as u64,
                path,
                trace: planned.trace,
            });
    }
    phase
}

fn parse(raw: &str) -> Request {
    http::read_request(&mut BufReader::new(raw.as_bytes())).expect("benchmark request parses")
}

/// The in-process answer `(status, body)` to a planned request.
type Reference<'a> = Box<dyn Fn(&Op) -> (u16, Vec<u8>) + 'a>;

/// A booted deployment.
enum Deploy {
    Single {
        service: Arc<DraftsService>,
        server: Server,
        registry: Registry,
    },
    Fleet {
        services: Vec<Arc<DraftsService>>,
        fleet: Fleet,
    },
}

fn build_single() -> Arc<DraftsService> {
    let service = Arc::new(experiments::serve::build_service(&combos(), Scale::Paper));
    service.warm(NOW);
    service
}

fn server_config() -> server::ServerConfig {
    experiments::serve::plan(Scale::Paper).server
}

fn boot(workload: Workload) -> Deploy {
    match workload {
        Workload::Steady | Workload::Rollover => {
            let service = build_single();
            let registry = Registry::new();
            service.register_metrics(&registry);
            let server = Server::start(Router::new(service.clone(), NOW), server_config())
                .expect("bind loopback");
            Deploy::Single {
                service,
                server,
                registry,
            }
        }
        Workload::Fleet => {
            let cfg = FleetConfig::new(3);
            let mut plan = experiments::fleet::plan(Scale::Paper);
            plan.shards = cfg.shards;
            let services =
                experiments::fleet::build_shard_services(&plan, &cfg.ring(), Scale::Paper);
            for service in &services {
                service.warm(NOW);
            }
            let fleet = Fleet::start(services.clone(), NOW, cfg).expect("boot fleet");
            Deploy::Fleet { services, fleet }
        }
    }
}

impl Deploy {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Deploy::Single { server, .. } => server.addr(),
            Deploy::Fleet { fleet, .. } => fleet.addr(),
        }
    }

    fn services(&self) -> Vec<Arc<DraftsService>> {
        match self {
            Deploy::Single { service, .. } => vec![service.clone()],
            Deploy::Fleet { services, .. } => services.clone(),
        }
    }

    /// The in-process answers: the same handler the server runs, called
    /// directly on the parsed request bytes.
    fn reference(&self) -> Reference<'_> {
        match self {
            Deploy::Single { service, .. } => single_reference(service.clone()),
            Deploy::Fleet { fleet, .. } => {
                let metrics = Metrics::new();
                Box::new(move |op| {
                    let resp = Handler::handle(fleet.front(), &parse(&op.raw_request()), &metrics);
                    (resp.status, resp.body)
                })
            }
        }
    }

    /// Drains the deployment; admitted connections that were not served
    /// count as failures.
    fn shutdown(self) -> (server::DrainReport, u64) {
        let (report, lost) = match self {
            Deploy::Single { server, .. } => {
                let r = server.shutdown();
                (r, r.admitted - r.served)
            }
            Deploy::Fleet { fleet, .. } => {
                let r = fleet.shutdown();
                let lost = r
                    .shards
                    .iter()
                    .flatten()
                    .chain(std::iter::once(&r.front))
                    .map(|d| d.admitted - d.served)
                    .sum();
                (r.front, lost)
            }
        };
        (report, lost)
    }
}

/// In-process single-instance answers over `service`.
fn single_reference<'a>(service: Arc<DraftsService>) -> Reference<'a> {
    let router = Router::new(service, NOW);
    let metrics = Metrics::new();
    Box::new(move |op| {
        let resp = router.handle(&parse(&op.raw_request()), &metrics);
        (resp.status, resp.body)
    })
}

/// Service counters summed over the deployment's services.
#[derive(Debug, Clone, Copy, Default)]
struct SvcCounts {
    read_locks: u64,
    swaps: u64,
    computes: u64,
}

fn svc_counts(services: &[Arc<DraftsService>]) -> SvcCounts {
    services
        .iter()
        .fold(SvcCounts::default(), |acc, s| SvcCounts {
            read_locks: acc.read_locks + s.read_lock_count(),
            swaps: acc.swaps + s.snapshot_swap_count(),
            computes: acc.computes + s.compute_count(),
        })
}

/// Checks each phase's answers once the phase is over, so the run keeps
/// no per-request record beyond the phase in flight.
#[derive(Default)]
struct Verifier {
    /// Expected `(status, body digest)` per target digest.
    expected: HashMap<u64, (u16, u64)>,
    attempted: u64,
    failed: u64,
}

impl Verifier {
    /// Counts the phase's sent requests and its failures: transport
    /// errors, non-200s, and bodies that differ from the in-process
    /// reference (the metrics exposition is a live view of counters, so
    /// only its status is checked).
    fn check(
        &mut self,
        phase: &Phase,
        outcomes: &[Outcome],
        reference: &dyn Fn(&Op) -> (u16, Vec<u8>),
    ) {
        for ((op, kind), out) in phase.ops.iter().zip(&phase.kinds).zip(outcomes) {
            self.attempted += 1;
            let ok = out.status == 200
                && (*kind == Kind::Metrics || {
                    let want = *self
                        .expected
                        .entry(fnv1a(op.path.as_bytes()))
                        .or_insert_with(|| {
                            let (status, body) = reference(op);
                            (status, fnv1a(&body))
                        });
                    want == (200, out.digest)
                });
            self.failed += u64::from(!ok);
        }
    }
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(Outcome::latency_us).collect()
}

/// Worst due-time latency (ms) after each bucket boundary the requests
/// cross, over the `window_ns` after it.
fn roll_stalls(phase: &Phase, outcomes: &[Outcome], window_ns: u64) -> Vec<f64> {
    let mut stalls = Vec::new();
    for i in 1..outcomes.len() {
        if phase.buckets[i] == phase.buckets[i - 1] {
            continue;
        }
        let start = outcomes[i].due_ns;
        let worst = outcomes[i..]
            .iter()
            .take_while(|o| o.due_ns < start + window_ns)
            .map(|o| o.latency_us() / 1e3)
            .fold(0.0, f64::max);
        stalls.push(worst);
    }
    stalls
}

fn secs_ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Ordered digest of the in-process answers to the reference plan.
fn pinned_digest(workload: Workload, reference: &dyn Fn(&Op) -> (u16, Vec<u8>)) -> u64 {
    let secs = PIN_REQUESTS as f64 / PIN_RATE;
    let clock = match workload {
        // Four buckets across the reference plan, so the pin covers
        // rebuilt graphs too.
        Workload::Rollover => Clock::Rolling {
            first: NOW,
            virt_per_s: 4.0 * BUCKET as f64 / secs,
        },
        _ => Clock::Fixed,
    };
    let phase = build_phase(PIN_SEED, 0x9179, PIN_RATE, secs, clock);
    let mut h = fnv1a(b"");
    for (op, kind) in phase.ops.iter().zip(&phase.kinds) {
        if *kind != Kind::Metrics {
            let (status, body) = reference(op);
            h = fnv1a_from(h, &status.to_be_bytes());
            h = fnv1a_from(h, &body);
        }
    }
    h
}

/// Checks the reference-plan digest against its pin. Without a pin the
/// digest is printed so it can be pinned.
fn pin_holds(args: &Args, workload: Workload, reference: &dyn Fn(&Op) -> (u16, Vec<u8>)) -> bool {
    let digest = format!("{:016x}", pinned_digest(workload, reference));
    match args.pin(workload.name()) {
        Some(pin) => {
            if pin != digest {
                eprintln!("{}: pinned digest {pin}, got {digest}", workload.name());
            }
            pin == digest
        }
        None => {
            eprintln!("{}: unpinned digest {digest}", workload.name());
            true
        }
    }
}

/// Boots the deployment `times` times, timing each boot; keeps the last.
fn timed_boots(workload: Workload, times: usize, secs: &mut Vec<f64>) -> Option<Deploy> {
    let mut kept = None;
    for _ in 0..times {
        let t = Instant::now();
        let deploy = boot(workload);
        secs.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(deploy) {
            old.shutdown();
        }
    }
    kept
}

/// The expected answer to every distinct target of `phase`.
fn expected_answers(phase: &Phase, reference: &dyn Fn(&Op) -> (u16, Vec<u8>)) -> Expected {
    let mut expected = Expected::new();
    for (op, kind) in phase.ops.iter().zip(&phase.kinds) {
        expected.entry(fnv1a(op.path.as_bytes())).or_insert_with(|| {
            if *kind == Kind::Metrics {
                // A live view of counters: only its status is checked.
                (200, None)
            } else {
                let (status, body) = reference(op);
                (status, Some(fnv1a(&body)))
            }
        });
    }
    expected
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, workload: Workload) -> Report {
    // Set-up time: boots at the start, between the phases and at the end,
    // so the median does not hang on the host's state in one second.
    let mut setups = Vec::new();
    let deploy = timed_boots(workload, SETUPS, &mut setups).expect("booted");
    let services = deploy.services();
    let before = svc_counts(&services);
    let s = args.seconds;
    let period = workload.roll_period_s();
    let (closed_secs, roll_secs) = match workload {
        // Whole buckets: past eight boundaries the ninth evicts the first.
        Workload::Rollover => (0.45 * s, (0.5 * s / period).floor().max(1.0) * period),
        _ => (0.8 * s, PROBE_SECS),
    };

    // Closed loop in the warmed bucket.
    let plan = build_phase(
        args.seed,
        0xC105,
        CLOSED_PLAN as f64,
        1.0,
        Clock::Fixed,
    );
    let expected = expected_answers(&plan, &deploy.reference());
    let closed = driver::closed_loop(
        deploy.addr(),
        &plan.ops,
        &plan.kinds,
        &expected,
        CLOSED_WARMUP,
        SLICE,
        (closed_secs / SLICE.as_secs_f64()).round().max(4.0) as usize,
    );
    let samples: u64 = closed.slices.iter().map(|s| s.requests).sum();
    // Medians over the whole phase: the host's speed comes and goes in
    // phases of seconds to a minute, and a median holds as long as they
    // cover less than half the phase. Throughput is the median slice's.
    let slice_rate = |count: &dyn Fn(&driver::Slice) -> usize| {
        let rates: Vec<f64> = closed
            .slices
            .iter()
            .map(|s| count(s) as f64 / closed.slice_s)
            .collect();
        median(&rates)
    };
    let capacity_rps = slice_rate(&|s| s.requests as usize);
    let bid_rps = slice_rate(&|s| s.bid_rtt_ns.iter().filter(|&&ns| ns != u32::MAX).count());
    // Latency is the bid quote's: half the mix, and one route, so its
    // quantiles lie inside one route's distribution instead of on the
    // edge between the fast bids and the slower graphs, where the mixed
    // median sits.
    let mut bid_ns: Vec<u32> = closed
        .slices
        .iter()
        .flat_map(|s| s.bid_rtt_ns.iter().copied())
        .collect();
    drop(closed.slices);
    let bid_samples = bid_ns.len();
    let mut bid_us = |q: f64| match quantile_in_place(&mut bid_ns, q) {
        u32::MAX => f64::INFINITY,
        ns => f64::from(ns) / 1e3,
    };
    let latency_p50_us = bid_us(0.5);
    let latency_p99_us = bid_us(0.99);
    let steady = svc_counts(&services);
    let fleet_faults = match &deploy {
        Deploy::Fleet { fleet, .. } => {
            let c = fleet.front().counters();
            c.failed_over.iter().map(|x| x.get()).sum::<u64>()
                + c.refused.get()
                + c.proxy_errors.get()
        }
        Deploy::Single { .. } => 0,
    };

    if let Some(spare) = timed_boots(workload, SETUPS_LATER, &mut setups) {
        spare.shutdown();
    }

    // Rolling phase: open loop, the clock crossing a bucket every roll
    // period; the first request already lands in a fresh bucket.
    let generator = Generator::new(deploy.addr());
    let epoch = Instant::now();
    let start = secs_ns(ROLL_GAP_SECS);
    let roll = build_phase(
        args.seed,
        0x9011,
        workload.fixed_rps(),
        roll_secs,
        Clock::Rolling {
            first: NOW + BUCKET,
            virt_per_s: BUCKET as f64 / period,
        },
    )
    .starting_at(start);
    let out = generator.drive(&roll.ops, epoch, None);
    drop(generator);
    let window = secs_ns(0.8 * period);
    let first = out
        .iter()
        .take_while(|o| o.due_ns < start + window)
        .map(|o| o.latency_us() / 1e3);
    let mut stalls = vec![first.fold(0.0, f64::max)];
    stalls.extend(roll_stalls(&roll, &out, window));
    let roll_stall_ms = median(&stalls);
    eprintln!("  roll stalls (ms): {stalls:.0?}");
    let rolled = svc_counts(&services);

    let mut verifier = Verifier::default();
    // On rollover the reference is a fresh instance that recomputes each
    // bucket serially, which also checks the concurrent single-flight
    // rebuilds against a serial computation.
    if workload == Workload::Rollover {
        verifier.check(&roll, &out, &single_reference(build_single()));
    } else {
        verifier.check(&roll, &out, &deploy.reference());
    }
    drop((roll, out));
    let pinned = if workload == Workload::Rollover {
        pin_holds(args, workload, &single_reference(build_single()))
    } else {
        pin_holds(args, workload, &deploy.reference())
    };

    // Invariants: the closed loop reads published snapshots only, and the
    // rolling phase rebuilds.
    let delta = SvcCounts {
        read_locks: steady.read_locks - before.read_locks,
        swaps: steady.swaps - before.swaps,
        computes: steady.computes - before.computes,
    };
    let mut violations = u64::from(delta.read_locks != 0)
        + u64::from(delta.swaps != 0)
        + u64::from(delta.computes != 0)
        + u64::from(rolled.computes == steady.computes);
    // No failover, refusal or proxy error on the fault-free fleet.
    violations += fleet_faults;
    let (_, lost) = deploy.shutdown();
    if let Some(spare) = timed_boots(workload, SETUPS_LATER, &mut setups) {
        spare.shutdown();
    }
    violations += u64::from(lost != 0);
    if violations > 0 {
        eprintln!(
            "{}: {violations} invariant violations ({delta:?}, lost {lost})",
            workload.name()
        );
    }
    let attempted = verifier.attempted + samples;
    let failed = verifier.failed + closed.failed + u64::from(!pinned) + violations;
    println!(
        "{}: bid round trips over {bid_samples} samples ({samples} requests in all; \
         p50 {latency_p50_us:.1} us, p99 {latency_p99_us:.1} us), roll stall over {} boundaries",
        workload.name(),
        stalls.len()
    );

    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("latency_p50_us", latency_p50_us, "us"),
            ("latency_p99_us", latency_p99_us, "us"),
            ("capacity_rps", capacity_rps, "1/s"),
            ("roll_stall_ms", roll_stall_ms, "ms"),
            ("backtest_requests_per_s", bid_rps, "1/s"),
            (
                "ok_ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", crate::stats::peak_rss_mb(), "MB"),
        ],
    }
}

// ---------------------------------------------------------------------------
// Traced run.

/// Wraps the router the server runs with a span per request, linked to
/// the client span of the same plan index.
struct TracedRouter {
    inner: Router,
    rec: Arc<Recorder>,
    link: Arc<SpanLink>,
}

fn route_name(prefix: &'static str, kind: Kind) -> &'static str {
    match (prefix, kind) {
        ("router.handle", Kind::Graphs) => "router.handle.graphs",
        ("router.handle", Kind::Bid) => "router.handle.bid",
        ("router.handle", Kind::Health) => "router.handle.health",
        ("router.handle", Kind::Metrics) => "router.handle.metrics",
        ("inproc", Kind::Graphs) => "inproc.router.graphs",
        ("inproc", Kind::Bid) => "inproc.router.bid",
        ("inproc", Kind::Health) => "inproc.router.health",
        ("inproc", Kind::Metrics) => "inproc.router.metrics",
        ("wire", Kind::Graphs) => "wire.render.graphs",
        ("wire", Kind::Bid) => "wire.render.bid",
        ("wire", Kind::Health) => "wire.render.health",
        ("wire", Kind::Metrics) => "obs.render_text",
        _ => unreachable!("unknown span family {prefix}"),
    }
}

fn kind_of(path: &str) -> Kind {
    match Router::route_of(path) {
        Route::Graphs => Kind::Graphs,
        Route::Bid => Kind::Bid,
        Route::Health => Kind::Health,
        Route::Metrics | Route::Other => Kind::Metrics,
    }
}

impl Handler for TracedRouter {
    fn handle(&self, req: &Request, metrics: &Metrics) -> Response {
        let start = self.rec.now_ns();
        let resp = self.inner.handle(req, metrics);
        let end = self.rec.now_ns();
        let index = req
            .header(TRACE_HEADER)
            .and_then(TraceContext::parse)
            .and_then(|ctx| self.link.by_trace.get(&ctx.trace_id).copied());
        if let Some(i) = index {
            let parent = self.link.client_span[i].load(Ordering::Relaxed);
            self.rec.record(
                parent,
                i as u64,
                route_name("router.handle", kind_of(&req.path)),
                start,
                end,
            );
        }
        resp
    }

    fn default_now(&self) -> u64 {
        self.inner.default_now()
    }

    fn on_boot(&self, metrics: &Metrics) {
        Handler::on_boot(&self.inner, metrics);
    }
}

/// Per-layer output of the traced run.
struct Layers {
    metrics: Vec<(&'static str, f64, &'static str)>,
    errors: u64,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Median of `xs`, or 0 when the layer recorded nothing.
    fn put_median(&mut self, name: &'static str, xs: &[f64], scale: f64, unit: &'static str) {
        let v = if xs.is_empty() {
            0.0
        } else {
            median(xs) / scale
        };
        self.put(name, v, unit);
    }
}

fn histories(workload: Workload) -> Vec<PriceHistory> {
    let catalog = Catalog::standard();
    let seed = if workload == Workload::Fleet {
        FLEET_SEED
    } else {
        SERVE_SEED
    };
    combos()
        .iter()
        .enumerate()
        .map(|(i, &combo)| {
            let archetype = [Archetype::Choppy, Archetype::Calm, Archetype::Spiky][i % 3];
            generate_with_archetype(
                combo,
                catalog,
                &TraceConfig::days(30, seed ^ (i as u64 + 1)),
                archetype,
            )
        })
        .collect()
}

fn drafts_config() -> DraftsConfig {
    DraftsConfig {
        changepoint: None,
        autocorr: false,
        duration_stride: 2,
        ..DraftsConfig::default()
    }
}

/// The predictor/graph layer, called directly for every combo at each
/// bucket: the work one bucket rebuild does per combo.
fn compute_layer(rec: &Recorder, hist: &[PriceHistory], buckets: &[u64], errors: &mut u64) {
    let cfg = drafts_config();
    let levels = ServiceConfig::default().probabilities;
    for &bucket in buckets {
        for (i, h) in hist.iter().enumerate() {
            let key = bucket * 16 + i as u64;
            let Some(upto) = h.series().index_at(bucket * BUCKET) else {
                *errors += 1;
                continue;
            };
            let root = rec.reserve();
            let t0 = rec.now_ns();
            let predictor = rec.time(root, key, "predictor.new", || DraftsPredictor::new(h, cfg));
            for &p in &levels {
                let graph = rec.time(root, key, "graph.compute", || {
                    BidDurationGraph::compute(&predictor, upto, p)
                });
                // A level the data cannot support returns `None` early; the
                // service publishes only the levels that compute, and the
                // served level must.
                if p == P && graph.is_none() {
                    *errors += 1;
                }
            }
            rec.record_as(root, 0, key, "combo.compute", t0, rec.now_ns());
            let bid = rec.time(0, key, "predictor.min_bid", || predictor.min_bid(upto, P));
            match bid {
                Some(bid) => {
                    let d = rec.time(0, key, "predictor.durability", || {
                        predictor.durability(upto, bid, P)
                    });
                    *errors += u64::from(d.is_none());
                }
                None => *errors += 1,
            }
        }
    }
}

/// In-process breakdown of one single-instance request: the HTTP parse,
/// the router, the response write, and — called separately — the service
/// query and the wire encoding the router is made of.
fn decompose(
    rec: &Recorder,
    service: &Arc<DraftsService>,
    registry: &Registry,
    i: u64,
    op: &Op,
    kind: Kind,
    errors: &mut u64,
) {
    let catalog = Catalog::standard();
    let raw = op.raw_request();
    let req = rec.time(0, i, "http.read_request", || parse(&raw));
    let router = Router::new(service.clone(), NOW);
    let metrics = Metrics::new();
    let resp = rec.time(0, i, route_name("inproc", kind), || {
        router.handle(&req, &metrics)
    });
    let mut wire_bytes = Vec::with_capacity(resp.body.len() + 256);
    rec.time(0, i, "http.write_response", || {
        http::write_response(&mut wire_bytes, &resp, true)
    })
    .expect("write to memory");
    let now = req
        .query_param("now")
        .and_then(|v| v.parse().ok())
        .unwrap_or(NOW);
    let hits = registry.counter("drafts_cache_hits_total");
    let locks = registry.counter("drafts_read_locks_total");
    let (hits0, locks0) = (hits.get(), locks.get());
    let body = match kind {
        Kind::Graphs => {
            let mut seg = req.path["/v1/graphs/".len()..].split('/').skip(1);
            let az = seg.next().and_then(Az::parse).expect("plan az");
            let ty = seg
                .next()
                .and_then(|t| catalog.type_id(t))
                .expect("plan type");
            let combo = Combo::new(az, ty);
            let fetched = rec.time(0, i, "service.fetch", || service.fetch(combo, now));
            // A steady fetch must be a snapshot hit: one hit, no lock.
            if hits.get() != hits0 + 1 || locks.get() != locks0 {
                *errors += 1;
            }
            let Some(response) = fetched else {
                *errors += 1;
                return;
            };
            let graphs: Vec<&BidDurationGraph> =
                response.graphs.at_probability(P).into_iter().collect();
            rec.time(0, i, route_name("wire", kind), || {
                server::wire::graphs_json(catalog, combo, &response, &graphs).render()
            })
        }
        Kind::Bid => {
            let duration: u64 = req
                .query_param("duration")
                .and_then(|v| v.parse().ok())
                .expect("plan duration");
            let quote = rec.time(0, i, "service.cheapest_bid", || {
                service.cheapest_bid(P, duration, now)
            });
            match quote {
                Some(quote) => rec.time(0, i, route_name("wire", kind), || {
                    server::wire::bid_quote_json(catalog, &quote).render()
                }),
                // The router answers 404 without encoding a quote.
                None => String::from_utf8_lossy(&resp.body).into_owned(),
            }
        }
        Kind::Health => {
            let rollup = rec.time(0, i, "service.health_rollup", || service.health_rollup(now));
            rec.time(0, i, route_name("wire", kind), || {
                server::wire::health_json(catalog, router.instance(), &rollup).render()
            })
        }
        Kind::Metrics => {
            rec.time(0, i, route_name("wire", kind), || metrics.render_text());
            return;
        }
    };
    // The parts must rebuild exactly what the router answered.
    if body.as_bytes() != resp.body.as_slice() {
        *errors += 1;
    }
}

/// Median paired difference `b - a` over alternating runs of `a` and `b`
/// (the order flips every pair), with its IQR.
fn ab<A: FnMut(usize), B: FnMut(usize)>(pairs: usize, mut a: A, mut b: B) -> (f64, f64) {
    let mut deltas = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let time = |f: &mut dyn FnMut(usize)| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        };
        let (ta, tb) = if i % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        deltas.push(tb - ta);
    }
    (median(&deltas), iqr(&deltas))
}

fn replay_e2e(deploy: &Deploy, phase: &Phase, trace: Option<Trace>) -> (Vec<Outcome>, f64, f64) {
    let out = Generator::new(deploy.addr()).drive(&phase.ops, Instant::now(), trace);
    let lat = latencies(&out);
    (out, median(&lat), quantile(&lat, 0.99))
}

/// The fleet front's layers: routing counts over a replay through the
/// front, the ring lookup, and the proxy hop as an interleaved A/B of the
/// same graphs target through the front and straight to its owner.
fn fleet_layers(layers: &mut Layers, fleet: &Fleet, phase: &Phase, counts: [f64; 4]) {
    let ring = fleet.front().ring().clone();
    let catalog = Catalog::standard();
    let keys: Vec<u64> = combos().iter().map(|c| c.key()).collect();
    let t = Instant::now();
    let mut sink = 0usize;
    for i in 0..100_000 {
        sink += ring.owners(keys[i % keys.len()]).len();
    }
    std::hint::black_box(sink);
    layers.put(
        "ring.owners_ns",
        t.elapsed().as_nanos() as f64 / 100_000.0,
        "ns",
    );
    let targets: Vec<(String, usize)> = phase
        .ops
        .iter()
        .zip(&phase.kinds)
        .filter(|(_, k)| **k == Kind::Graphs)
        .map(|(op, _)| {
            let mut seg = op.path["/v1/graphs/".len()..].split(['/', '?']).skip(1);
            let az = seg.next().and_then(Az::parse).expect("plan az");
            let ty = seg
                .next()
                .and_then(|t| catalog.type_id(t))
                .expect("plan type");
            (op.path.clone(), ring.primary(Combo::new(az, ty).key()))
        })
        .collect();
    let mut front = Client::new(fleet.addr(), Duration::from_secs(10));
    let mut direct: Vec<Client> = (0..ring.shards())
        .map(|s| Client::new(fleet.shard_addr(s), Duration::from_secs(10)))
        .collect();
    let bad = std::cell::Cell::new(0u64);
    let (d, q) = ab(
        AB_PAIRS_FLEET,
        |i| {
            let (path, shard) = &targets[i % targets.len()];
            bad.set(bad.get() + u64::from(!matches!(direct[*shard].get(path), Ok((200, _)))));
        },
        |i| {
            let (path, _) = &targets[i % targets.len()];
            bad.set(bad.get() + u64::from(!matches!(front.get(path), Ok((200, _)))));
        },
    );
    layers.errors += bad.get();
    layers.put("fleet.proxy_overhead_us", d / 1e3, "us");
    layers.put("fleet.proxy_overhead_iqr_us", q / 1e3, "us");
    for (name, v) in [
        "fleet.served",
        "fleet.failed_over",
        "fleet.refused",
        "fleet.proxy_errors",
    ]
    .iter()
    .zip(counts)
    {
        layers.put(name, v, "count");
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &Args, workload: Workload) -> Report {
    let rec = Arc::new(Recorder::new(Instant::now()));
    let mut layers = Layers {
        metrics: Vec::new(),
        errors: 0,
    };
    let rate = workload.fixed_rps();
    let secs = args.seconds * 0.3;
    let clock = match workload {
        // At most six buckets, all within the eight the instance retains:
        // the in-process breakdown below replays the same requests, and an
        // evicted bucket is recomputed on every request for it.
        Workload::Rollover => Clock::Rolling {
            first: NOW,
            virt_per_s: BUCKET as f64 / workload.roll_period_s().max(secs / 6.0),
        },
        _ => Clock::Fixed,
    };

    // Untraced and traced replays of the same plan on twin deployments.
    let plain = boot(workload);
    let phase = build_phase(args.seed, 0xF1, rate, secs, clock).starting_at(secs_ns(0.05));
    let (_, p50_plain, p99_plain) = replay_e2e(&plain, &phase, None);

    let link = Arc::new(SpanLink::new(&phase.ops));
    let traced = match workload {
        Workload::Fleet => plain,
        _ => {
            plain.shutdown();
            let service = build_single();
            let registry = Registry::new();
            service.register_metrics(&registry);
            let handler = TracedRouter {
                inner: Router::new(service.clone(), NOW),
                rec: rec.clone(),
                link: link.clone(),
            };
            let server = Server::start(handler, server_config()).expect("bind loopback");
            Deploy::Single {
                service,
                server,
                registry,
            }
        }
    };
    let services = traced.services();
    let cache = |deploy: &Deploy| match deploy {
        Deploy::Single { registry, .. } => [
            registry.counter("drafts_cache_hits_total").get(),
            registry.counter("drafts_cache_misses_total").get(),
        ],
        Deploy::Fleet { .. } => [0, 0],
    };
    let (cache_before, before) = (cache(&traced), svc_counts(&services));
    let (out, p50_traced, p99_traced) =
        replay_e2e(&traced, &phase, Some((rec.clone(), link.clone())));
    let (cache_after, after) = (cache(&traced), svc_counts(&services));
    let fleet_counts = match &traced {
        Deploy::Fleet { fleet, .. } => {
            let c = fleet.front().counters();
            let sum = |v: &Vec<obs::Counter>| v.iter().map(|x| x.get()).sum::<u64>() as f64;
            [
                sum(&c.served),
                sum(&c.failed_over),
                c.refused.get() as f64,
                c.proxy_errors.get() as f64,
            ]
        }
        Deploy::Single { .. } => [0.0; 4],
    };
    let mut verifier = Verifier::default();
    verifier.check(&phase, &out, &traced.reference());
    layers.errors += verifier.failed;

    let sent: Vec<&Outcome> = out.iter().collect();
    layers.put(
        "gen.late_p99_us",
        quantile(&sent.iter().map(|o| o.late_us()).collect::<Vec<_>>(), 0.99),
        "us",
    );
    layers.put("gen.sent", sent.len() as f64, "count");
    layers.put(
        "gen.completed",
        sent.iter().filter(|o| o.status != 0).count() as f64,
        "count",
    );
    layers.put("trace.overhead_p50_us", p50_traced - p50_plain, "us");
    layers.put("trace.overhead_p99_us", p99_traced - p99_plain, "us");

    // In-process layer breakdown of the same requests.
    let n = phase.ops.len().min(DECOMPOSE_REQUESTS);
    match &traced {
        Deploy::Single {
            service, registry, ..
        } => {
            for i in 0..n {
                decompose(
                    &rec,
                    service,
                    registry,
                    i as u64,
                    &phase.ops[i],
                    phase.kinds[i],
                    &mut layers.errors,
                );
            }
        }
        Deploy::Fleet { fleet, .. } => {
            let metrics = Metrics::new();
            for (i, op) in phase.ops.iter().take(n).enumerate() {
                let raw = op.raw_request();
                let req = rec.time(0, i as u64, "http.read_request", || parse(&raw));
                let resp = rec.time(0, i as u64, "front.handle", || {
                    Handler::handle(fleet.front(), &req, &metrics)
                });
                let mut bytes = Vec::new();
                rec.time(0, i as u64, "http.write_response", || {
                    http::write_response(&mut bytes, &resp, true)
                })
                .expect("write to memory");
            }
        }
    }

    // Difference metrics, each as an interleaved A/B.
    let reqs: Vec<Request> = phase
        .ops
        .iter()
        .take(n)
        .map(|op| parse(&op.raw_request()))
        .collect();
    let router = match &traced {
        Deploy::Single { service, .. } => Router::new(service.clone(), NOW),
        Deploy::Fleet { services, .. } => Router::new(services[0].clone(), NOW),
    };
    let (m_plain, m_traced) = (Metrics::new(), Metrics::with_tracing(0, 0, TRACE_RING, 0));
    // Fleet shards hold only their ring share; the A/B uses the routes
    // every shard answers (bid, health, metrics) there.
    let ab_reqs: Vec<&Request> = reqs
        .iter()
        .filter(|r| workload != Workload::Fleet || !r.path.starts_with("/v1/graphs/"))
        .collect();
    let (trace_ns, trace_iqr) = ab(
        AB_PAIRS,
        |i| {
            let _g = m_plain.tracer().install();
            std::hint::black_box(router.handle(ab_reqs[i % ab_reqs.len()], &m_plain));
        },
        |i| {
            let _g = m_traced.tracer().install();
            std::hint::black_box(router.handle(ab_reqs[i % ab_reqs.len()], &m_traced));
        },
    );
    layers.put("obs.trace_overhead_ns", trace_ns, "ns");
    layers.put("obs.trace_overhead_iqr_ns", trace_iqr, "ns");

    let spans_now = rec.take();
    let by_key = |name: &str| -> HashMap<u64, u64> {
        spans_now
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.key, s.dur_ns()))
            .collect()
    };
    let (parse_ns, write_ns) = (by_key("http.read_request"), by_key("http.write_response"));
    // Transport: the client round trip minus what the server spent
    // parsing, handling and writing the same request.
    let mut handle_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans_now {
        if s.name.starts_with("router.handle.") || s.name == "front.handle" {
            handle_ns.insert(s.key, s.dur_ns());
        }
    }
    let transport: Vec<f64> = spans_now
        .iter()
        .filter(|s| s.name == "client.request")
        .filter_map(|s| {
            let inner = handle_ns.get(&s.key)? + parse_ns.get(&s.key)? + write_ns.get(&s.key)?;
            Some((s.dur_ns() as f64 - inner as f64) / 1e3)
        })
        .collect();
    layers.put_median("server.transport_us", &transport, 1.0, "us");
    layers.put(
        "server.transport_iqr_us",
        if transport.is_empty() {
            0.0
        } else {
            iqr(&transport)
        },
        "us",
    );
    layers.put_median(
        "http.read_request_ns",
        &spans::durations(&spans_now, "http.read_request"),
        1.0,
        "ns",
    );
    layers.put_median(
        "http.write_response_ns",
        &spans::durations(&spans_now, "http.write_response"),
        1.0,
        "ns",
    );
    layers.put_median(
        "client.self_us",
        &spans::self_times(&spans_now, "client.request"),
        1e3,
        "us",
    );

    for (kind, handle, own) in [
        (
            Kind::Graphs,
            "router.handle_ns.graphs",
            "router.self_ns.graphs",
        ),
        (Kind::Bid, "router.handle_ns.bid", "router.self_ns.bid"),
        (
            Kind::Health,
            "router.handle_ns.health",
            "router.self_ns.health",
        ),
        (
            Kind::Metrics,
            "router.handle_ns.metrics",
            "router.self_ns.metrics",
        ),
    ] {
        layers.put_median(
            handle,
            &spans::durations(&spans_now, route_name("router.handle", kind)),
            1.0,
            "ns",
        );
        // Router self time: the in-process handle minus the service query
        // and wire encoding of the same request.
        let inproc = by_key(route_name("inproc", kind));
        let wire = by_key(route_name("wire", kind));
        let svc: HashMap<u64, u64> = spans_now
            .iter()
            .filter(|s| s.name.starts_with("service."))
            .map(|s| (s.key, s.dur_ns()))
            .collect();
        let own_ns: Vec<f64> = inproc
            .iter()
            .filter_map(|(k, h)| {
                Some(*h as f64 - (*wire.get(k)? + svc.get(k).copied().unwrap_or(0)) as f64)
            })
            .collect();
        layers.put_median(own, &own_ns, 1.0, "ns");
    }
    for (kind, name) in [
        (Kind::Graphs, "wire.render_ns.graphs"),
        (Kind::Bid, "wire.render_ns.bid"),
        (Kind::Health, "wire.render_ns.health"),
    ] {
        layers.put_median(
            name,
            &spans::durations(&spans_now, route_name("wire", kind)),
            1.0,
            "ns",
        );
    }
    layers.put_median(
        "service.fetch_hit_ns",
        &spans::durations(&spans_now, "service.fetch"),
        1.0,
        "ns",
    );
    layers.put_median(
        "service.cheapest_bid_ns",
        &spans::durations(&spans_now, "service.cheapest_bid"),
        1.0,
        "ns",
    );
    layers.put_median(
        "service.health_rollup_ns",
        &spans::durations(&spans_now, "service.health_rollup"),
        1.0,
        "ns",
    );
    layers.put(
        "service.read_locks",
        (after.read_locks - before.read_locks) as f64,
        "count",
    );
    layers.put(
        "service.snapshot_swaps",
        (after.swaps - before.swaps) as f64,
        "count",
    );
    layers.put(
        "service.computes",
        (after.computes - before.computes) as f64,
        "count",
    );
    let (hits, misses) = (
        cache_after[0] - cache_before[0],
        cache_after[1] - cache_before[1],
    );
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    layers.put("service.snapshot_hit_ratio", hit_ratio, "ratio");

    // Bucket rebuilds and the compute layers beneath them.
    let mut buckets: Vec<u64> = phase.buckets.clone();
    buckets.dedup();
    let hist = histories(workload);
    let threads = parallel::Pool::from_env().threads() as f64;
    if workload == Workload::Rollover {
        let twin = Arc::new(experiments::serve::build_service(&combos(), Scale::Paper));
        for &b in &buckets {
            let before = twin.compute_count();
            rec.time(0, b, "service.bucket_build", || twin.warm(b * BUCKET));
            if twin.compute_count() - before != combos().len() as u64 {
                layers.errors += 1;
            }
        }
    }
    let computed = if workload == Workload::Rollover {
        &buckets[..]
    } else {
        &buckets[..1]
    };
    compute_layer(&rec, &hist, computed, &mut layers.errors);
    let compute_spans = rec.take();
    let builds = spans::durations(&compute_spans, "service.bucket_build");
    layers.put_median("service.bucket_build_ms", &builds, 1e6, "ms");
    layers.put_median(
        "predictor.new_us",
        &spans::durations(&compute_spans, "predictor.new"),
        1e3,
        "us",
    );
    layers.put_median(
        "predictor.min_bid_us",
        &spans::durations(&compute_spans, "predictor.min_bid"),
        1e3,
        "us",
    );
    layers.put_median(
        "predictor.durability_us",
        &spans::durations(&compute_spans, "predictor.durability"),
        1e3,
        "us",
    );
    layers.put_median(
        "graph.compute_ms",
        &spans::durations(&compute_spans, "graph.compute"),
        1e6,
        "ms",
    );
    // Parallel efficiency of a rebuild: the serial per-combo work over
    // the thread-time the parallel build took.
    let efficiency = if builds.is_empty() {
        0.0
    } else {
        let serial: f64 = spans::durations(&compute_spans, "combo.compute")
            .iter()
            .sum();
        serial / (threads * builds.iter().sum::<f64>())
    };
    layers.put("pool.efficiency", efficiency, "ratio");

    match &traced {
        Deploy::Fleet { fleet, .. } => fleet_layers(&mut layers, fleet, &phase, fleet_counts),
        // The fleet front is not one of the benchmark's workloads (its
        // figures spread too far on a 2-core host to bound), so the
        // single-instance traced runs measure its layers on a short
        // replay through a fleet of their own.
        Deploy::Single { .. } => {
            let deploy = boot(Workload::Fleet);
            let phase = build_phase(
                args.seed,
                0xF1EE7,
                Workload::Fleet.fixed_rps(),
                3.0,
                Clock::Fixed,
            )
            .starting_at(secs_ns(0.05));
            let (out, _, _) = replay_e2e(&deploy, &phase, None);
            let mut verifier = Verifier::default();
            verifier.check(&phase, &out, &deploy.reference());
            layers.errors += verifier.failed;
            if let Deploy::Fleet { fleet, .. } = &deploy {
                let c = fleet.front().counters();
                let sum = |v: &Vec<obs::Counter>| v.iter().map(|x| x.get()).sum::<u64>() as f64;
                let counts = [
                    sum(&c.served),
                    sum(&c.failed_over),
                    c.refused.get() as f64,
                    c.proxy_errors.get() as f64,
                ];
                fleet_layers(&mut layers, fleet, &phase, counts);
            }
            layers.errors += deploy.shutdown().1;
        }
    }

    let (drain, lost) = traced.shutdown();
    layers.errors += lost;
    layers.put("server.admitted", drain.admitted as f64, "count");
    layers.put("server.served", drain.served as f64, "count");
    layers.put("server.shed", drain.shed as f64, "count");
    layers.put(
        "server.handler_panics",
        drain.handler_panics as f64,
        "count",
    );

    let mut all = spans_now;
    all.extend(compute_spans);
    crate::write_spans(workload.name(), args.seed, &all);
    crate::zero_fill(&mut layers.metrics);
    Report {
        correct: layers.errors == 0,
        attempted: sent.len() as u64,
        failed: layers.errors,
        metrics: layers.metrics,
    }
}
