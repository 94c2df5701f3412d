//! End-to-end and per-layer benchmark of the DrAFTS reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--pin <workload>=<hex digest>]...
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, timed with no
//! benchmark spans on the request path; with `--trace 1` it replays the
//! same seeded plan with spans around calls into each layer and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for what each workload and metric measures.

mod backtest;
mod driver;
mod serving;
mod spans;
mod stats;

use serving::Workload;

/// Per-layer metrics, in report order, with their units. Every traced run
/// reports all of them; a layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.completed", "count"),
    ("http.read_request_ns", "ns"),
    ("http.write_response_ns", "ns"),
    ("server.transport_us", "us"),
    ("server.transport_iqr_us", "us"),
    ("client.self_us", "us"),
    ("server.admitted", "count"),
    ("server.served", "count"),
    ("server.shed", "count"),
    ("server.handler_panics", "count"),
    ("router.handle_ns.graphs", "ns"),
    ("router.handle_ns.bid", "ns"),
    ("router.handle_ns.health", "ns"),
    ("router.handle_ns.metrics", "ns"),
    ("router.self_ns.graphs", "ns"),
    ("router.self_ns.bid", "ns"),
    ("router.self_ns.health", "ns"),
    ("router.self_ns.metrics", "ns"),
    ("wire.render_ns.graphs", "ns"),
    ("wire.render_ns.bid", "ns"),
    ("wire.render_ns.health", "ns"),
    ("service.fetch_hit_ns", "ns"),
    ("service.cheapest_bid_ns", "ns"),
    ("service.health_rollup_ns", "ns"),
    ("service.read_locks", "count"),
    ("service.snapshot_swaps", "count"),
    ("service.computes", "count"),
    ("service.snapshot_hit_ratio", "ratio"),
    ("service.bucket_build_ms", "ms"),
    ("predictor.new_us", "us"),
    ("predictor.min_bid_us", "us"),
    ("predictor.durability_us", "us"),
    ("graph.compute_ms", "ms"),
    ("tracegen.generate_ms", "ms"),
    ("sweep.new_ms", "ms"),
    ("sweep.advance_us", "us"),
    ("sweep.quote_us", "us"),
    ("engine.combo_ms", "ms"),
    ("pool.efficiency", "ratio"),
    ("pool.self_ms", "ms"),
    ("fleet.proxy_overhead_us", "us"),
    ("fleet.proxy_overhead_iqr_us", "us"),
    ("ring.owners_ns", "ns"),
    ("fleet.served", "count"),
    ("fleet.failed_over", "count"),
    ("fleet.refused", "count"),
    ("fleet.proxy_errors", "count"),
    ("obs.trace_overhead_ns", "ns"),
    ("obs.trace_overhead_iqr_ns", "ns"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_p99_us", "us"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pins: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            pins: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
                "--trace" => args.trace = value == "1",
                "--pin" => {
                    let (name, digest) = value.split_once('=').ok_or_else(bad)?;
                    args.pins.push((name.to_string(), digest.to_string()));
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// The pinned reference digest for `workload`, if one was given.
    pub fn pin(&self, workload: &str) -> Option<&str> {
        self.pins
            .iter()
            .find(|(w, _)| w == workload)
            .map(|(_, d)| d.as_str())
    }
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Puts `metrics` in [`PER_LAYER`] order, adding the layers the workload
/// did not load as 0.
pub fn zero_fill(metrics: &mut Vec<(&'static str, f64, &'static str)>) {
    for (name, _, _) in metrics.iter() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted metric {name}"
        );
    }
    *metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name, value, unit)
        })
        .collect();
}

/// Writes a traced run's spans under `perfbench/out/`.
pub fn write_spans(workload: &str, seed: u64, spans: &[spans::Span]) {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-seed{seed}.csv"));
    if let Err(e) = spans::write_csv(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("serve_steady", false) => serving::run(&args, Workload::Steady),
        ("serve_rollover", false) => serving::run(&args, Workload::Rollover),
        ("fleet_steady", false) => serving::run(&args, Workload::Fleet),
        ("backtest_table1", false) => backtest::run(&args),
        ("serve_steady", true) => serving::run_traced(&args, Workload::Steady),
        ("serve_rollover", true) => serving::run_traced(&args, Workload::Rollover),
        ("fleet_steady", true) => serving::run_traced(&args, Workload::Fleet),
        ("backtest_table1", true) => backtest::run_traced(&args),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
