//! Seeded equivalence between the DrAFTS step-2 kernel and its oracle.
//!
//! The kernel derives each duration series in one right-to-left pass and
//! reads the QBETS lower bound as a batch order statistic. The oracle is
//! the definition both replace: a segment-tree search per start point
//! (`PriceHistory::first_at_or_after_geq`) and a streaming `Qbets` fed the
//! series. The two must agree exactly — series, durabilities and whole
//! graphs — over archetypes, prefixes, strides, censoring modes and
//! configurations (autocorrelation caps included), and on the edge cases.

use drafts_core::duration::{duration_series, Censoring};
use drafts_core::{BidDurationGraph, DraftsConfig, DraftsPredictor};
use simrng::{Rng, SeedableFrom, Xoshiro256pp};
use spotmarket::archetype::Archetype;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, Price, PriceHistory};
use tsforecast::changepoint::ChangePointConfig;
use tsforecast::{BoundEstimator, Qbets, QbetsConfig};

const CASES: usize = 320;
const STRIDES: [usize; 5] = [1, 2, 3, 5, 7];
const LEVELS: [f64; 3] = [0.9, 0.95, 0.99];

/// The duration series by one segment-tree search per start point.
fn oracle_series(
    h: &PriceHistory,
    upto: usize,
    bid: Price,
    stride: usize,
    censoring: Censoring,
) -> Vec<u64> {
    let times = h.series().times();
    let horizon = times[upto];
    let mut out = Vec::new();
    for i in (0..=upto).step_by(stride) {
        let crossing = match h.first_at_or_after_geq(i + 1, bid) {
            Some(j) if j <= upto => Some(times[j] - times[i]),
            _ => None,
        };
        let window = horizon - times[i];
        match (censoring, crossing) {
            (Censoring::IncludeElapsed, Some(d)) | (Censoring::ResolvedOnly, Some(d)) => {
                out.push(d)
            }
            (Censoring::IncludeElapsed, None) => out.push(window),
            (Censoring::ResolvedOnly, None) => {}
            (Censoring::Capped(cap), Some(d)) => out.push(d.min(cap)),
            (Censoring::Capped(cap), None) if window >= cap => out.push(cap),
            (Censoring::Capped(_), None) => {}
        }
    }
    out
}

/// The durability by a streaming `Qbets` fed the oracle series (step 2
/// never truncates at change points).
fn oracle_durability(
    h: &PriceHistory,
    cfg: &DraftsConfig,
    upto: usize,
    bid: Price,
    p: f64,
) -> Option<u64> {
    let mut qbets = Qbets::new(QbetsConfig {
        confidence: cfg.confidence,
        changepoint: None,
        autocorr_correction: cfg.autocorr,
        autocorr_cap: cfg.autocorr_cap,
    });
    for d in oracle_series(h, upto, bid, cfg.duration_stride, cfg.censoring) {
        qbets.observe(d);
    }
    qbets.lower_bound(1.0 - p.sqrt())
}

/// The graph built point by point from the oracle durabilities.
fn oracle_graph(h: &PriceHistory, cfg: &DraftsConfig, upto: usize, p: f64) -> Vec<(Price, u64)> {
    let predictor = DraftsPredictor::new(h, *cfg);
    let min = predictor.min_bid_or_max(upto, p);
    let mut best = 0;
    predictor
        .bid_grid(min)
        .into_iter()
        .filter_map(|bid| oracle_durability(h, cfg, upto, bid, p).map(|d| (bid, d)))
        .map(|(bid, d)| {
            best = d.max(best);
            (bid, best)
        })
        .collect()
}

fn histories() -> Vec<PriceHistory> {
    let catalog = Catalog::standard();
    let combo = Combo::new(
        Az::parse("us-east-1b").unwrap(),
        catalog.type_id("c3.xlarge").unwrap(),
    );
    let mut out = Vec::new();
    for (i, &arch) in Archetype::ALL.iter().enumerate() {
        for (j, days) in [1u64, 8, 30].into_iter().enumerate() {
            let seed = 100 + 10 * i as u64 + j as u64;
            out.push(generate_with_archetype(
                combo,
                catalog,
                &TraceConfig::days(days, seed),
                arch,
            ));
        }
    }
    out
}

fn pick<T: Copy>(rng: &mut Xoshiro256pp, xs: &[T]) -> T {
    xs[rng.next_below(xs.len() as u64) as usize]
}

#[test]
fn kernel_matches_the_segment_tree_and_streaming_qbets_oracle() {
    let hist = histories();
    let mut rng = Xoshiro256pp::seed_from_u64(0x6b65_726e_656c);
    let (mut none, mut some, mut above_max, mut at_zero, mut graphs) = (0, 0, 0, 0, 0);
    for case in 0..CASES {
        let h = &hist[rng.next_below(hist.len() as u64) as usize];
        let upto = match case % 8 {
            0 => 0,
            1 | 2 => rng.next_below(h.len() as u64) as usize,
            // Mostly long prefixes, where bounds exist.
            _ => h.len() - 1 - rng.next_below(h.len() as u64 / 2) as usize,
        };
        let max = h.series().values()[..=upto].iter().copied().max().unwrap();
        let bid = match case % 5 {
            // Above every price seen: no crossing anywhere.
            0 => Price::from_ticks(max + 1 + rng.next_below(1000)),
            // Exactly an observed price: a crossing at equality.
            1 => h.price(rng.next_below(upto as u64 + 1) as usize),
            _ => Price::from_ticks(1 + rng.next_below(max + max / 4 + 1)),
        };
        let censoring = match rng.next_below(4) {
            0 => Censoring::IncludeElapsed,
            1 => Censoring::ResolvedOnly,
            2 => Censoring::Capped(pick(&mut rng, &[3_600, 21_600, 86_400])),
            _ => Censoring::Capped(1 + rng.next_below(200_000)),
        };
        let cfg = DraftsConfig {
            changepoint: (rng.next_below(2) == 0).then(ChangePointConfig::default),
            autocorr: rng.next_below(2) == 0,
            autocorr_cap: pick(&mut rng, &[0.3, 0.9, 0.999]),
            duration_stride: pick(&mut rng, &STRIDES),
            censoring,
            ..DraftsConfig::default()
        };
        let p = pick(&mut rng, &LEVELS);
        let what = format!("case {case}: upto {upto} bid {bid} p {p} cfg {cfg:?}");

        let kernel = duration_series(h, upto, bid, cfg.duration_stride, cfg.censoring);
        let oracle = oracle_series(h, upto, bid, cfg.duration_stride, cfg.censoring);
        assert_eq!(kernel, oracle, "series differ, {what}");

        let predictor = DraftsPredictor::new(h, cfg);
        let got = predictor.durability(upto, bid, p);
        assert_eq!(got, oracle_durability(h, &cfg, upto, bid, p), "{what}");
        if got.is_some() {
            some += 1
        } else {
            none += 1
        }
        above_max += usize::from(bid.ticks() > max);
        at_zero += usize::from(upto == 0);

        if case % 20 == 0 {
            // Whole graphs at two levels from one price pass.
            let other = pick(&mut rng, &LEVELS);
            let built = BidDurationGraph::compute_levels(&predictor, upto, &[p, other]);
            for (level, graph) in [p, other].into_iter().zip(built) {
                let points: Vec<(Price, u64)> = graph
                    .map(|g| {
                        g.points()
                            .iter()
                            .map(|pt| (pt.bid, pt.durability_secs))
                            .collect()
                    })
                    .unwrap_or_default();
                assert_eq!(
                    points,
                    oracle_graph(h, &cfg, upto, level),
                    "graph at {level}, {what}"
                );
                graphs += 1;
            }
        }
    }
    // The edge cases were all exercised, and so was the common case.
    assert!(
        none >= 20 && some >= 100,
        "{none} bound-less, {some} bounded"
    );
    assert!(
        above_max >= CASES / 5 && at_zero >= CASES / 8,
        "{above_max} {at_zero}"
    );
    assert!(graphs >= 2 * CASES / 20);
}
