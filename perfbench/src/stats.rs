//! Exact order statistics over raw samples, and the FNV digest the
//! correctness checks compare.

/// The `q` quantile of `samples` by nearest rank (exact: one of the
/// samples, never a bucket midpoint). `f64::INFINITY` sorts last, so a
/// failed request counted as +∞ lands in the tail.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`quantile`] in place over integer samples, without copying them.
pub fn quantile_in_place(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    quantile(samples, 0.75) - quantile(samples, 0.25)
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a 64-bit continuing from `h` (chains digests in order).
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(iqr(&xs), 50.0);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&with_failure, 0.99), f64::INFINITY);
    }

    #[test]
    fn in_place_quantiles_match_the_copying_ones() {
        let mut xs: Vec<u32> = (1..=100).rev().collect();
        let fs: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        for q in [0.25, 0.5, 0.99, 1.0] {
            assert_eq!(f64::from(quantile_in_place(&mut xs, q)), quantile(&fs, q));
        }
    }
}
