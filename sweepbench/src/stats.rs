//! Order statistics, span arithmetic, the metric-name rules and the host
//! calibration loop. Nothing here calls repository code.

use std::hint::black_box;
use std::time::Instant;

/// The tail percentile is the highest one with at least this many samples
/// beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail latency: quantile `(n − 10) / n` of `n` samples, the highest
/// percentile that still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The Harrell–Davis estimate of the quantile.
    pub value: f64,
    /// The percentile, `100 × (n − 10) / n`.
    pub percentile: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The tail of `samples` (any order), or `None` when there are too few
/// samples for any percentile to have [`TAIL_BEYOND`] beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p = (n - TAIL_BEYOND) as f64 / n as f64;
    Some(Tail {
        value: hd_quantile(samples, p),
        percentile: 100.0 * p,
        samples: n,
    })
}

/// The Harrell–Davis estimate of quantile `p` of `samples` (any order): a
/// Beta-weighted mean of the order statistics. A sweep's point costs come
/// in groups (one per workload and MVL), and a single order statistic that
/// lands between two groups jumps from one to the other with noise; the
/// weighted mean moves smoothly instead.
///
/// # Panics
///
/// Panics when `samples` is empty, holds a NaN, or `p` is outside (0, 1).
pub fn hd_quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n);
        sum += (cdf - below) * x;
        below = cdf;
    }
    sum
}

/// The regularized incomplete beta function `I_x(a, b)`, by the continued
/// fraction of Numerical Recipes (Lentz's method).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(b, a, 1.0 - x);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        for coeff in [even, odd] {
            d = 1.0 + coeff * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + coeff / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * h
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = COEFFS[1..]
        .iter()
        .enumerate()
        .fold(COEFFS[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers. Intervals are
/// `(start, end)` in one clock's nanoseconds; children may overlap each
/// other or stick out of the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid metric unit: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Milliseconds one fixed, std-only integer loop takes on this host. It
/// shares no code with the program, so a slow set of runs shows here too.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    spin(40_000_000);
    start.elapsed().as_secs_f64() * 1e3
}

/// Keeps `threads` cores busy with the calibration loop for `seconds`. A
/// virtual CPU that was idle runs the first seconds of work measurably
/// slower; this lets the timed work start on busy cores.
pub fn warm_up(threads: usize, seconds: f64) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while start.elapsed().as_secs_f64() < seconds {
                    spin(1_000_000);
                }
            });
        }
    });
}

fn spin(iters: u64) {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, fact) in [(1u32, 1.0f64), (5, 24.0), (11, 3_628_800.0)] {
            assert!((ln_gamma(f64::from(n)) - fact.ln()).abs() < 1e-10, "{n}");
        }
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(a, 1) = x^a.
        for x in [0.1, 0.5, 0.9] {
            assert!((beta_cdf(1.0, 1.0, x) - x).abs() < 1e-12);
            assert!((beta_cdf(3.0, 1.0, x) - x.powi(3)).abs() < 1e-12);
        }
        // Symmetry, and a large skewed case like a tail of 972 samples.
        assert!((beta_cdf(400.0, 400.0, 0.5) - 0.5).abs() < 1e-9);
        let (a, b) = (962.0 * 973.0 / 972.0, 10.0 * 973.0 / 972.0);
        assert!(beta_cdf(a, b, 0.95) < 1e-6);
        assert!(beta_cdf(a, b, 0.999) > 1.0 - 1e-3);
    }

    #[test]
    fn hd_quantile_is_a_smooth_median() {
        // Symmetric samples have their centre as the median.
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((hd_quantile(&samples, 0.5) - 51.0).abs() < 1e-9);
        let constant = [7.0; 40];
        assert!((hd_quantile(&constant, 0.5) - 7.0).abs() < 1e-9);
        // Two equal groups: the estimate sits between them instead of
        // jumping to whichever group the middle order statistic lands in.
        let mut groups = vec![40.0; 486];
        groups.extend(vec![55.0; 486]);
        let m = hd_quantile(&groups, 0.5);
        assert!((m - 47.5).abs() < 1e-6, "{m}");
    }

    #[test]
    fn tail_has_ten_samples_beyond_its_percentile() {
        let samples: Vec<f64> = (1..=972).map(f64::from).collect();
        let t = tail(&samples).expect("972 samples have a tail");
        assert_eq!(t.samples, 972);
        assert!((t.percentile - 100.0 * 962.0 / 972.0).abs() < 1e-12);
        // The estimate sits between the 962nd and 963rd of 972 samples.
        assert!((t.value - 962.5).abs() < 0.5, "{}", t.value);

        // Figure 3's 84 points per pass: the 88.1th percentile.
        let fig3: Vec<f64> = (1..=84).rev().map(f64::from).collect();
        let t = tail(&fig3).expect("84 samples have a tail");
        assert!((t.percentile - 100.0 * 74.0 / 84.0).abs() < 1e-12);
        assert!((t.value - 74.5).abs() < 0.5, "{}", t.value);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[5.0; 11]).expect("11 samples have a tail");
        assert!((t.value - 5.0).abs() < 1e-9);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // A nested child adds nothing beyond its enclosing sibling.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "wall_s",
            "spec.parse_ms",
            "vpu.ns_per_sim_instr",
            "0x-1",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/no",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "MiB", "%", "ns/instr"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "kB!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
