//! Small distribution helpers over `rand` (no external distribution
//! crates are used), plus the three classic skyline benchmark
//! distributions of Börzsönyi et al. (correlated / independent /
//! anti-correlated) used by the partitioning experiments and the
//! partitioning property tests.

use rand::rngs::StdRng;
use rand::Rng;
use sparkline_common::{Row, Value};

/// Standard normal sample via Box–Muller.
pub fn normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Log-normal sample clamped to `[min, max]` — heavy-tailed prices.
pub fn log_normal_clamped(rng: &mut StdRng, mu: f64, sigma: f64, min: f64, max: f64) -> f64 {
    normal(rng, mu, sigma).exp().clamp(min, max)
}

/// Geometric-ish count: number of failures before success, capped.
pub fn geometric(rng: &mut StdRng, p: f64, cap: i64) -> i64 {
    let mut n = 0;
    while n < cap && rng.gen_range(0.0..1.0) > p {
        n += 1;
    }
    n
}

/// Bernoulli event.
pub fn chance(rng: &mut StdRng, p: f64) -> bool {
    rng.gen_range(0.0..1.0) < p
}

/// Round to `decimals` decimal places (price-like values).
pub fn round_to(v: f64, decimals: u32) -> f64 {
    let f = 10f64.powi(decimals as i32);
    (v * f).round() / f
}

/// Independent dimensions: every value uniform in `[0, 1)` (Börzsönyi's
/// "independent" workload — moderate skyline sizes).
pub fn independent_rows(rng: &mut StdRng, n: usize, dims: usize) -> Vec<Row> {
    assert!(dims >= 1);
    (0..n)
        .map(|_| {
            Row::new(
                (0..dims)
                    .map(|_| Value::Float64(rng.gen_range(0.0..1.0)))
                    .collect(),
            )
        })
        .collect()
}

/// Correlated dimensions: values cluster around a shared per-row base, so
/// a few rows dominate almost everything (tiny skylines — the
/// best case for dominated-region pruning).
pub fn correlated_rows(rng: &mut StdRng, n: usize, dims: usize) -> Vec<Row> {
    assert!(dims >= 1);
    (0..n)
        .map(|_| {
            let base = normal(rng, 0.5, 0.2).clamp(0.0, 1.0);
            Row::new(
                (0..dims)
                    .map(|_| Value::Float64((base + normal(rng, 0.0, 0.05)).clamp(0.0, 1.0)))
                    .collect(),
            )
        })
        .collect()
}

/// Anti-correlated dimensions: each row sits near a hyperplane
/// `sum(v) ≈ dims · plane` — rows good in one dimension are bad in others
/// (large skylines, the paper's hardest workload). The plane jitter is
/// kept *small* (Börzsönyi's construction): a wide per-row plane spread
/// would let low-plane rows dominate broadly and collapse the skyline to
/// a handful of points, destroying exactly the property this workload
/// exists to stress. The residual jitter still leaves some genuinely
/// dominated interior points for the local phase to discard.
pub fn anti_correlated_rows(rng: &mut StdRng, n: usize, dims: usize) -> Vec<Row> {
    assert!(dims >= 1);
    (0..n)
        .map(|_| {
            let plane = normal(rng, 0.5, 0.02).clamp(0.05, 0.95);
            let offsets: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..0.5)).collect();
            let mean = offsets.iter().sum::<f64>() / dims as f64;
            Row::new(
                offsets
                    .into_iter()
                    .map(|o| Value::Float64((plane + o - mean).clamp(0.0, 1.0)))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn normal_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..4000).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn log_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = log_normal_clamped(&mut rng, 4.0, 0.8, 10.0, 500.0);
            assert!((10.0..=500.0).contains(&v));
        }
    }

    #[test]
    fn geometric_capped() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            assert!(geometric(&mut rng, 0.1, 50) <= 50);
        }
    }

    #[test]
    fn rounding() {
        assert_eq!(round_to(1.23456, 2), 1.23);
    }

    fn as_f64(v: &Value) -> f64 {
        match v {
            Value::Float64(f) => *f,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn benchmark_distributions_have_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for rows in [
            independent_rows(&mut rng, 500, 3),
            correlated_rows(&mut rng, 500, 3),
            anti_correlated_rows(&mut rng, 500, 3),
        ] {
            assert_eq!(rows.len(), 500);
            for r in &rows {
                assert_eq!(r.width(), 3);
                for v in r.values() {
                    assert!((0.0..=1.0).contains(&as_f64(v)));
                }
            }
        }
        // Correlated rows have small in-row spread; anti-correlated large.
        let spread = |rows: &[Row]| {
            rows.iter()
                .map(|r| {
                    let vals: Vec<f64> = r.values().iter().map(as_f64).collect();
                    let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
                    max - min
                })
                .sum::<f64>()
                / rows.len() as f64
        };
        let corr = correlated_rows(&mut rng, 400, 2);
        let anti = anti_correlated_rows(&mut rng, 400, 2);
        assert!(
            spread(&corr) < spread(&anti),
            "{} vs {}",
            spread(&corr),
            spread(&anti)
        );
    }
}
