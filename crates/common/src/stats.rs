//! Seeded reservoir sampling and the numeric view of a value.
//!
//! The disk writer keeps a [`Reservoir`] over every row it writes (or
//! over their positions, when it has the whole table at hand) and
//! stores the sample in the table footer; the skyline planner takes the
//! disk dominance gate's points from that sample. The reservoir is driven
//! by a SplitMix64 generator seeded from `SessionConfig::sample_seed`, so
//! writing the same rows twice yields the same sample.

use crate::row::Row;
use crate::value::Value;

/// Minimal deterministic generator (SplitMix64) for reservoir sampling.
/// Local so `sparkline-common` keeps its no-dependency guarantee.
#[derive(Debug, Clone)]
pub struct SampleRng(u64);

impl SampleRng {
    /// Generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SampleRng(seed)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Incremental Algorithm-R reservoir: push items one at a time (the disk
/// writer pushes every row it writes, or every row position) and take a
/// uniform `cap`-item sample at the end, deterministic per seed: the
/// draws depend only on the seed and the number of items pushed.
#[derive(Debug, Clone)]
pub struct Reservoir<T = Row> {
    cap: usize,
    rng: SampleRng,
    seen: usize,
    rows: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Empty reservoir of `cap` rows driven by `seed`.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            rng: SampleRng::new(seed),
            seen: 0,
            rows: Vec::with_capacity(cap.min(64)),
        }
    }

    /// Offer one item to the sample.
    pub fn push(&mut self, row: T) {
        if self.cap == 0 {
            self.seen += 1;
            return;
        }
        if self.seen < self.cap {
            self.rows.push(row);
        } else {
            let j = self.rng.index(self.seen + 1);
            if j < self.cap {
                self.rows[j] = row;
            }
        }
        self.seen += 1;
    }

    /// Items offered so far (the population size of the sample).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The sampled items.
    pub fn into_rows(self) -> Vec<T> {
        self.rows
    }
}

/// Numeric view of a value; `None` for NULL / NaN / non-numeric values
/// (the values block min/max bounds and dominance corners cannot cover).
pub fn numeric_value(v: &Value) -> Option<f64> {
    match v {
        Value::Int64(i) => Some(*i as f64),
        Value::Float64(f) if !f.is_nan() => Some(*f),
        Value::Boolean(b) => Some(f64::from(*b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Float64(i as f64), Value::Float64(i as f64)]))
            .collect()
    }

    fn sample(rows: &[Row], cap: usize, seed: u64) -> Vec<Row> {
        let mut reservoir = Reservoir::new(cap, seed);
        for row in rows {
            reservoir.push(row.clone());
        }
        reservoir.into_rows()
    }

    #[test]
    fn reservoir_is_deterministic_and_sized() {
        let rows = rows(100);
        let a = sample(&rows, 16, 7);
        let b = sample(&rows, 16, 7);
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 16);
        let c = sample(&rows, 16, 8);
        assert_ne!(a, c, "different seed, different sample");
        assert_eq!(sample(&rows, 200, 7).len(), 100, "cap > input");
        assert!(sample(&rows, 0, 7).is_empty());
    }

    #[test]
    fn incremental_reservoir_matches_slice_sampling() {
        // Algorithm R written out over the whole slice: keep the first
        // `cap` rows, then replace slot `j` for row `i` when a uniform
        // draw from `0..=i` lands in the reservoir.
        let rows = rows(300);
        let mut rng = SampleRng::new(7);
        let mut expected: Vec<Row> = rows[..16].to_vec();
        for (i, row) in rows.iter().enumerate().skip(16) {
            let j = rng.index(i + 1);
            if j < 16 {
                expected[j] = row.clone();
            }
        }
        let mut r = Reservoir::new(16, 7);
        for row in &rows {
            r.push(row.clone());
        }
        assert_eq!(r.seen(), 300);
        assert_eq!(r.into_rows(), expected);
        let mut zero = Reservoir::new(0, 7);
        zero.push(rows[0].clone());
        assert_eq!(zero.seen(), 1);
        assert!(zero.into_rows().is_empty());
    }
}
