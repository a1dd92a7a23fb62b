//! Deterministic, seeded fault injection.
//!
//! The injector reproduces the transient failures a real cluster throws
//! at an executor runtime (lost task, flaky shuffle fetch) in a way unit
//! tests can pin down exactly: whether a step faults is a pure function
//! of `(fault_seed, site, partition, seq)`, so the same configuration
//! faults the same steps on every run.
//!
//! Two properties make the retry story testable:
//!
//! * **Determinism** — the firing decision hashes the step key with a
//!   splitmix64-style mixer and compares against `fault_rate`; no global
//!   RNG state, no ordering sensitivity across threads.
//! * **Fire-once** — each faulting step key fires exactly once per query
//!   (tracked in a shared set), so a retry that recomputes the partition
//!   re-executes the same keys *without* re-faulting. Every retry makes
//!   strict progress, and with retries enabled a fault-injected run must
//!   converge to the byte-identical fault-free result.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use sparkline_common::{Error, Result};

/// Where a fault can be injected, mirroring the failure surfaces of a
/// distributed deployment: source reads, shuffle exchanges, merge tasks,
/// and the skyline operators' consuming sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A base-table scan batch.
    Scan,
    /// An exchange (repartitioning) input drain.
    Exchange,
    /// A task of the global pairwise merge.
    Merge,
    /// A skyline sink consuming its input batches.
    SkylineSink,
}

impl FaultSite {
    /// Stable label, used in [`Error::Injected`] and the chaos reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Scan => "scan",
            FaultSite::Exchange => "exchange",
            FaultSite::Merge => "merge",
            FaultSite::SkylineSink => "skyline-sink",
        }
    }

    fn code(self) -> u64 {
        match self {
            FaultSite::Scan => 1,
            FaultSite::Exchange => 2,
            FaultSite::Merge => 3,
            FaultSite::SkylineSink => 4,
        }
    }
}

/// Per-query deterministic fault injector; shared (via `Arc`) by every
/// operator of one execution so retries observe the fire-once set.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// Firing threshold: `rate` mapped onto the full `u64` range.
    threshold: u64,
    fired: Mutex<HashSet<u64>>,
}

impl FaultInjector {
    /// Injector firing each step with probability `rate` in `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let threshold = if rate <= 0.0 {
            0
        } else if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        FaultInjector {
            seed,
            threshold,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// An injector that never fires (rate 0).
    pub fn disabled() -> Arc<Self> {
        Arc::new(FaultInjector::new(0, 0.0))
    }

    /// Whether this injector can fire at all.
    pub fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// Fault decision for one step. Returns `Err(Error::Injected)` iff the
    /// seeded hash of `(site, partition, seq)` clears the rate threshold
    /// *and* this key has not fired before in this query.
    pub fn check(&self, site: FaultSite, partition: usize, seq: u64) -> Result<()> {
        if self.threshold == 0 {
            return Ok(());
        }
        let key = mix(self.seed
            ^ site.code().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (partition as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        if mix(key) >= self.threshold {
            return Ok(());
        }
        if self.fired.lock().insert(key) {
            Err(Error::Injected {
                site: site.label(),
                partition,
                seq,
            })
        } else {
            // Already fired once: the retry passes this step.
            Ok(())
        }
    }
}

/// splitmix64 finalizer: a cheap, well-distributed bijective mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.enabled());
        for seq in 0..1000 {
            assert!(inj.check(FaultSite::Scan, 0, seq).is_ok());
        }
    }

    #[test]
    fn decisions_are_deterministic_across_injectors() {
        let a = FaultInjector::new(42, 0.1);
        let b = FaultInjector::new(42, 0.1);
        for partition in 0..4 {
            for seq in 0..200 {
                assert_eq!(
                    a.check(FaultSite::Merge, partition, seq).is_err(),
                    b.check(FaultSite::Merge, partition, seq).is_err(),
                    "p{partition} seq {seq}"
                );
            }
        }
    }

    #[test]
    fn rate_one_fires_every_fresh_key_once() {
        let inj = FaultInjector::new(7, 1.0);
        for seq in 0..50 {
            assert!(inj.check(FaultSite::Exchange, 1, seq).is_err());
            // The retry of the same step passes.
            assert!(inj.check(FaultSite::Exchange, 1, seq).is_ok());
        }
    }

    #[test]
    fn rate_is_roughly_respected() {
        let inj = FaultInjector::new(99, 0.05);
        let fired = (0..10_000)
            .filter(|&seq| inj.check(FaultSite::Scan, 0, seq).is_err())
            .count();
        assert!((200..=800).contains(&fired), "5% of 10k ≈ 500, got {fired}");
    }

    #[test]
    fn different_seeds_fault_different_steps() {
        let a = FaultInjector::new(1, 0.2);
        let b = FaultInjector::new(2, 0.2);
        let pattern = |inj: &FaultInjector| -> Vec<bool> {
            (0..500)
                .map(|seq| inj.check(FaultSite::SkylineSink, 0, seq).is_err())
                .collect()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }
}
