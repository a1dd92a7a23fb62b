//! Order statistics, the reply hash, and the process's peak resident set.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice so a class with no samples prints as 0.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` over a copy of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A tail percentile is reported only when at least ten samples lie
/// beyond it; otherwise 0, which the tables print as "too few samples".
pub fn tail_percentile(values: &[f64], p: f64) -> f64 {
    if (values.len() as f64) * (1.0 - p) < 10.0 {
        return 0.0;
    }
    percentile(values, p)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) — the spread the driver computes, so
/// `--repeat` prints the number that will be judged.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// 64-bit FNV-1a over the rendered lines in reply order, newline
/// separated: what later ops are compared with once the first reply of a
/// query has been verified row by row.
pub fn hash_lines(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `VmHWM` of this process in MB (0 where /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restrict this thread, and every thread it starts from now on, to the
/// CPU it is running on. Returns whether the kernel accepted.
///
/// `served_mix` needs it: client and server thread hand each request back
/// and forth, and on this VM a wake-up on the same CPU costs a third of one
/// across CPUs. Which of the two the scheduler picks depends on what ran in
/// the minute before, which made `hit_p50_ms` 0.03 ms or 0.09 ms by
/// history, not by engine.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain libc calls. `sched_getcpu` takes no arguments;
    // `sched_setaffinity` reads `cpusetsize` bytes from `mask`, which points
    // at a live array of exactly that size, and pid 0 names this thread.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return false;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] = 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), 0.0);
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn hash_depends_on_order_and_boundaries() {
        let a = hash_lines(&["ab".into(), "c".into()]);
        assert_ne!(a, hash_lines(&["a".into(), "bc".into()]));
        assert_ne!(a, hash_lines(&["c".into(), "ab".into()]));
    }
}
