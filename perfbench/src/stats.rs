//! Small numeric helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Nearest-rank percentile `q` (0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of floats; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// CPU time the hypervisor gave to other guests while this VM wanted to run
/// (the `steal` column of `/proc/stat`), in 10 ms ticks summed over CPUs;
/// 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The parts of a run (jobs, cycles or windows) the host
/// interfered with least: those whose steal is at most the first-quartile
/// part's (or the third-quietest's, so at least three are kept). On a
/// shared host another tenant's load only ever slows a part down, so
/// figures taken over these parts follow the code, not the neighbours.
/// With no steal at all, every part is kept.
pub fn quiet_parts<T>(parts: &[T], steal: impl Fn(&T) -> u64) -> Vec<&T> {
    let mut steals: Vec<u64> = parts.iter().map(&steal).collect();
    steals.sort_unstable();
    let rank = (steals.len().div_ceil(4)).max(3).min(steals.len());
    let Some(&cut) = rank.checked_sub(1).and_then(|r| steals.get(r)) else {
        return Vec::new();
    };
    parts.iter().filter(|p| steal(p) <= cut).collect()
}

/// Nanoseconds of a duration, saturating at `u64::MAX`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Milliseconds of a duration as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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

/// Times `reps` runs of a set-up closure and returns the median seconds
/// and the last run's output (earlier outputs are dropped before the next
/// run starts, so only one lives at a time).
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let out = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((median(&secs), last.expect("at least one set-up run")))
}

/// The two halves of a traced run: an untraced half, then a traced half of
/// equal length, so `trace_overhead` compares like with like.
pub fn phases(cfg: &crate::Config) -> Vec<(bool, f64)> {
    if cfg.trace {
        vec![(false, cfg.seconds / 2.0), (true, cfg.seconds / 2.0)]
    } else {
        vec![(false, cfg.seconds)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let parts = [
            (3, 'a'),
            (1, 'b'),
            (9, 'c'),
            (2, 'd'),
            (1, 'e'),
            (4, 'f'),
            (5, 'g'),
            (6, 'h'),
        ];
        let kept: Vec<char> = quiet_parts(&parts, |p| p.0).iter().map(|p| p.1).collect();
        assert_eq!(kept, vec!['b', 'd', 'e']);
        assert_eq!(quiet_parts(&parts[..2], |p| p.0).len(), 2);
        assert!(quiet_parts(&parts[..0], |p| p.0).is_empty());
        let calm = [(0, 'x'), (0, 'y')];
        assert_eq!(quiet_parts(&calm, |p| p.0).len(), 2);
    }
}
