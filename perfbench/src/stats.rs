//! Summaries of exact samples. Percentiles come from the sorted samples
//! themselves, never from a bucketed histogram: a 12.5% bucket can move
//! a p50 by more than a 10% bound in one jump.

/// Median of `samples` (mean of the middle two for an even count); 0
/// for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of already **sorted**
/// samples; 0 for no samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many sorted samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile_sorted(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// The tail percentile gated for `n` samples: the highest one up to p90
/// that leaves at least ten samples beyond it, and never below p75 (a
/// run of a few long operations has no percentile with ten beyond).
/// p99 is reported beside it, but on a shared machine its run-to-run
/// spread reaches the largest bound a metric may have.
pub fn tail_percentile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.75, 0.90)
}

/// Length of the windows a closed loop's samples are grouped into.
pub const WINDOW_S: f64 = 1.0;

/// One client thread's latency samples, grouped into the [`WINDOW_S`]
/// windows of the run in which their operations completed. Samples are
/// `f32` to keep the benchmark's own memory small beside the program's.
///
/// The free functions below take every thread's `Windows` of one run.
/// Their medians over windows are not moved by a burst of contention
/// that stalls a few windows, which on a shared machine otherwise decides
/// a run's throughput and tail.
#[derive(Debug, Default)]
pub struct Windows {
    slots: Vec<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    latency: Vec<f32>,
    first_s: f64,
    last_s: f64,
}

impl Windows {
    /// Record an operation that completed `done_s` seconds into the run
    /// and took `latency`.
    pub fn record(&mut self, done_s: f64, latency: f64) {
        let w = (done_s / WINDOW_S) as usize;
        if self.slots.len() <= w {
            self.slots.resize_with(w + 1, Slot::default);
        }
        let slot = &mut self.slots[w];
        if slot.latency.is_empty() {
            slot.first_s = done_s;
        }
        slot.last_s = done_s;
        slot.latency.push(latency as f32);
    }
}

/// Every sample of a run, sorted.
pub fn all_sorted(parts: &[Windows]) -> Vec<f64> {
    let mut all: Vec<f64> = parts
        .iter()
        .flat_map(|p| &p.slots)
        .flat_map(|s| &s.latency)
        .map(|&v| f64::from(v))
        .collect();
    all.sort_by(f64::total_cmp);
    all
}

/// Window `w` of a run across its threads: (samples sorted, first and
/// last completion).
fn window(parts: &[Windows], w: usize) -> (Vec<f64>, f64, f64) {
    let slots = parts.iter().filter_map(|p| p.slots.get(w)).filter(|s| !s.latency.is_empty());
    let (mut first, mut last, mut samples) = (f64::INFINITY, f64::NEG_INFINITY, Vec::new());
    for s in slots {
        first = first.min(s.first_s);
        last = last.max(s.last_s);
        samples.extend(s.latency.iter().map(|&v| f64::from(v)));
    }
    samples.sort_by(f64::total_cmp);
    (samples, first, last)
}

/// Windows wholly inside a run of `wall_s` seconds.
pub fn whole_windows(wall_s: f64) -> usize {
    (wall_s / WINDOW_S) as usize
}

/// Readings of the machine's CPU time, to tell how much of an interval
/// the hypervisor gave to other guests (`steal`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuMark(Option<(u64, u64)>);

impl CpuMark {
    /// Steal and total CPU time so far, in jiffies, from the first line
    /// of `/proc/stat`; unknown where the kernel does not report them.
    pub fn now() -> CpuMark {
        let read = || {
            let stat = std::fs::read_to_string("/proc/stat").ok()?;
            let fields = stat.lines().next()?.strip_prefix("cpu ")?;
            // user nice system idle iowait irq softirq steal; the guest
            // fields after them are already counted in user and nice.
            let fields: Vec<u64> =
                fields.split_whitespace().take(8).map_while(|f| f.parse().ok()).collect();
            (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
        };
        CpuMark(read())
    }

    /// Share of the CPU time between `self` and `later` that was stolen;
    /// 0 when unknown.
    pub fn steal_until(self, later: CpuMark) -> f64 {
        match (self.0, later.0) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Indices of the intervals in which the hypervisor stole no more CPU
/// time than it did in the median interval: the quieter half of a run,
/// or all of it when steal was even. A shared host takes the machine's
/// CPUs away for tens of seconds at a time; a run that drew such a
/// burst otherwise reports the burst rather than the program.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let cut = median(steal);
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// Throughput: the median over the `kept` windows of each window's
/// rate (completions after its first one over the time from its first
/// to its last, so not quantized to whole counts), with the number of
/// windows; the whole-run mean for a run that keeps under three.
pub fn rate(parts: &[Windows], kept: &[usize], wall_s: f64) -> (f64, usize) {
    if kept.len() < 3 {
        return (all_sorted(parts).len() as f64 / wall_s.max(1e-9), 1);
    }
    let rates: Vec<f64> = kept
        .iter()
        .map(|&w| match window(parts, w) {
            (s, first, last) if s.len() >= 2 && last > first => {
                (s.len() - 1) as f64 / (last - first)
            }
            _ => 0.0,
        })
        .collect();
    (median(&rates), kept.len())
}

/// Every sample of the `kept` windows, sorted; every sample of the run
/// when it keeps under three.
pub fn kept_sorted(parts: &[Windows], kept: &[usize]) -> Vec<f64> {
    if kept.len() < 3 {
        return all_sorted(parts);
    }
    let mut samples: Vec<f64> = kept.iter().flat_map(|&w| window(parts, w).0).collect();
    samples.sort_by(f64::total_cmp);
    samples
}

/// Tail latency: the median over the `kept` windows of each window's
/// [`tail_percentile`], with that percentile (of the smallest window);
/// over all samples for a run that keeps under three.
pub fn tail(parts: &[Windows], kept: &[usize]) -> (f64, f64) {
    if kept.len() < 3 {
        let all = all_sorted(parts);
        let p = tail_percentile(all.len());
        return (percentile_sorted(&all, p), p);
    }
    let windows: Vec<Vec<f64>> = kept.iter().map(|&w| window(parts, w).0).collect();
    let p = tail_percentile(windows.iter().map(Vec::len).min().unwrap_or(0));
    let tails: Vec<f64> = windows.iter().map(|s| percentile_sorted(s, p)).collect();
    (median(&tails), p)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 500.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 990.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 1000.0);
        assert_eq!(beyond(&sorted, 0.99), 10);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), 0.75);
        assert_eq!(tail_percentile(50), 0.8);
        assert_eq!(tail_percentile(50_000), 0.9);
    }

    #[test]
    fn windows_ignore_a_stalled_window() {
        // 100 ops/s of 1 ms each for four seconds on two threads, then
        // one 900 ms stall.
        let mut parts = [Windows::default(), Windows::default()];
        for i in 0..400 {
            parts[i % 2].record((i as f64 + 0.5) / 100.0, 1.0);
        }
        parts[0].record(4.95, 900.0);
        let every: Vec<usize> = (0..whole_windows(5.0)).collect();
        assert_eq!(every.len(), 5);
        let (r, windows) = rate(&parts, &every, 5.0);
        assert_eq!(windows, 5);
        assert!((r - 100.0).abs() < 1e-9, "{r}");
        assert_eq!(tail(&parts, &every).0, 1.0);
        assert_eq!(all_sorted(&parts).len(), 401);
        assert_eq!(kept_sorted(&parts, &every).len(), 401);
        assert_eq!(kept_sorted(&parts, &every[..3]).len(), 300);
        assert_eq!(tail(&parts, &every[..2]).0, 1.0);
        assert_eq!(rate(&parts, &every[..2], 2.0), (200.5, 1));
    }

    #[test]
    fn quiet_keeps_the_intervals_with_the_least_steal() {
        assert_eq!(quiet(&[0.0, 0.2, 0.01, 0.0, 0.3]), vec![0, 2, 3]);
        assert_eq!(quiet(&[0.0; 4]), vec![0, 1, 2, 3]);
        let mark = CpuMark::now();
        assert_eq!(mark.steal_until(CpuMark::default()), 0.0);
        assert!((0.0..=1.0).contains(&mark.steal_until(CpuMark::now())));
    }
}
