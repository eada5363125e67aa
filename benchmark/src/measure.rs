//! Measurement helpers: process CPU and peak-RSS readers, order
//! statistics, the tail-percentile rule, the brute-force Pareto check, and
//! kernel self-time attribution from the `lightts_obs::prof` tree.

use lightts_obs::prof;
use lightts_search::Evaluated;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant Linux always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size in MiB, parsed from a `/proc/<pid>/status` text
/// (`VmHWM:` line, in kB). Unlike `getrusage`'s `ru_maxrss`, which keeps
/// the parent's peak across `exec`, this is the peak of this program alone.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM line in /proc/self/status")
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles the tail rule considers, lowest first.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// One reported tail percentile and the sample it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The order statistic at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank order statistic at `pct` of an ascending sample, with the
/// number of samples beyond it.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps exact ranks exact: 99.9 % of 10_000 is 9990, not
    // the 9990.000000000002 that floating point computes.
    let rank = ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile of [`TAIL_PERCENTILES`] that has at least 10
/// samples beyond it (a p99 from 200 samples would be the 2nd-largest
/// sample, i.e. noise). `None` when even the median lacks 10 samples above.
pub fn tail_percentile(sorted: &[f64]) -> Option<Tail> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");
    if sorted.is_empty() {
        return None;
    }
    TAIL_PERCENTILES.iter().rev().find_map(|&pct| {
        let (value, beyond) = nearest_rank(sorted, pct);
        (beyond >= 10).then_some(Tail { pct, value, n: sorted.len(), beyond })
    })
}

/// The non-dominated subset of `points` by brute force (every pair
/// compared), one representative per distinct `(accuracy, size)` pair,
/// returned as sorted `(size_bits, accuracy bits)` keys.
pub fn brute_force_frontier(points: &[Evaluated]) -> Vec<(u64, u64)> {
    let dominated = |p: &Evaluated| {
        points.iter().any(|q| {
            q.accuracy >= p.accuracy
                && q.size_bits <= p.size_bits
                && (q.accuracy > p.accuracy || q.size_bits < p.size_bits)
        })
    };
    let mut keys: Vec<(u64, u64)> = points
        .iter()
        .filter(|p| !dominated(p))
        .map(|p| (p.size_bits, p.accuracy.to_bits()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The same `(size_bits, accuracy bits)` keys of a reported frontier.
pub fn frontier_keys(frontier: &[Evaluated]) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> =
        frontier.iter().map(|p| (p.size_bits, p.accuracy.to_bits())).collect();
    keys.sort_unstable();
    keys
}

/// The hooked tensor kernels, by the last segment of their prof path.
pub const KERNELS: [(&str, &[&str]); 4] = [
    ("conv_fwd", &["conv.lowered_fwd", "conv.direct_fwd"]),
    ("conv_bwd_weight", &["conv.lowered_bwd_weight"]),
    ("conv_bwd_input", &["conv.lowered_bwd_input"]),
    ("gemm", &["gemm.panel", "gemm.matmul"]),
];

/// Kernel self-seconds recorded by the prof hooks between two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTimes {
    /// Self-seconds per [`KERNELS`] entry, in that order.
    pub kernel_s: [f64; 4],
    /// Self-seconds of every hooked path, these kernels included.
    pub hooked_s: f64,
}

/// A prof-tree snapshot to diff against later.
pub struct ProfMark(Vec<prof::ProfEntry>);

impl ProfMark {
    /// Snapshots the tree now (empty when profiling is off).
    pub fn now() -> ProfMark {
        ProfMark(if prof::enabled() { prof::snapshot() } else { Vec::new() })
    }

    /// Self-time accumulated since this mark, per kernel.
    pub fn since(&self) -> KernelTimes {
        kernel_times(&self.0, &ProfMark::now().0)
    }
}

/// Self-time growth from `before` to `after`, grouped by kernel.
pub fn kernel_times(before: &[prof::ProfEntry], after: &[prof::ProfEntry]) -> KernelTimes {
    let mut out = KernelTimes::default();
    for e in after {
        let prev = before.iter().find(|b| b.path == e.path).map_or(0, |b| b.self_ns);
        let s = e.self_ns.saturating_sub(prev) as f64 * 1e-9;
        out.hooked_s += s;
        let leaf = e.path.rsplit(';').next().unwrap_or(&e.path);
        if let Some(k) = KERNELS.iter().position(|(_, names)| names.contains(&leaf)) {
            out.kernel_s[k] += s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_search::StudentSetting;
    use std::time::Instant;

    // The CPU clock is process-wide and tests run on parallel threads, so
    // these assertions are lower bounds only.
    #[test]
    fn cpu_clock_counts_work_on_every_thread() {
        let spin = |ms: u128| {
            let t0 = Instant::now();
            while t0.elapsed().as_millis() < ms {
                std::hint::black_box(t0.elapsed());
            }
        };
        let c0 = process_cpu_s();
        spin(60);
        let c1 = process_cpu_s();
        assert!(c1 - c0 > 0.03, "60 ms of spinning showed {} s of CPU", c1 - c0);
        std::thread::spawn(move || spin(60)).join().unwrap();
        let c2 = process_cpu_s();
        assert!(c2 - c1 > 0.03, "60 ms spun on another thread showed {} s", c2 - c1);
    }

    #[test]
    fn rss_reader_parses_status_and_sees_held_memory() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t1 kB\n";
        assert_eq!(parse_vm_hwm_mb(text), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots\n"), None);
        let held = vec![1u8; 64 << 20];
        std::hint::black_box(&held);
        assert!(max_rss_mb() >= 64.0, "64 MiB held, peak RSS {} MiB", max_rss_mb());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // 10_000 samples: p99.9 has exactly 10 beyond it.
        let t = tail_percentile(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (99.9, 9990.0, 10_000, 10));
        // 9_999 samples: p99.9 has only 9 beyond, so p99 is reported.
        let t = tail_percentile(&ramp(9_999)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 9900.0, 99));
        // 1_000 samples: p99 has 10 beyond.
        let t = tail_percentile(&ramp(1_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 rank 990 leaves 9, so p90.
        assert_eq!(tail_percentile(&ramp(999)).unwrap().pct, 90.0);
        // 20 samples: the median has 10 beyond; 19 samples do not.
        assert_eq!(tail_percentile(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    fn ev(id: usize, accuracy: f64, size_bits: u64) -> Evaluated {
        Evaluated { setting: StudentSetting(vec![(id, 1, 8)]), accuracy, size_bits }
    }

    #[test]
    fn brute_force_frontier_keeps_exactly_the_non_dominated() {
        let pts = vec![
            ev(0, 0.5, 100),
            ev(1, 0.7, 200),
            ev(2, 0.6, 300), // dominated by 1
            ev(3, 0.7, 250), // dominated by 1 (same accuracy, larger)
            ev(4, 0.9, 400),
            ev(5, 0.5, 100), // duplicate objectives of 0
            ev(6, 0.4, 50),
        ];
        let want: Vec<(u64, u64)> = vec![
            (50, 0.4f64.to_bits()),
            (100, 0.5f64.to_bits()),
            (200, 0.7f64.to_bits()),
            (400, 0.9f64.to_bits()),
        ];
        assert_eq!(brute_force_frontier(&pts), want);
        // the library's sort-scan frontier agrees on this set
        let lib = lightts_search::pareto::pareto_frontier(&pts);
        assert_eq!(frontier_keys(&lib), want);
        // a frontier missing a point, or holding a dominated one, differs
        assert_ne!(frontier_keys(&lib[1..]), want);
        let mut padded = lib.clone();
        padded.push(pts[2].clone());
        assert_ne!(frontier_keys(&padded), want);
    }

    #[test]
    fn kernel_times_diff_snapshots_by_leaf_name() {
        let e = |path: &str, self_ns: u64| prof::ProfEntry {
            path: path.into(),
            cum_ns: self_ns,
            self_ns,
            hits: 1,
        };
        let before = vec![e("conv.lowered_fwd", 1_000_000_000), e("gemm.panel", 0)];
        let after = vec![
            e("conv.lowered_fwd", 1_500_000_000),
            e("conv.lowered_fwd;gemm.panel", 250_000_000),
            e("gemm.panel", 250_000_000),
            e("conv.lowered_bwd_weight", 2_000_000_000),
            e("plan.forward", 100_000_000),
        ];
        let k = kernel_times(&before, &after);
        assert_eq!(k.kernel_s, [0.5, 2.0, 0.0, 0.5]);
        assert!((k.hooked_s - 3.1).abs() < 1e-9);
    }
}
