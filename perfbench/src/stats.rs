//! Sample statistics, wall-clock helpers and process memory readings.

use std::time::{Duration, Instant};

/// Milliseconds in a [`Duration`].
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms(start.elapsed()))
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ticks the machine's CPUs have spent stolen by the hypervisor and in
/// total, from `/proc/stat` (`(0, 0)` where unavailable).
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let fields: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Measures the share of the machine's CPU time the hypervisor stole over
/// an interval.
pub struct StealMeter((u64, u64));

impl StealMeter {
    /// Starts the interval.
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    /// Stolen share (0..=1) since [`StealMeter::start`]; 0 where
    /// `/proc/stat` is unavailable or no tick has passed.
    pub fn share(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        let total = total.saturating_sub(self.0 .1);
        if total == 0 {
            return 0.0;
        }
        steal.saturating_sub(self.0 .0) as f64 / total as f64
    }
}

/// One measurement window of an untraced run: a stretch of operations, the
/// calibration samples taken right after them, and the share of the
/// machine's CPU time the hypervisor stole meanwhile.
///
/// On a shared VM the hypervisor takes CPU time away in bursts: one second
/// loses nothing, the next 20%. Work that hands off between threads or
/// processes slows far more than the stolen share (a serve epoch's p99
/// doubled at 15% steal), so stolen time is noise the calibration cannot
/// scale away. Runs therefore report their figures from the calmer half of
/// their windows ([`calmer_half`]). Steal is the machine's, not the
/// program's: a slower program makes longer windows, not stolen ones.
pub struct Window<T> {
    /// The window's operations.
    pub ops: T,
    /// Calibration kernel times taken after the operations (ms).
    pub calibration: Vec<f64>,
    /// Share of CPU time stolen over operations and calibration (0..=1).
    pub steal: f64,
}

/// The calmer half of `windows` (at least one, rounded up): those with the
/// least stolen time, ties to the earlier, in run order.
pub fn calmer_half<T>(windows: &[Window<T>]) -> Vec<&Window<T>> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| {
        windows[a]
            .steal
            .total_cmp(&windows[b].steal)
            .then(a.cmp(&b))
    });
    order.truncate(windows.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| &windows[i]).collect()
}

/// The median of the calmer half of `windows`, one value each.
pub fn calm_median(windows: &[Window<f64>]) -> f64 {
    median(
        &calmer_half(windows)
            .iter()
            .map(|w| w.ops)
            .collect::<Vec<_>>(),
    )
}

/// The calibration samples of `windows`.
pub fn calibration_samples<T>(windows: &[&Window<T>]) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| w.calibration.iter().copied())
        .collect()
}

/// A one-line account of how disturbed a run's windows were: mean stolen
/// share (%) of the kept windows and of all of them.
pub fn steal_summary<T>(windows: &[Window<T>]) -> String {
    let mean_pct = |steal: Vec<f64>| 100.0 * steal.iter().sum::<f64>() / steal.len().max(1) as f64;
    let kept = calmer_half(windows);
    format!(
        "{} of {} windows kept, {:.1}% stolen in them ({:.1}% in all)",
        kept.len(),
        windows.len(),
        mean_pct(kept.iter().map(|w| w.steal).collect()),
        mean_pct(windows.iter().map(|w| w.steal).collect()),
    )
}

/// Machine-speed calibration: a frozen memory- and branch-bound kernel
/// (clone and sort 2^20 pseudo-random `u64`s) sampled between the
/// workload's operations.
///
/// Shared machines drift in speed over minutes as neighbours come and go;
/// on a 2-vCPU VM the same binary's per-run median moved by over 20% within
/// an hour while the program stayed the same. Dividing a run's timings by the
/// kernel's median over the run's calm windows and multiplying by
/// [`Calibration::REFERENCE_MS`] reports them at a fixed reference machine
/// speed. The kernel is frozen code of the benchmark, so a change to the
/// program moves the calibrated numbers exactly as it moves the raw ones.
///
/// Its two buffers stay resident from construction on, so a run that
/// builds the calibration first knows exactly how much of its peak RSS is
/// the calibration's ([`Calibration::FOOTPRINT_MB`]).
pub struct Calibration {
    data: Vec<u64>,
    scratch: Vec<u64>,
    spent: Duration,
}

impl Calibration {
    /// The calibration median the reported timings are scaled to (ms).
    pub const REFERENCE_MS: f64 = 30.0;
    /// Share of a run's wall time spent calibrating.
    pub const SHARE: f64 = 0.15;
    /// Fewest samples a factor is computed from.
    pub const MIN_SAMPLES: usize = 5;
    /// Elements the kernel sorts.
    const LEN: usize = 1 << 20;
    /// Resident size of the kernel's buffers (MiB).
    pub const FOOTPRINT_MB: f64 = (2 * Self::LEN * std::mem::size_of::<u64>()) as f64 / 1048576.0;

    /// Generates and touches the kernel's buffers (not timed).
    pub fn new() -> Self {
        let mut rng = SplitMix::new(0xCA11_B4A7E, 0);
        let data: Vec<u64> = (0..Self::LEN).map(|_| rng.next_u64()).collect();
        Calibration {
            scratch: data.clone(),
            data,
            spent: Duration::ZERO,
        }
    }

    /// Runs the kernel once and returns its time (ms).
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.scratch.copy_from_slice(&self.data);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        let elapsed = start.elapsed();
        self.spent += elapsed;
        ms(elapsed)
    }

    /// Samples until calibration has taken [`Calibration::SHARE`] of
    /// `elapsed`, the wall time of the run so far; returns the new samples.
    pub fn keep_share(&mut self, elapsed: Duration) -> Vec<f64> {
        let mut samples = Vec::new();
        while self.spent.as_secs_f64() < Self::SHARE * elapsed.as_secs_f64() {
            samples.push(self.sample());
        }
        samples
    }

    /// The factor that scales timings measured beside `samples` to the
    /// reference speed, after topping up to [`Calibration::MIN_SAMPLES`].
    pub fn factor(&mut self, samples: &[f64]) -> f64 {
        let mut samples = samples.to_vec();
        while samples.len() < Self::MIN_SAMPLES {
            samples.push(self.sample());
        }
        Self::REFERENCE_MS / median(&samples)
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic 64-bit generator (SplitMix64): every generated input of
/// the benchmark derives from the workload seed through one of these.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calmer_half_keeps_the_least_stolen_windows_in_order() {
        let windows: Vec<Window<usize>> = [0.2, 0.0, 0.1, 0.0, 0.3]
            .into_iter()
            .enumerate()
            .map(|(ops, steal)| Window {
                ops,
                calibration: Vec::new(),
                steal,
            })
            .collect();
        let kept: Vec<usize> = calmer_half(&windows).iter().map(|w| w.ops).collect();
        assert_eq!(kept, [1, 2, 3]);
        assert_eq!(calmer_half(&windows[..1]).len(), 1);
    }

    #[test]
    fn splitmix_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = SplitMix::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }
}
