//! What a run records: wall-time samples per nym operation, modeled and
//! byte figures from the first episode, the benchmark's own spans around
//! each public call, and counted failures.

use std::collections::BTreeMap;
use std::time::Instant;

use nymix::SaveKind;

/// Why an operation counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// A public call returned an error (`NymManagerError`).
    pub typed_error: u64,
    /// A call succeeded but left the wrong state: a missing or leaked
    /// stain, an unexpected save kind, repairs left pending.
    pub wrong_state: u64,
    /// A provider access-log entry showed the user's own address.
    pub ip_leak: u64,
}

impl Failures {
    /// All failures, of every kind.
    pub fn total(&self) -> u64 {
        self.typed_error + self.wrong_state + self.ip_leak
    }
}

/// One call-span aggregate: summed wall time and call count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Summed wall time, microseconds.
    pub busy_us: u64,
    /// Completed calls.
    pub count: u64,
}

/// Samples and counts of a run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Host wall time per store-nym call, ms.
    pub store_ms: Vec<f64>,
    /// Host wall time per load-nym call, ms.
    pub load_ms: Vec<f64>,
    /// Sim-clock completion time per store-nym call, s (first episode).
    pub store_modeled_s: Vec<f64>,
    /// Fig. 7 quasi-persistent startup per load-nym call, s (first episode).
    pub load_modeled_s: Vec<f64>,
    /// Sealed bytes shipped per nym save (first episode).
    pub upload_bytes: Vec<u64>,
    /// Nym saves.
    pub saves: u64,
    /// Nym saves that sealed the full archive.
    pub full_saves: u64,
    /// Nym saves to the journaled disk.
    pub disk_saves: u64,
    /// Sealed bytes those saves shipped.
    pub disk_sealed_bytes: u64,
    /// Nym saves and loads completed inside measured steps.
    pub nym_ops: u64,
    /// Wall time spent inside measured steps, s (set-ups and
    /// end-of-episode checks excluded).
    pub measured_s: f64,
    /// Operations attempted (nym stores, loads, repairs, log checks).
    pub attempted: u64,
    /// Operations failed, by kind.
    pub failures: Failures,
    /// Spans the benchmark records around each public call, by name.
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// Whether samples still belong to the first episode.
    pub first_episode: bool,
}

impl Recorder {
    /// A recorder whose samples start in the first episode.
    pub fn new() -> Self {
        Self {
            first_episode: true,
            ..Self::default()
        }
    }

    /// Runs `f` inside the call span `name`; returns its result and
    /// its wall time in milliseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let agg = self.spans.entry(name).or_default();
        agg.busy_us += elapsed.as_micros() as u64;
        agg.count += 1;
        (out, elapsed.as_secs_f64() * 1e3)
    }

    /// Counts an attempted operation that failed with a typed error.
    pub fn typed_error(&mut self, what: &str, e: &dyn std::fmt::Display) {
        self.failures.typed_error += 1;
        eprintln!("perfbench: {what} failed: {e}");
    }

    /// Counts an operation that left the wrong state.
    pub fn wrong_state(&mut self, what: &str) {
        self.failures.wrong_state += 1;
        eprintln!("perfbench: wrong state: {what}");
    }

    /// Records one store-nym call.
    pub fn store(&mut self, wall_ms: f64, modeled_s: f64) {
        self.store_ms.push(wall_ms);
        if self.first_episode {
            self.store_modeled_s.push(modeled_s);
        }
    }

    /// Records one nym save inside a store-nym call.
    pub fn saved(&mut self, kind: SaveKind, uploaded: u64) {
        self.saves += 1;
        if kind == SaveKind::Full {
            self.full_saves += 1;
        }
        if self.first_episode {
            self.upload_bytes.push(uploaded);
        }
    }

    /// Records one load-nym call.
    pub fn load(&mut self, wall_ms: f64, modeled_s: f64) {
        self.load_ms.push(wall_ms);
        if self.first_episode {
            self.load_modeled_s.push(modeled_s);
        }
    }

    /// Call-span aggregate by name (zero when never entered).
    pub fn span(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// A deterministic 64-bit generator (SplitMix64): every input the
/// workloads feed the program comes from the benchmark seed through it.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`, separated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(beyond(&s, 90.0), 10);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = SeedRng::new(7, 1).permutation(16);
        p.sort_unstable();
        assert_eq!(p, (0..16).collect::<Vec<_>>());
    }
}
