//! Nym-lifecycle benchmark: store-nym and load-nym (§3.5) timed end to
//! end over three workloads, with host wall time and modeled sim time
//! reported side by side and never mixed.
//!
//! A run is a sequence of identical *episodes*. Each episode builds the
//! workload's manager from the seed (timed: `setup_s` is the median over
//! episodes), runs a fixed number of closed-loop steps (timed), then the
//! workload's end-of-episode checks. Episodes repeat until the requested
//! seconds of step time have passed, so every run does the same work per
//! episode whatever the host's speed, and state never grows past one
//! episode. Modeled, byte and count figures come from the first episode
//! and repeat exactly per seed; wall-time figures pool every episode.
//!
//! With tracing on, episodes alternate untraced and traced
//! (`nymix_obs`): per-layer figures come from the traced ones, the
//! tracing overhead from both. The run writes the Chrome trace and
//! checks it with the workspace's `trace_check` binary.

#![forbid(unsafe_code)]

pub mod record;
pub mod report;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use record::Recorder;
use workloads::Workload;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed every generated input comes from.
    pub seed: u64,
    /// Seconds of measured step time (at least one episode runs).
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// The `trace_check` binary that validates the trace.
    pub trace_check: Option<PathBuf>,
    /// Provenance strings passed in by the launcher (rustc, flags).
    pub provenance: Vec<(String, String)>,
}

/// An end-to-end run.
pub struct E2eRun {
    /// Wall seconds of each episode's set-up.
    pub setup_s: Vec<f64>,
    /// Call spans and failures of every set-up.
    pub setup: Recorder,
    /// Every episode's steps and checks (set-ups excluded).
    pub rec: Recorder,
    /// Bytes at rest over all backends at the end of the first episode.
    pub at_rest_bytes: u64,
    /// Nyms the workload keeps.
    pub nyms: usize,
    /// The first episode's workload properties, measured.
    pub facts: Vec<(String, f64)>,
}

/// A traced run: alternating untraced and traced episodes.
pub struct TracedRun {
    /// Call spans of the traced episodes' set-ups.
    pub setup: Recorder,
    /// Failures and attempts of the untraced episodes' set-ups.
    pub untraced_setup: Recorder,
    /// The untraced episodes.
    pub untraced: Recorder,
    /// The traced episodes, steps and checks.
    pub traced: Recorder,
    /// `nymix_obs` snapshots of the traced episodes, added up.
    pub snapshot: nymix_obs::ObsSnapshot,
    /// Chrome trace of the last traced episode.
    pub trace_json: String,
    /// Span coverage of every traced episode's trace, added up.
    pub cover: report::TraceCover,
    /// `disk.garbage_bytes / committed_heap_len` at the end of the last
    /// traced episode.
    pub disk_garbage_frac: f64,
    /// Nyms the workload keeps.
    pub nyms: usize,
    /// The last traced episode's workload properties, measured.
    pub facts: Vec<(String, f64)>,
}

fn build(cfg: &Config, rec: &mut Recorder) -> Result<Box<dyn Workload>, String> {
    workloads::setup(&cfg.workload, cfg.seed, rec)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))
}

/// One episode's steps, timed into `rec`, then its checks (untimed).
fn run_episode(w: &mut dyn Workload, rec: &mut Recorder) {
    for _ in 0..w.episode_steps() {
        let ops = rec.saves + rec.load_ms.len() as u64;
        let start = Instant::now();
        w.step(rec);
        rec.measured_s += start.elapsed().as_secs_f64();
        rec.nym_ops += rec.saves + rec.load_ms.len() as u64 - ops;
    }
    w.verify(rec);
}

/// The end-to-end run: episodes until `cfg.seconds` of step time.
pub fn run_e2e(cfg: &Config) -> Result<E2eRun, String> {
    let mut setup_s = Vec::new();
    let mut setup = Recorder::new();
    let mut rec = Recorder::new();
    let mut first = None;
    while first.is_none() || rec.measured_s < cfg.seconds {
        let start = Instant::now();
        let mut w = build(cfg, &mut setup)?;
        setup_s.push(start.elapsed().as_secs_f64());
        run_episode(w.as_mut(), &mut rec);
        if first.is_none() {
            first = Some((w.at_rest_bytes(), w.nyms(), w.facts()));
            rec.first_episode = false;
        }
    }
    let (at_rest_bytes, nyms, facts) = first.expect("one episode ran");
    Ok(E2eRun {
        setup_s,
        setup,
        rec,
        at_rest_bytes,
        nyms,
        facts,
    })
}

/// The traced run: untraced and traced episodes alternate (an even
/// number, at least two) until `cfg.seconds` of step time, so both
/// sides do the same work. The recorder is on for a traced episode's
/// steps and checks, not for its set-up, and starts empty for each, so
/// no episode outgrows the per-thread event rings; the snapshots add up
/// and the trace kept is the last traced episode's.
pub fn run_traced(cfg: &Config) -> Result<TracedRun, String> {
    let mut setup = Recorder::new();
    let mut untraced_setup = Recorder::new();
    let mut untraced = Recorder::new();
    let mut traced = Recorder::new();
    let mut snapshot: Option<nymix_obs::ObsSnapshot> = None;
    let mut cover = report::TraceCover::default();
    let mut trace_json = String::new();
    let mut last = None;
    let mut episode = 0;
    while episode < 2 || episode % 2 != 0 || untraced.measured_s + traced.measured_s < cfg.seconds {
        let on = episode % 2 == 1;
        episode += 1;
        if !on {
            let mut w = build(cfg, &mut untraced_setup)?;
            run_episode(w.as_mut(), &mut untraced);
            continue;
        }
        let mut w = build(cfg, &mut setup)?;
        nymix_obs::reset();
        nymix_obs::set_enabled(true);
        // Publishes the `crypto.sha256.backend` gauge.
        let _ = nymix_crypto::sha256_backend();
        run_episode(w.as_mut(), &mut traced);
        nymix_obs::set_enabled(false);
        let snap = nymix_obs::snapshot();
        snapshot = Some(match snapshot {
            Some(sum) => report::add_snapshots(sum, &snap),
            None => snap,
        });
        trace_json = nymix_obs::trace_json();
        let c = report::trace_cover(&trace_json);
        cover.covered_us += c.covered_us;
        cover.seal_elapsed_us += c.seal_elapsed_us;
        let disk = w.manager().disk_store();
        last = Some((
            workloads::ratio(disk.garbage_bytes(), disk.committed_heap_len()),
            w.nyms(),
            w.facts(),
        ));
    }
    let (disk_garbage_frac, nyms, facts) = last.expect("a traced episode ran");
    Ok(TracedRun {
        snapshot: snapshot.expect("a traced episode ran"),
        trace_json,
        cover,
        disk_garbage_frac,
        nyms,
        facts,
        setup,
        untraced_setup,
        untraced,
        traced,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
