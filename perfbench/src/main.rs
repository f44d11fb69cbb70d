//! Command line of the nym-lifecycle benchmark.
//!
//! ```text
//! perfbench --workload heartbeat|amnesia|durable --seed N --seconds S --trace 0|1
//!           [--trace-out PATH] [--trace-check PATH] [--prov KEY=VALUE]...
//! ```
//!
//! Prints one full-report JSON line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::report::{self, Metric};
use perfbench::Config;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--trace-out PATH] [--trace-check PATH] [--prov KEY=VALUE]",
        perfbench::workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        trace_check: None,
        provenance: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let mut seen_seed = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => {
                cfg.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(&value)),
            "--trace-check" => cfg.trace_check = Some(PathBuf::from(&value)),
            "--prov" => {
                let (k, v) = value.split_once('=').ok_or_else(bad)?;
                cfg.provenance.push((k.to_string(), v.to_string()));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !perfbench::workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !seen_seed || cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seed and a positive --seconds are required".into());
    }
    Ok(cfg)
}

/// Build and host facts every result carries.
fn provenance(cfg: &Config) -> Vec<(String, String)> {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("sha", cfg!(target_feature = "sha")),
    ]
    .into_iter()
    .filter_map(|(n, on)| on.then_some(n))
    .collect();
    let backend = nymix_crypto::sha256_backend();
    let mut p = vec![
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), u8::from(cfg.trace).to_string()),
        (
            "nymix_features".into(),
            "default (shipped build, no simd-kernels)".into(),
        ),
        ("compiled_target_features".into(), features.join(",")),
        (
            "crypto.sha256.backend".into(),
            format!("{} ({backend:?})", backend.id()),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto = thin)"
            }
            .into(),
        ),
        ("loop".into(), "closed, one client, single-threaded".into()),
    ];
    p.extend(cfg.provenance.iter().cloned());
    p
}

fn declared(all: &[Metric], names: &[&str]) -> Vec<Metric> {
    names
        .iter()
        .filter_map(|n| all.iter().find(|x| x.name == *n).cloned())
        .collect()
}

/// Writes the trace and runs `trace_check` on it: every nym's save must
/// pass through capture, chunk, seal and upload.
fn check_trace(cfg: &Config, trace: &str, sessions: usize) -> Result<String, String> {
    let out = cfg
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("perfbench-{}.trace.json", cfg.workload)));
    std::fs::write(&out, trace).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let Some(checker) = &cfg.trace_check else {
        return Err("no --trace-check binary given".into());
    };
    let result = Command::new(checker)
        .arg(&out)
        .args(["--sessions", &sessions.to_string()])
        .args(["--stages", "capture,chunk,seal,upload"])
        .output()
        .map_err(|e| format!("running {}: {e}", checker.display()))?;
    let text = [&result.stdout, &result.stderr]
        .map(|b| String::from_utf8_lossy(b).trim().replace('\n', " | "))
        .into_iter()
        .filter(|t| !t.is_empty())
        .collect::<Vec<_>>()
        .join(" | ");
    if result.status.success() {
        Ok(text)
    } else {
        Err(text)
    }
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let prov = provenance(&cfg);
    let (all, names, (failures, attempted), facts, notes, trace_ok) = if cfg.trace {
        let run = match perfbench::run_traced(&cfg) {
            Ok(r) => r,
            Err(e) => return usage(&e),
        };
        let checked = check_trace(&cfg, &run.trace_json, run.nyms);
        let notes = vec![
            (
                "trace_check".to_string(),
                match &checked {
                    Ok(t) | Err(t) => t.clone(),
                },
            ),
            (
                "window".to_string(),
                "manager.* spans cover the traced episodes with their set-ups; every \
                 other figure covers the traced episodes' steps and checks; the trace \
                 file holds the last traced episode"
                    .to_string(),
            ),
        ];
        (
            report::layer_metrics(&run),
            &report::LAYER_DECLARED[..],
            report::sum_failures(&[&run.setup, &run.untraced_setup, &run.untraced, &run.traced]),
            run.facts,
            notes,
            checked.is_ok(),
        )
    } else {
        let run = match perfbench::run_e2e(&cfg) {
            Ok(r) => r,
            Err(e) => return usage(&e),
        };
        let notes = vec![(
            "window".to_string(),
            "wall-time figures pool every episode; modeled, byte and at-rest figures \
             cover the first episode, so they repeat exactly per seed"
                .to_string(),
        )];
        (
            report::e2e_metrics(&run, perfbench::peak_rss_mib()),
            &report::E2E_DECLARED[..],
            report::sum_failures(&[&run.setup, &run.rec]),
            run.facts,
            notes,
            true,
        )
    };
    println!(
        "{}",
        report::full_report(
            &cfg.workload,
            &prov,
            failures,
            attempted,
            &all,
            &facts,
            &notes
        )
    );
    let failed = failures.total();
    println!(
        "{}",
        report::result_line(
            failed == 0 && trace_ok,
            attempted,
            failed,
            &declared(&all, names)
        )
    );
    ExitCode::SUCCESS
}
