//! Determinism self-check: one seed gives identical modeled, byte and
//! count figures on every run; another seed generates other inputs.
//!
//! Each run here is one episode (a near-zero time budget). Run with
//! `cargo test --release` from `perfbench/`; a debug build is slow.

use perfbench::{run_e2e, Config, E2eRun};

fn episode(workload: &str, seed: u64) -> E2eRun {
    let cfg = Config {
        workload: workload.into(),
        seed,
        seconds: 1e-9,
        trace: false,
        trace_out: None,
        trace_check: None,
        provenance: Vec::new(),
    };
    run_e2e(&cfg).expect("known workload")
}

/// Every figure the benchmark promises to repeat exactly for a seed.
fn fingerprint(run: &E2eRun) -> (Vec<u64>, Vec<u64>, Vec<u64>, u64, u64, u64, usize) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let r = &run.rec;
    (
        bits(&r.store_modeled_s),
        bits(&r.load_modeled_s),
        r.upload_bytes.clone(),
        run.at_rest_bytes,
        r.full_saves,
        r.nym_ops,
        r.store_ms.len() + r.load_ms.len(),
    )
}

fn check(workload: &str) {
    let a = episode(workload, 11);
    let b = episode(workload, 11);
    let c = episode(workload, 12);
    for run in [&a, &b, &c] {
        assert_eq!(run.rec.failures.total(), 0, "{workload}: failed operations");
        assert_eq!(run.setup.failures.total(), 0, "{workload}: failed set-up");
        assert!(!run.rec.store_modeled_s.is_empty() && !run.rec.load_modeled_s.is_empty());
    }
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "{workload}: same seed diverged"
    );
    assert_ne!(
        (&a.rec.upload_bytes, a.at_rest_bytes),
        (&c.rec.upload_bytes, c.at_rest_bytes),
        "{workload}: another seed generated the same inputs"
    );
}

#[test]
fn heartbeat_is_deterministic_per_seed() {
    check("heartbeat");
}

#[test]
fn amnesia_is_deterministic_per_seed() {
    check("amnesia");
}

#[test]
fn durable_is_deterministic_per_seed() {
    check("durable");
}
