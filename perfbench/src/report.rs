//! Turns a run into named metrics and the JSON lines the benchmark
//! prints: a full report, then the result line.

use std::fmt::Write as _;

use crate::record::{beyond, mean, median, percentile, Failures, Recorder};
use crate::workloads::ratio;
use nymix_obs::ObsSnapshot;

use crate::{E2eRun, TracedRun};

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The end-to-end metrics `BENCHMARK.json` declares, in its order.
pub const E2E_DECLARED: [&str; 11] = [
    "setup_s",
    "store_ms.p50",
    "store_ms.p90",
    "load_ms.p50",
    "load_ms.p90",
    "nym_ops_per_s",
    "store_modeled_s.mean",
    "load_modeled_s.mean",
    "upload_bytes_per_store",
    "at_rest_bytes_per_nym",
    "peak_rss_mib",
];

/// The per-layer metrics `BENCHMARK.json` declares: every layer figure
/// that each of the three workloads exercises. Figures of layers only
/// some workloads reach (disk, placement) appear in the full report.
pub const LAYER_DECLARED: [&str; 30] = [
    "manager.create_nym.busy_us",
    "manager.visit_site.busy_us",
    "manager.save.busy_us",
    "manager.save.count",
    "manager.destroy_nym.busy_us",
    "manager.restore_nym.busy_us",
    "manager.restore_nym.count",
    "pipeline.capture.busy_us",
    "pipeline.chunk.busy_us",
    "pipeline.seal.busy_us",
    "pipeline.seal.elapsed_us",
    "pipeline.seal.count",
    "pipeline.upload.modeled_us",
    "pipeline.full_save_share",
    "restore.fetch.busy_us",
    "restore.replay.busy_us",
    "restore.resolve.busy_us",
    "restore.resolve.count",
    "cloud.gets_per_load",
    "cloud.auth_per_op",
    "cloud.puts_per_store",
    "disk.write_amp",
    "disk.fsyncs_per_store",
    "disk.tier_hit_ratio",
    "crypto.kdf_calls_per_store",
    "crypto.aead_ops_per_op",
    "crypto.sha256_blocks_per_op",
    "merkle.cache_hit_ratio",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// Every end-to-end figure of a run, declared ones first.
pub fn e2e_metrics(run: &E2eRun, peak_rss_mib: f64) -> Vec<Metric> {
    let r = &run.rec;
    let uploads: Vec<f64> = r.upload_bytes.iter().map(|&b| b as f64).collect();
    let (failures, attempted) = sum_failures(&[&run.setup, r]);
    let failed = failures.total();
    vec![
        m("setup_s", median(&run.setup_s), "s"),
        m("store_ms.p50", median(&r.store_ms), "ms"),
        m("store_ms.p90", percentile(&r.store_ms, 90.0), "ms"),
        m("load_ms.p50", median(&r.load_ms), "ms"),
        m("load_ms.p90", percentile(&r.load_ms, 90.0), "ms"),
        m("nym_ops_per_s", r.nym_ops as f64 / r.measured_s, "1/s"),
        m("store_modeled_s.mean", mean(&r.store_modeled_s), "s"),
        m("load_modeled_s.mean", mean(&r.load_modeled_s), "s"),
        m("upload_bytes_per_store", mean(&uploads), "B"),
        m(
            "at_rest_bytes_per_nym",
            run.at_rest_bytes as f64 / run.nyms as f64,
            "B",
        ),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
        m("failed_op_frac", ratio(failed, attempted), "frac"),
        m("store_ms.samples", r.store_ms.len() as f64, "count"),
        m(
            "store_ms.beyond_p90",
            beyond(&r.store_ms, 90.0) as f64,
            "count",
        ),
        m("load_ms.samples", r.load_ms.len() as f64, "count"),
        m(
            "load_ms.beyond_p90",
            beyond(&r.load_ms, 90.0) as f64,
            "count",
        ),
        m(
            "store_modeled_s.samples",
            r.store_modeled_s.len() as f64,
            "count",
        ),
        m(
            "load_modeled_s.samples",
            r.load_modeled_s.len() as f64,
            "count",
        ),
        m("setup_s.samples", run.setup_s.len() as f64, "count"),
        m("measured_s", r.measured_s, "s"),
    ]
}

/// Wall time covered by program spans in a Chrome trace, and the
/// elapsed time of the (multi-threaded) seal stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCover {
    /// Union over all threads of outermost span intervals, µs.
    pub covered_us: u64,
    /// Union of `seal` span intervals, µs.
    pub seal_elapsed_us: u64,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn union_len(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (b, e) in spans {
        cur = match cur {
            Some((cb, ce)) if b <= ce => Some((cb, ce.max(e))),
            Some((cb, ce)) => {
                total += ce - cb;
                Some((b, e))
            }
            None => Some((b, e)),
        };
    }
    total + cur.map_or(0, |(b, e)| e - b)
}

/// Reads the one-event-per-line trace `nymix_obs::trace_json` writes.
pub fn trace_cover(json: &str) -> TraceCover {
    let mut stacks: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut outer = Vec::new();
    let mut seal = Vec::new();
    for line in json.lines() {
        let (Some(name), Some(ph), Some(tid), Some(ts)) = (
            field(line, "\"name\": \""),
            field(line, "\"ph\": \""),
            field(line, "\"tid\": ").and_then(|t| t.parse::<u64>().ok()),
            field(line, "\"ts\": ").and_then(|t| t.parse::<u64>().ok()),
        ) else {
            continue;
        };
        let slot = match stacks.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                stacks.push((tid, Vec::new()));
                stacks.len() - 1
            }
        };
        let stack = &mut stacks[slot].1;
        match ph {
            "B" => stack.push(ts),
            "E" => {
                let Some(begin) = stack.pop() else { continue };
                if stack.is_empty() {
                    outer.push((begin, ts));
                }
                if name == "seal" {
                    seal.push((begin, ts));
                }
            }
            _ => {}
        }
    }
    TraceCover {
        covered_us: union_len(outer),
        seal_elapsed_us: union_len(seal),
    }
}

/// `sum` plus `more`: counters, stage aggregates and dropped events
/// add; gauges take `more`'s values.
pub fn add_snapshots(mut sum: ObsSnapshot, more: &ObsSnapshot) -> ObsSnapshot {
    for (acc, (_, v)) in sum.counters.iter_mut().zip(&more.counters) {
        acc.1 += v;
    }
    for (acc, st) in sum.stages.iter_mut().zip(&more.stages) {
        acc.count += st.count;
        acc.wall_us += st.wall_us;
        acc.sim_us += st.sim_us;
        acc.modeled_us += st.modeled_us;
    }
    sum.gauges = more.gauges.clone();
    sum.dropped_events += more.dropped_events;
    sum
}

/// Every per-layer figure of a traced run.
pub fn layer_metrics(t: &TracedRun) -> Vec<Metric> {
    let s = &t.snapshot;
    let cover = t.cover;
    let r = &t.traced;
    let stores = r.saves;
    let loads = r.load_ms.len() as u64;
    let ops = stores + loads;
    let span = |name: &str| {
        let (a, b) = (t.setup.span(name), r.span(name));
        (a.busy_us + b.busy_us, a.count + b.count)
    };
    let call_busy: u64 = r.spans.values().map(|a| a.busy_us).sum();
    let tier_hits = s.counter("disk.tier_hits");
    let tier_all = tier_hits + s.counter("disk.tier_misses");
    let cache_hits = s.counter("merkle.cache_hit");
    let untraced_rate = t.untraced.nym_ops as f64 / t.untraced.measured_s;
    let traced_rate = r.nym_ops as f64 / r.measured_s;

    let mut out = Vec::new();
    let spans = |out: &mut Vec<Metric>, name: &str| {
        let (busy, count) = span(name);
        out.push(m(format!("manager.{name}.busy_us"), busy as f64, "us"));
        out.push(m(format!("manager.{name}.count"), count as f64, "count"));
    };
    for name in [
        "create_nym",
        "visit_site",
        "save",
        "destroy_nym",
        "restore_nym",
        "repair_striped",
    ] {
        spans(&mut out, name);
    }
    for (layer, name) in [
        ("pipeline", "capture"),
        ("pipeline", "chunk"),
        ("pipeline", "seal"),
        ("restore", "fetch"),
        ("restore", "replay"),
        ("restore", "resolve"),
        ("disk", "journal_commit"),
        ("disk", "recovery"),
        ("placement", "shard_write"),
        ("placement", "quorum_wait"),
        ("placement", "repair"),
    ] {
        let st = s.stage(name);
        out.push(m(
            format!("{layer}.{name}.busy_us"),
            st.wall_us as f64,
            "us",
        ));
        out.push(m(format!("{layer}.{name}.count"), st.count as f64, "count"));
    }
    out.extend([
        m(
            "pipeline.seal.elapsed_us",
            cover.seal_elapsed_us as f64,
            "us",
        ),
        m(
            "pipeline.upload.modeled_us",
            s.stage("upload").modeled_us as f64,
            "us",
        ),
        m(
            "pipeline.full_save_share",
            ratio(r.full_saves, stores),
            "frac",
        ),
        m(
            "cloud.gets_per_load",
            ratio(s.counter("cloud.gets"), loads),
            "count",
        ),
        m(
            "cloud.auth_per_op",
            ratio(s.counter("cloud.auth"), ops),
            "count",
        ),
        m(
            "cloud.puts_per_store",
            ratio(s.counter("cloud.puts"), stores),
            "count",
        ),
        m(
            "cloud.backoff_us",
            s.counter("cloud.backoff_us") as f64,
            "us",
        ),
        m(
            "disk.write_amp",
            ratio(s.counter("disk.bytes_written"), r.disk_sealed_bytes),
            "ratio",
        ),
        m(
            "disk.fsyncs_per_store",
            ratio(s.counter("disk.fsyncs"), r.disk_saves),
            "count",
        ),
        m("disk.tier_hit_ratio", ratio(tier_hits, tier_all), "frac"),
        m("disk.garbage_frac", t.disk_garbage_frac, "frac"),
        m(
            "placement.shard_failures",
            s.counter("placement.shard_failures") as f64,
            "count",
        ),
        m(
            "placement.shards_rebuilt",
            s.counter("placement.shards_rebuilt") as f64,
            "count",
        ),
        m(
            "crypto.kdf_calls_per_store",
            ratio(s.counter("crypto.kdf.calls"), stores),
            "count",
        ),
        m(
            "crypto.aead_ops_per_op",
            ratio(
                s.counter("crypto.aead.seals") + s.counter("crypto.aead.opens"),
                ops,
            ),
            "count",
        ),
        m(
            "crypto.sha256_blocks_per_op",
            ratio(s.counter("crypto.sha256.blocks"), ops),
            "count",
        ),
        m(
            "merkle.cache_hit_ratio",
            ratio(cache_hits, cache_hits + s.counter("merkle.leaf_rehash")),
            "frac",
        ),
        m(
            "crypto.sha256.backend",
            s.gauge("crypto.sha256.backend") as f64,
            "id",
        ),
        m(
            "trace.overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "frac",
        ),
        m(
            "trace.unattributed_frac",
            1.0 - ratio(cover.covered_us, call_busy),
            "frac",
        ),
        m("trace.dropped_events", s.dropped_events as f64, "count"),
        m("nym_ops_per_s.untraced", untraced_rate, "1/s"),
        m("nym_ops_per_s.traced", traced_rate, "1/s"),
    ]);
    out
}

/// Appends `"name": {"value": v, "unit": u}` pairs for `metrics`.
fn push_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            num(x.value),
            x.unit
        );
    }
    out.push('}');
}

/// A JSON number with every digit the value has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Escapes `s` as a JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full report line: provenance, failures, every figure and the
/// workload's measured properties.
pub fn full_report(
    workload: &str,
    provenance: &[(String, String)],
    failures: Failures,
    attempted: u64,
    metrics: &[Metric],
    facts: &[(String, f64)],
    notes: &[(String, String)],
) -> String {
    let mut out = String::from("{\"perfbench\": {");
    let _ = write!(
        out,
        "\"workload\": {}, \"provenance\": {{",
        string(workload)
    );
    for (i, (k, v)) in provenance.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", string(k), string(v));
    }
    let _ = write!(
        out,
        "}}, \"attempted\": {attempted}, \"failures\": {{\"typed_error\": {}, \"wrong_state\": {}, \"ip_leak\": {}}}, \"metrics\": ",
        failures.typed_error, failures.wrong_state, failures.ip_leak
    );
    push_metrics(&mut out, metrics);
    out.push_str(", \"facts\": {");
    for (i, (k, v)) in facts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", string(k), num(*v));
    }
    out.push_str("}, \"notes\": {");
    for (i, (k, v)) in notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", string(k), string(v));
    }
    out.push_str("}}}");
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// declared `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": ",
        attempted.max(1)
    );
    push_metrics(&mut out, metrics);
    out.push('}');
    out
}

/// Failures and attempts summed over `recs`.
pub fn sum_failures(recs: &[&Recorder]) -> (Failures, u64) {
    let mut f = Failures::default();
    let mut attempted = 0;
    for r in recs {
        f.typed_error += r.failures.typed_error;
        f.wrong_state += r.failures.wrong_state;
        f.ip_leak += r.failures.ip_leak;
        attempted += r.attempted;
    }
    (f, attempted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares, in order: workloads, then
    /// end-to-end metrics, then per-layer metrics.
    #[test]
    fn declared_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let want: Vec<&str> = crate::workloads::NAMES
            .iter()
            .chain(&E2E_DECLARED)
            .chain(&LAYER_DECLARED)
            .copied()
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn cover_reads_nested_and_threaded_spans() {
        let trace = "{\"traceEvents\": [\n\
            {\"name\": \"capture\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 0, \"args\": {}},\n\
            {\"name\": \"chunk\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 2, \"args\": {}},\n\
            {\"name\": \"chunk\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 4, \"args\": {}},\n\
            {\"name\": \"capture\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 10, \"args\": {}},\n\
            {\"name\": \"seal\", \"ph\": \"B\", \"pid\": 1, \"tid\": 2, \"ts\": 10, \"args\": {}},\n\
            {\"name\": \"seal\", \"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": 16, \"args\": {}},\n\
            {\"name\": \"seal\", \"ph\": \"B\", \"pid\": 1, \"tid\": 3, \"ts\": 12, \"args\": {}},\n\
            {\"name\": \"seal\", \"ph\": \"E\", \"pid\": 1, \"tid\": 3, \"ts\": 20, \"args\": {}}\n\
            ]}";
        let c = trace_cover(trace);
        assert_eq!(c.covered_us, 20);
        assert_eq!(c.seal_elapsed_us, 10);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[m("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
