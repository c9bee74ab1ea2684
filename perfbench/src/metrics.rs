//! Metric names, units, summary statistics and the result line.
//!
//! [`END_TO_END`] and [`per_layer`] are the benchmark's metric contract;
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of an untraced run (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// The drop reasons the border reports, in `DropReason::ALL` order.
pub const DROP_NAMES: [&str; 7] = [
    "malformed",
    "bad_ephid",
    "expired",
    "revoked",
    "unknown_host",
    "bad_packet_mac",
    "replayed",
];

/// The three links whose `PacketIo` calls are timed.
pub const LINKS: [&str; 3] = ["ring", "legacy", "apna"];

/// Metrics of a traced run (`--trace 1`), with units. A layer a workload
/// does not call reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("border.egress.us_per_pkt".into(), "us");
    add("border.ingress.us_per_pkt".into(), "us");
    add("border.pkts_per_call".into(), "count");
    add("border.pass_ratio".into(), "ratio");
    for d in DROP_NAMES {
        add(format!("border.drop.{d}"), "count");
    }
    add("border.replay_entries".into(), "count");
    add("gateway.legacy.self_us_per_call".into(), "us");
    add("gateway.apna.self_us_per_call".into(), "us");
    add("gateway.calls".into(), "count");
    add("gateway.errors".into(), "count");
    add("gateway.flows".into(), "count");
    add("gateway.ephids".into(), "count");
    add("control.calls".into(), "count");
    add("control.us_per_call".into(), "us");
    add("control.p99_us".into(), "us");
    for kind in apna_core::control::ControlKind::ALL {
        add(format!("control.kind.{}", kind.name()), "count");
    }
    add("control.errors".into(), "count");
    add("ctrl_log.appends".into(), "count");
    add("ctrl_log.io_errors".into(), "count");
    for link in LINKS {
        add(format!("io.{link}.send_us_per_frame"), "us");
        add(format!("io.{link}.recv_us_per_frame"), "us");
        add(format!("io.{link}.frames_per_recv"), "count");
        add(format!("io.{link}.rx_rejected"), "count");
        add(format!("io.{link}.tx_rejected"), "count");
    }
    add("simnet.events".into(), "count");
    add("simnet.us_per_event".into(), "us");
    add("simnet.queue_high_water".into(), "count");
    add("simnet.materialized_hosts".into(), "count");
    add("simnet.packets_delivered".into(), "count");
    add("simnet.refreshes".into(), "count");
    add("bench.gen_us_per_pkt".into(), "us");
    add("bench.unattributed_us_per_op".into(), "us");
    add("bench.trace_overhead_pct".into(), "%");
    add("error_rate".into(), "ratio");
    m
}

/// Median of `v` (0 for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 for an empty slice).
#[must_use]
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}` in `order`.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    order: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in order.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn result_line_has_every_metric_with_unit() {
        let order = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
        let mut values = BTreeMap::new();
        values.insert("a".to_string(), 1.5);
        let line = result_line(true, 3, 0, &order, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    /// `BENCHMARK.json` must name exactly the metrics this program prints,
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field present")
                            + f.len()
                            + 5;
                        entry[at..].split('"').next().unwrap_or("").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
    }
}
