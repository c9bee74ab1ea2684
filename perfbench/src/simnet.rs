//! `simnet_1k`: the first point of the simulator's scale curve — the ISP
//! topology (4 cores / 8 regionals / 40 stubs), 25 hosts per stub AS
//! (1,000 hosts), 10,000 Pareto(1.2) flows of at most 16 packets over
//! 1,020 simulated seconds, two shut-off strikes.
//!
//! Each scenario is built (`ScaleScenario::build`, timed as set-up) and
//! run to completion (`ScaleScenario::run`, timed as one op); runs repeat
//! until the phase's time is up. Every report must hold all invariants
//! with no incomplete, corrupt or issuance-failed flow, and at seed 42 its
//! digest fingerprint must equal the committed scale record's.

use crate::metrics::ratio;
use crate::{trace, Phase, Plan, RunResult, Runner};
use apna_simnet::{FlowSizes, ScaleConfig, ScaleReport, ScaleScenario, TopologySpec};
use std::time::Instant;

/// Hosts per stub AS of the 1k point.
pub const HOSTS_PER_AS: u32 = 25;
/// Flows of the 1k point.
pub const FLOWS: u64 = 10_000;
/// Shut-off strikes per run.
const SHUTOFFS: u32 = 2;
/// Digest fingerprint of the 1k point at seed 42, as recorded in
/// `BENCH_simnet_scale.json` (`isp52_1k_hosts_10k_flows`).
pub const SEED42_FINGERPRINT: u64 = 0x32f7_30b8_c7f8_bd8b;

/// The scale-curve configuration at `seed` with the given size.
#[must_use]
pub fn config(seed: u64, hosts_per_as: u32, flows: u64) -> ScaleConfig {
    ScaleConfig {
        seed,
        topology: TopologySpec::Isp {
            cores: 4,
            regionals: 8,
            stubs: 40,
        },
        hosts_per_as,
        flows,
        duration_secs: 1_020,
        tick_secs: 60,
        refresh_margin_secs: 120,
        sizes: FlowSizes::Pareto {
            alpha: 1.2,
            min_pkts: 1,
            max_pkts: 16,
        },
        shutoffs: SHUTOFFS,
        ..ScaleConfig::default()
    }
}

/// FNV-1a over a report digest: the fingerprint the scale records keep.
#[must_use]
pub fn fingerprint(digest: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in digest.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// What is wrong with a run's report, if anything: broken invariants,
/// incomplete, corrupt or issuance-failed flows, a short workload, missed
/// strikes, or a digest other than `expected_fingerprint`.
#[must_use]
pub fn report_problems(
    r: &ScaleReport,
    flows: u64,
    expected_fingerprint: Option<u64>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if !r.invariants_hold() {
        bad.push("invariant violated".to_string());
    }
    for (what, n) in [
        ("incomplete flows", r.incomplete_flows),
        ("corrupt discards", r.corrupt_discards),
        ("issuance failures", r.issuance_failures),
    ] {
        if n != 0 {
            bad.push(format!("{n} {what}"));
        }
    }
    if r.flows_injected != flows {
        bad.push(format!("{} of {flows} flows injected", r.flows_injected));
    }
    if r.strikes_acked != SHUTOFFS {
        bad.push(format!("{} of {SHUTOFFS} strikes acked", r.strikes_acked));
    }
    if let Some(want) = expected_fingerprint {
        let got = fingerprint(&r.digest());
        if got != want {
            bad.push(format!("digest {got:016x}, expected {want:016x}"));
        }
    }
    bad
}

/// Builds and runs scenarios of `cfg` for the plan's time (at least one
/// per phase). A run with any problem counts all its flows as failed.
/// Returns the phases and the last report.
fn measure(
    cfg: &ScaleConfig,
    expected: Option<u64>,
    plan: Plan,
    res: &mut RunResult,
) -> Result<(Phase, Option<Phase>, ScaleReport), String> {
    // A run is one op, and a handful of runs supports no tail percentile:
    // each run is its own window, and p50 and p99 are both its time.
    let mut run = Runner::new(plan, 1, 1);
    let mut last = None;
    while run.more() {
        let req = res.setup_s.len() as u64;
        let t = Instant::now();
        let scenario = {
            let _s = trace::span("simnet.build", req);
            ScaleScenario::build(cfg.clone()).map_err(|e| format!("build: {e:?}"))?
        };
        res.setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = {
            let _s = trace::span("simnet.run", req);
            scenario.run()
        };
        let wall = t.elapsed().as_secs_f64();
        let _s = trace::span("bench.check", req);
        let problems = report_problems(&report, cfg.flows, expected);
        let p = run.phase();
        if !problems.is_empty() {
            eprintln!("simnet run {req}: {}", problems.join("; "));
            p.failed += cfg.flows;
        }
        p.attempted += cfg.flows;
        p.record(wall * 1e6, report.events_executed as f64, wall);
        last = Some(report);
    }
    let (untraced, traced) = run.finish();
    Ok((untraced, traced, last.ok_or("no scenario ran")?))
}

/// Runs `simnet_1k` at `seed`.
pub fn run(seed: u64, plan: Plan) -> Result<RunResult, String> {
    run_sized(seed, plan, HOSTS_PER_AS, FLOWS)
}

fn run_sized(seed: u64, plan: Plan, hosts_per_as: u32, flows: u64) -> Result<RunResult, String> {
    let cfg = config(seed, hosts_per_as, flows);
    let expected = (seed == 42 && hosts_per_as == HOSTS_PER_AS && flows == FLOWS)
        .then_some(SEED42_FINGERPRINT);
    let mut res = RunResult {
        transport: "none",
        ..RunResult::default()
    };
    let (untraced, traced, r) = measure(&cfg, expected, plan, &mut res)?;
    res.untraced = untraced;
    if let Some(traced) = traced {
        let run = trace::agg("simnet.run");
        let m = vec![
            ("simnet.events".to_string(), r.events_executed as f64),
            (
                "simnet.us_per_event".to_string(),
                ratio(run.self_ns as f64 / 1e3, traced.work),
            ),
            (
                "simnet.queue_high_water".to_string(),
                r.queue_high_water as f64,
            ),
            (
                "simnet.materialized_hosts".to_string(),
                r.materialized_hosts as f64,
            ),
            (
                "simnet.packets_delivered".to_string(),
                r.packets_delivered as f64,
            ),
            ("simnet.refreshes".to_string(), r.refreshes as f64),
        ];
        println!(
            "simnet: {} hosts, {} flows, {} events per run, digest {:016x}",
            r.hosts,
            r.flows_injected,
            r.events_executed,
            fingerprint(&r.digest())
        );
        res.traced = Some((traced, m));
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleReport {
        ScaleScenario::build(config(42, 2, 400)).unwrap().run()
    }

    #[test]
    fn clean_report_has_no_problems() {
        let r = small();
        assert!(report_problems(&r, 400, None).is_empty(), "{r:#?}");
        let own = fingerprint(&r.digest());
        assert!(report_problems(&r, 400, Some(own)).is_empty());
    }

    #[test]
    fn a_wrong_digest_is_a_failure() {
        let r = small();
        let problems = report_problems(&r, 400, Some(SEED42_FINGERPRINT));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("digest"));
        let mut broken = r.clone();
        broken.incomplete_flows = 1;
        assert_eq!(report_problems(&broken, 400, None).len(), 1);
    }

    #[test]
    fn smoke_run_counts_flows_and_traces() {
        let plan = Plan {
            seconds: 0.1,
            trace: true,
        };
        let res = run_sized(42, plan, 2, 400).unwrap();
        assert_eq!(res.untraced.attempted, res.untraced.ops * 400);
        assert_eq!(res.untraced.failed, 0);
        let (traced, layers) = res.traced.unwrap();
        assert_eq!(traced.failed, 0);
        let get = |n: &str| layers.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("simnet.events") > 0.0);
        assert!(get("simnet.us_per_event") > 0.0);
    }
}
