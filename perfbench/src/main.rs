//! One command for the APNA benchmark.
//!
//! `apna-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `README.md` beside this package), checks every
//! output it produces, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run alternates
//! untraced and traced slices and reports the per-layer metrics.
//! A run whose outputs are wrong still prints its result, with
//! `"correct": false`, and exits 1.

mod layers;
mod legacy;
mod metrics;
mod simnet;
mod trace;
mod transit;

use metrics::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a workload measures, and whether it traces.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured time of the run.
    pub seconds: f64,
    /// Whether the run alternates untraced and traced slices.
    pub trace: bool,
}

/// Length of one slice when a traced run alternates untraced and traced
/// slices. Both halves then see the same machine: the tracing overhead
/// compares like with like, not an early half with a late one.
pub const SLICE: Duration = Duration::from_millis(500);

/// Drives a workload's measured loop and books each op into the untraced
/// or the traced [`Phase`].
pub struct Runner {
    trace: bool,
    length: Duration,
    start: Instant,
    slice_start: Instant,
    traced: bool,
    paused: Option<Instant>,
    phases: [Phase; 2],
}

impl Runner {
    /// Starts the clock (and, with `plan.trace`, a fresh paused recorder)
    /// for phases summarized in windows of `window` ops, `positions`
    /// windows to a generation (see [`Phase::summary`]).
    #[must_use]
    pub fn new(plan: Plan, window: usize, positions: usize) -> Runner {
        if plan.trace {
            trace::start();
            trace::set_on(false);
        }
        let now = Instant::now();
        Runner {
            trace: plan.trace,
            length: Duration::from_secs_f64(plan.seconds),
            start: now,
            slice_start: now,
            traced: false,
            paused: None,
            phases: [Phase::new(window, positions), Phase::new(window, positions)],
        }
    }

    /// Whether to run another op: until the run's length has passed and
    /// every phase it keeps has at least one op. Switches slices between
    /// ops.
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        let over = now.duration_since(self.start) >= self.length;
        let starved = |p: &Phase| p.attempted == 0;
        let want_untraced = starved(&self.phases[0]);
        let want_traced = self.trace && starved(&self.phases[1]);
        if over && !want_untraced && !want_traced {
            return false;
        }
        let other_starved = if self.traced {
            want_untraced
        } else {
            want_traced
        };
        if self.trace && (now.duration_since(self.slice_start) >= SLICE || (over && other_starved))
        {
            self.close(now);
            self.traced = !self.traced;
            trace::set_on(self.traced);
        }
        true
    }

    /// Stops the clock and the recorder: the time until
    /// [`Runner::resume`] (a set-up between ops) counts neither toward the
    /// run's length nor toward a slice, and records no spans.
    pub fn pause(&mut self) {
        self.paused.get_or_insert_with(Instant::now);
        if self.trace {
            trace::set_on(false);
        }
    }

    /// Restarts the clock (and the recorder, in a traced slice) after
    /// [`Runner::pause`].
    pub fn resume(&mut self) {
        if let Some(at) = self.paused.take() {
            let held = at.elapsed();
            self.start += held;
            self.slice_start += held;
        }
        if self.trace {
            trace::set_on(self.traced);
        }
    }

    /// Starts a generation: the next window of each phase is its first.
    pub fn start_generation(&mut self) {
        for p in &mut self.phases {
            p.start_generation();
        }
    }

    fn close(&mut self, now: Instant) {
        self.phases[usize::from(self.traced)].wall_s +=
            now.duration_since(self.slice_start).as_secs_f64();
        self.slice_start = now;
    }

    /// The phase the current op belongs to.
    pub fn phase(&mut self) -> &mut Phase {
        &mut self.phases[usize::from(self.traced)]
    }

    /// Ends the run: the untraced phase, and the traced one if tracing.
    #[must_use]
    pub fn finish(mut self) -> (Phase, Option<Phase>) {
        self.close(Instant::now());
        trace::set_on(false);
        let [untraced, traced] = self.phases;
        (untraced, self.trace.then_some(traced))
    }
}

/// One completed op: a burst, an RPC or a scenario run.
#[derive(Debug, Clone, Copy)]
struct Op {
    latency_us: f64,
    work: f64,
    busy_s: f64,
}

/// Ops per summary window for workloads of many short ops: a window's p99
/// then has ten ops beyond it.
pub const WINDOW: usize = 1000;

/// End-to-end figures of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Work per second.
    pub throughput: f64,
    /// Median op latency, µs.
    pub p50_us: f64,
    /// 99th-percentile op latency, µs.
    pub p99_us: f64,
}

/// Share of the windows at each position that a summary keeps: the
/// fastest tenth (at least one).
pub const KEEP: f64 = 0.1;

/// What a complete window keeps: its position in its generation, its
/// totals and its own percentiles.
#[derive(Debug, Clone, Copy)]
struct Window {
    position: usize,
    work: f64,
    busy_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Window {
    fn of(ops: &[Op], position: usize) -> Window {
        let lat: Vec<f64> = ops.iter().map(|o| o.latency_us).collect();
        Window {
            position,
            work: ops.iter().map(|o| o.work).sum(),
            busy_s: ops.iter().map(|o| o.busy_s).sum(),
            p50_us: percentile(&lat, 50.0),
            p99_us: percentile(&lat, 99.0),
        }
    }

    fn throughput(&self) -> f64 {
        ratio(self.work, self.busy_s)
    }

    /// Throughput over all of `windows`, and the mean of their p50 and
    /// p99.
    fn combine(windows: &[Window]) -> Summary {
        let n = windows.len() as f64;
        let sum = |f: fn(&Window) -> f64| windows.iter().map(f).sum::<f64>();
        Summary {
            throughput: ratio(sum(|w| w.work), sum(|w| w.busy_s)),
            p50_us: ratio(sum(|w| w.p50_us), n),
            p99_us: ratio(sum(|w| w.p99_us), n),
        }
    }
}

/// What one measured phase of a workload produced. Ops are summarized
/// window by window as they complete, so the phase's memory does not grow
/// with the number of ops (it would show in `peak_rss_mib`).
#[derive(Debug, Clone)]
pub struct Phase {
    /// Checked outputs: packets, RPCs or flows.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Completed ops.
    pub ops: u64,
    /// Work the ops did in total.
    pub work: f64,
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    window: usize,
    positions: usize,
    /// Windows completed since the generation started.
    position: usize,
    open: Vec<Op>,
    windows: Vec<Window>,
}

impl Default for Phase {
    fn default() -> Phase {
        Phase::new(WINDOW, 1)
    }
}

impl Phase {
    /// An empty phase summarized in windows of `window` ops, `positions`
    /// windows to a generation.
    #[must_use]
    pub fn new(window: usize, positions: usize) -> Phase {
        Phase {
            attempted: 0,
            failed: 0,
            ops: 0,
            work: 0.0,
            wall_s: 0.0,
            window: window.max(1),
            positions: positions.max(1),
            position: 0,
            open: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Books one completed op: its latency, the work it did, and the time
    /// it adds to the throughput denominator.
    pub fn record(&mut self, latency_us: f64, work: f64, busy_s: f64) {
        self.ops += 1;
        self.work += work;
        self.open.push(Op {
            latency_us,
            work,
            busy_s,
        });
        if self.open.len() == self.window {
            let position = self.position % self.positions;
            self.windows.push(Window::of(&self.open, position));
            self.position += 1;
            self.open.clear();
        }
    }

    /// Starts a generation: an incomplete window of the one before is
    /// left out of the summary (its ops still count), and the next window
    /// is at position 0.
    pub fn start_generation(&mut self) {
        self.open.clear();
        self.position = 0;
    }

    /// Throughput, p50 and p99 of the phase's least disturbed windows
    /// (the ops so far when no window is complete): at each position in a
    /// generation, the [`KEEP`] share of its complete windows with the
    /// highest throughput. Throughput is their total work over their total
    /// busy time, p50 and p99 the mean of their own p50 and p99.
    ///
    /// The machine's speed moves between a fast and a slow level, up to
    /// 1.9× apart, every few seconds, and the share of slow time drifts
    /// over minutes. Interference only ever slows work down, so the
    /// fastest windows measure the program itself; a mean or a median over
    /// all windows would measure the share of slow time. Windows at
    /// different positions of a generation see different state sizes
    /// (`legacy_churn`), so each position is ranked on its own.
    #[must_use]
    pub fn summary(&self) -> Summary {
        if self.windows.is_empty() {
            return Window::combine(&[Window::of(&self.open, 0)]);
        }
        let mut kept = Vec::new();
        for position in 0..self.positions {
            let mut at: Vec<Window> = self
                .windows
                .iter()
                .filter(|w| w.position == position)
                .copied()
                .collect();
            at.sort_by(|a, b| b.throughput().total_cmp(&a.throughput()));
            let keep = ((at.len() as f64 * KEEP).round() as usize).max(1);
            kept.extend(at.into_iter().take(keep));
        }
        Window::combine(&kept)
    }
}

/// A workload's result: set-up times, the phases, per-layer metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every set-up the run timed, s.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub untraced: Phase,
    /// The traced phase and the per-layer metrics it gave.
    pub traced: Option<(Phase, Vec<(String, f64)>)>,
    /// `ring`, `loopback-udp` or `none`: what the traffic crossed.
    pub transport: &'static str,
    /// Peak resident set as the workload read it, MiB; `None` reads it
    /// when the run ends.
    pub peak_rss_mib: Option<f64>,
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// 32 random bytes.
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["transit", "legacy_bulk", "legacy_churn", "simnet_1k"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apna-perfbench: {e}");
            eprintln!(
                "usage: apna-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    let plan = Plan {
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "transit" => transit::run(args.seed, plan),
        "legacy_bulk" => legacy::run(legacy::Mode::Bulk, args.seed, plan),
        "legacy_churn" => legacy::run(legacy::Mode::Churn, args.seed, plan),
        _ => simnet::run(args.seed, plan),
    };
    let res = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apna-perfbench: {}: {e}", args.workload);
            return 1;
        }
    };
    let env = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"crypto_backend\": \"{}\", \"cores\": {}, \"transport\": \"{}\"}}",
        args.workload,
        args.seed,
        apna_bench::crypto_backend(),
        std::thread::available_parallelism().map_or(0, usize::from),
        res.transport,
    );
    println!("env {env}");

    let (order, values, attempted, failed) = match &res.traced {
        None => {
            let order: Vec<(String, &'static str)> = metrics::END_TO_END
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect();
            let values = end_to_end(&res);
            (order, values, res.untraced.attempted, res.untraced.failed)
        }
        Some((traced, layers)) => {
            let values = traced_values(&res.untraced, traced, layers);
            print_breakdown(traced);
            let header = format!("apna-perfbench spans {env}");
            let path =
                std::path::PathBuf::from(".bench_run").join(format!("spans-{}.tsv", args.workload));
            match trace::dump(&path, &header) {
                Ok(n) => println!("spans: {n} written to {}", path.display()),
                Err(e) => eprintln!("apna-perfbench: writing {}: {e}", path.display()),
            }
            (
                metrics::per_layer(),
                values,
                res.untraced.attempted + traced.attempted,
                res.untraced.failed + traced.failed,
            )
        }
    };
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &order, &values)
    );
    i32::from(!correct)
}

fn end_to_end(res: &RunResult) -> BTreeMap<String, f64> {
    let p = &res.untraced;
    let mut v = BTreeMap::new();
    v.insert("setup_s".to_string(), median(&res.setup_s));
    let rss = res.peak_rss_mib.unwrap_or_else(metrics::peak_rss_mib);
    v.insert("peak_rss_mib".to_string(), rss);
    let s = p.summary();
    v.insert("throughput_per_s".to_string(), s.throughput);
    v.insert("latency_p50_us".to_string(), s.p50_us);
    v.insert("latency_p99_us".to_string(), s.p99_us);
    println!(
        "untraced: {} ops, {} checked, {} failed, {:.3} s wall; set-ups {:?} s",
        p.ops, p.attempted, p.failed, p.wall_s, res.setup_s
    );
    v
}

/// Per-layer values plus the benchmark's own diagnostics.
fn traced_values(
    untraced: &Phase,
    traced: &Phase,
    layers: &[(String, f64)],
) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = layers.iter().cloned().collect();
    let ops = traced.ops as f64;
    let unattributed_us = traced.wall_s * 1e6 - trace::root_ns() as f64 / 1e3;
    v.insert(
        "bench.unattributed_us_per_op".to_string(),
        ratio(unattributed_us, ops),
    );
    let per_op = |p: &Phase| ratio(p.wall_s, p.ops as f64);
    v.insert(
        "bench.trace_overhead_pct".to_string(),
        (ratio(per_op(traced), per_op(untraced)) - 1.0) * 100.0,
    );
    v.insert(
        "error_rate".to_string(),
        ratio(
            (untraced.failed + traced.failed) as f64,
            (untraced.attempted + traced.attempted) as f64,
        ),
    );
    v
}

/// Prints the traced phase's time per op by span name: self times plus the
/// unattributed rest add up to the phase's wall time per op.
fn print_breakdown(traced: &Phase) {
    let ops = traced.ops.max(1) as f64;
    let wall_us = traced.wall_s * 1e6 / ops;
    println!("traced: {} ops, {:.3} µs wall per op", traced.ops, wall_us);
    let mut sum = 0.0;
    for (name, a) in trace::aggregates() {
        let us = a.self_ns as f64 / 1e3 / ops;
        sum += us;
        println!("  {name:<24} {us:>12.3} µs/op self ({} spans)", a.count);
    }
    let rest = wall_us - sum;
    println!("  {:<24} {rest:>12.3} µs/op", "unattributed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload transit --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("transit", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload transit --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload transit --seed 7 --seconds 1")).is_err());
    }

    #[test]
    fn summary_keeps_the_fastest_tenth() {
        // Twenty one-op windows, the n-th taking n s: the two fastest
        // are kept.
        let mut p = Phase::new(1, 1);
        for n in 1..=20 {
            p.record(f64::from(n) * 10.0, 1.0, f64::from(n));
        }
        let s = p.summary();
        assert!((s.throughput - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.p50_us - 15.0).abs() < 1e-9);
        assert!((s.p99_us - 15.0).abs() < 1e-9);
        // No complete window: the ops so far.
        let mut one = Phase::new(2, 1);
        one.record(5.0, 2.0, 0.5);
        assert_eq!(one.summary().throughput, 4.0);
    }

    #[test]
    fn summary_ranks_each_position_of_a_generation() {
        let mut p = Phase::new(1, 2);
        for busy in [[1.0, 10.0], [2.0, 5.0]] {
            p.start_generation();
            for b in busy {
                p.record(b, 1.0, b);
            }
        }
        // Position 0 keeps 1 s, position 1 keeps 5 s.
        assert!((p.summary().throughput - 2.0 / 6.0).abs() < 1e-9);
        // A generation's incomplete window is left out.
        let mut q = Phase::new(2, 1);
        q.record(1.0, 1.0, 100.0);
        q.start_generation();
        q.record(1.0, 1.0, 1.0);
        q.record(1.0, 1.0, 1.0);
        assert!((q.summary().throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(6, 1).next_u64());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }
}
