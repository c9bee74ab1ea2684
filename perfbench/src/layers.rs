//! Timed entry points into the layers: every call the workloads make into
//! `apna-io`, the border router and the control plane goes through here,
//! so each one opens a span (traced slices) carrying the items it handled,
//! and bumps the whole-run counters.
//!
//! Per-layer times divide traced self time by traced items; counts are
//! totals over the whole measured run.

use crate::trace;
use apna_core::border::{BorderRouter, Direction, DropCounters, Verdict};
use apna_core::control::{ControlMsg, ControlPlane};
use apna_core::deploy::CountingControlPlane;
use apna_core::time::Timestamp;
use apna_core::Error;
use apna_io::{IoCounters, IoError, PacketIo};
use apna_wire::{PacketBatch, ReplayMode};
use std::cell::RefCell;
use std::time::Instant;

/// Receive counts of one link (both of its endpoints).
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkCounts {
    /// `recv_burst` calls.
    pub recv_calls: u64,
    /// Frames `recv_burst` returned.
    pub received: u64,
}

/// Span names of one link: `io.<link>.{send,recv,poll}`.
#[derive(Debug, Clone, Copy)]
pub struct LinkNames {
    /// Span name of `send_burst`.
    pub send: &'static str,
    /// Span name of `recv_burst`.
    pub recv: &'static str,
    /// Span name of a zero-timeout `poll`.
    pub poll: &'static str,
}

/// Span names of the `ring` link (transit).
pub const RING: LinkNames = LinkNames {
    send: "io.ring.send",
    recv: "io.ring.recv",
    poll: "io.ring.poll",
};
/// Span names of the `legacy` link (legacy endpoint ↔ gateway).
pub const LEGACY: LinkNames = LinkNames {
    send: "io.legacy.send",
    recv: "io.legacy.recv",
    poll: "io.legacy.poll",
};
/// Span names of the `apna` link (gateway ↔ border).
pub const APNA: LinkNames = LinkNames {
    send: "io.apna.send",
    recv: "io.apna.recv",
    poll: "io.apna.poll",
};

/// One `PacketIo` endpoint with timed burst calls.
pub struct TimedIo<T: PacketIo> {
    /// The backend.
    pub io: T,
    names: LinkNames,
    /// Counts of this endpoint's calls.
    pub counts: LinkCounts,
}

impl<T: PacketIo> TimedIo<T> {
    /// Wraps `io`, attributing its calls to the link named by `names`.
    pub fn new(io: T, names: LinkNames) -> TimedIo<T> {
        TimedIo {
            io,
            names,
            counts: LinkCounts::default(),
        }
    }

    /// `PacketIo::send_burst`, timed.
    pub fn send(&mut self, frames: &[Vec<u8>], req: u64) -> Result<usize, IoError> {
        if frames.is_empty() {
            return Ok(0);
        }
        let s = trace::span(self.names.send, req);
        let n = self.io.send_burst(frames)?;
        s.items(n as u64);
        Ok(n)
    }

    /// `PacketIo::recv_burst`, timed.
    pub fn recv(&mut self, max: usize, req: u64) -> Result<Vec<Vec<u8>>, IoError> {
        let s = trace::span(self.names.recv, req);
        let frames = self.io.recv_burst(max)?;
        s.items(frames.len() as u64);
        self.counts.recv_calls += 1;
        self.counts.received += frames.len() as u64;
        Ok(frames)
    }

    /// `PacketIo::poll` with a zero timeout, timed.
    pub fn ready(&mut self, req: u64) -> Result<bool, IoError> {
        let _s = trace::span(self.names.poll, req);
        self.io.poll(std::time::Duration::ZERO)
    }
}

/// Sums two endpoints' counts and backend counters into one link.
#[must_use]
pub fn link_totals(parts: &[(LinkCounts, IoCounters)]) -> (LinkCounts, IoCounters) {
    let mut c = LinkCounts::default();
    let mut io = IoCounters::default();
    for (lc, ic) in parts {
        c.recv_calls += lc.recv_calls;
        c.received += lc.received;
        io.rx_rejected += ic.rx_rejected;
        io.tx_rejected += ic.tx_rejected;
    }
    (c, io)
}

/// Per-layer metrics of one link.
pub fn link_metrics(
    link: &str,
    names: LinkNames,
    c: LinkCounts,
    io: IoCounters,
) -> Vec<(String, f64)> {
    use crate::metrics::ratio;
    let send = trace::agg(names.send);
    let recv = trace::agg(names.recv);
    vec![
        (
            format!("io.{link}.send_us_per_frame"),
            ratio(send.self_ns as f64 / 1e3, send.items as f64),
        ),
        (
            format!("io.{link}.recv_us_per_frame"),
            ratio(recv.self_ns as f64 / 1e3, recv.items as f64),
        ),
        (
            format!("io.{link}.frames_per_recv"),
            ratio(c.received as f64, c.recv_calls as f64),
        ),
        (format!("io.{link}.rx_rejected"), io.rx_rejected as f64),
        (format!("io.{link}.tx_rejected"), io.tx_rejected as f64),
    ]
}

/// Border-router call counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct BorderCounts {
    /// `process_batch` calls.
    pub calls: u64,
    /// Packets through either direction.
    pub pkts: u64,
    /// Packets with a passing verdict, both directions.
    pub passed: u64,
    /// Drop tallies, both directions.
    pub drops: DropCounters,
}

impl BorderCounts {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &BorderCounts) {
        self.calls += other.calls;
        self.pkts += other.pkts;
        self.passed += other.passed;
        self.drops.merge(&other.drops);
    }
}

/// `BorderRouter::process_batch` over `frames`, timed as
/// `border.egress` / `border.ingress`. Returns each frame with its verdict.
pub fn border_batch(
    router: &BorderRouter,
    direction: Direction,
    mode: ReplayMode,
    frames: Vec<Vec<u8>>,
    now: Timestamp,
    counts: &mut BorderCounts,
    req: u64,
) -> Vec<(Vec<u8>, Verdict)> {
    if frames.is_empty() {
        return Vec::new();
    }
    let n = frames.len() as u64;
    let mut batch = PacketBatch::from_packets(mode, frames);
    let verdicts = {
        let s = trace::span(
            match direction {
                Direction::Egress => "border.egress",
                Direction::Ingress => "border.ingress",
            },
            req,
        );
        let v = router.process_batch(direction, &mut batch, now);
        s.items(n);
        v
    };
    counts.calls += 1;
    counts.pkts += n;
    counts.passed += verdicts.passed();
    counts.drops.merge(verdicts.counters());
    batch
        .into_packets()
        .into_iter()
        .zip(verdicts.into_verdicts())
        .collect()
}

/// Per-layer border metrics.
pub fn border_metrics(c: &BorderCounts, replay_entries: usize) -> Vec<(String, f64)> {
    use crate::metrics::{ratio, DROP_NAMES};
    use apna_core::border::DropReason;
    let egress = trace::agg("border.egress");
    let ingress = trace::agg("border.ingress");
    let mut m = vec![
        (
            "border.egress.us_per_pkt".to_string(),
            ratio(egress.self_ns as f64 / 1e3, egress.items as f64),
        ),
        (
            "border.ingress.us_per_pkt".to_string(),
            ratio(ingress.self_ns as f64 / 1e3, ingress.items as f64),
        ),
        (
            "border.pkts_per_call".to_string(),
            ratio(c.pkts as f64, c.calls as f64),
        ),
        (
            "border.pass_ratio".to_string(),
            ratio(c.passed as f64, c.pkts as f64),
        ),
        ("border.replay_entries".to_string(), replay_entries as f64),
    ];
    for (reason, name) in DropReason::ALL.iter().zip(DROP_NAMES) {
        m.push((format!("border.drop.{name}"), c.drops.count(*reason) as f64));
    }
    m
}

/// Control-plane call tallies kept by [`TimedControlPlane`].
#[derive(Debug, Default, Clone)]
pub struct ControlTally {
    /// Calls (a batched call counts once).
    pub calls: u64,
    /// Calls (or batch entries) that returned an error.
    pub errors: u64,
    /// Per-call latency in µs, traced run only.
    pub latencies_us: Vec<f64>,
}

impl ControlTally {
    /// Adds `other`'s calls, errors and latencies to these.
    pub fn merge(&mut self, other: ControlTally) {
        self.calls += other.calls;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// A timing wrapper around the daemons' [`CountingControlPlane`]: each
/// call is one `control.call` span, nested inside the gateway call that
/// made it.
pub struct TimedControlPlane<'a> {
    /// The wrapped counting plane (its per-kind tallies are the
    /// `control.kind.*` metrics).
    pub counting: CountingControlPlane<'a>,
    tally: RefCell<ControlTally>,
}

impl<'a> TimedControlPlane<'a> {
    /// Wraps `inner` in a counting plane and times every call.
    pub fn new(inner: &'a dyn ControlPlane) -> TimedControlPlane<'a> {
        TimedControlPlane {
            counting: CountingControlPlane::new(inner),
            tally: RefCell::new(ControlTally::default()),
        }
    }

    /// The tallies so far.
    #[must_use]
    pub fn tally(&self) -> ControlTally {
        self.tally.borrow().clone()
    }

    /// Zeroes the tallies (the per-kind counts of the wrapped plane are
    /// cumulative; callers difference them).
    pub fn reset(&self) {
        *self.tally.borrow_mut() = ControlTally::default();
    }

    fn finish(&self, started: Option<Instant>, errors: u64) {
        let mut t = self.tally.borrow_mut();
        t.calls += 1;
        t.errors += errors;
        if let Some(s) = started {
            t.latencies_us.push(s.elapsed().as_secs_f64() * 1e6);
        }
    }
}

impl ControlPlane for TimedControlPlane<'_> {
    fn handle_control(
        &self,
        msg: &ControlMsg,
        now: Timestamp,
    ) -> Result<Option<ControlMsg>, Error> {
        let span = trace::nested("control.call");
        let started = span_clock(&span);
        let out = self.counting.handle_control(msg, now);
        drop(span);
        self.finish(started, u64::from(out.is_err()));
        out
    }

    fn handle_control_batch(
        &self,
        frames: &[&[u8]],
        now: Timestamp,
    ) -> Vec<Result<Option<Vec<u8>>, Error>> {
        let span = trace::nested("control.call");
        let started = span_clock(&span);
        let out = self.counting.handle_control_batch(frames, now);
        drop(span);
        self.finish(started, out.iter().filter(|r| r.is_err()).count() as u64);
        out
    }
}

/// A clock read for per-call latency, taken only while tracing.
fn span_clock(span: &trace::Span) -> Option<Instant> {
    span.is_active().then(Instant::now)
}

/// Per-layer control metrics from the call tallies `t` and the messages
/// handled per kind.
pub fn control_metrics(
    t: &ControlTally,
    kind_count: impl Fn(apna_core::control::ControlKind) -> u64,
) -> Vec<(String, f64)> {
    use crate::metrics::{percentile, ratio};
    let span = trace::agg("control.call");
    let mut m = vec![
        ("control.calls".to_string(), t.calls as f64),
        (
            "control.us_per_call".to_string(),
            ratio(span.total_ns as f64 / 1e3, span.count as f64),
        ),
        (
            "control.p99_us".to_string(),
            percentile(&t.latencies_us, 99.0),
        ),
        ("control.errors".to_string(), t.errors as f64),
    ];
    for kind in apna_core::control::ControlKind::ALL {
        m.push((
            format!("control.kind.{}", kind.name()),
            kind_count(kind) as f64,
        ));
    }
    m
}
