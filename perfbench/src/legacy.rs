//! `legacy_bulk` and `legacy_churn`: legacy request/response traffic
//! through the gateway pair and the border, over loopback UDP.
//!
//! One thread plays both daemons, call for call: each loop round runs the
//! `apna-gateway` run-loop body (`poll`, `pump` → `handle_apna` /
//! `handle_legacy` → `dispatch`, `refresh_expiring`, `maybe_snapshot`)
//! and the `apna-border` one (`poll`, `recv_burst`, `handle_burst`:
//! egress → same-AS hairpin → ingress → `send_burst`). As with the two
//! daemons, gateway and border each build the AS from the same seed, the
//! border mirrors the gateway's two host bootstraps, and the gateway's AS
//! keeps a file-backed `ctrl_log`. Two UDP links on 127.0.0.1 connect
//! them: legacy endpoint ↔ gateway (`legacy`) and gateway ↔ border
//! (`apna`, GRE-in-UDP on the border side).
//!
//! The legacy endpoint is the benchmark: [`CLIENTS`] closed-loop clients
//! and the echo server behind the gateway's synthesized service address.
//! `legacy_bulk` clients reuse one long-lived flow each (established
//! during set-up) with [`BULK_PAYLOAD`]-byte requests; `legacy_churn`
//! clients open a new 5-tuple for every [`CHURN_PAYLOAD`]-byte request,
//! so each RPC is a whole flow: two EphID issuances, a handshake, the
//! request and the response. Every request must reach the server and
//! every response the client byte-for-byte.
//!
//! A run is a series of generations, each a fixed number of requests
//! (see [`generation`]) served by freshly built daemons. Each
//! generation's set-up is timed as a `setup_s` sample, outside the run's
//! clock, so the samples are spread over the run. The gateway never
//! forgets a flow or an owned EphID, so under churn its state, and the
//! cost of each new flow, grow with every flow opened; in a run of fixed
//! length they would end at a size set by how fast the machine happened
//! to be. In generations every run's figures describe the same growth
//! from zero to [`CHURN_GENERATION`] flows, each summary window
//! ([`CHURN_WINDOW`] flows) the same stretch of it.

use crate::layers::{
    self, BorderCounts, ControlTally, LinkCounts, TimedControlPlane, TimedIo, APNA, LEGACY,
};
use crate::metrics::ratio;
use crate::{trace, Phase, Plan, Rng, RunResult, Runner, WINDOW};
use apna::daemon::DaemonClock;
use apna_core::asnode::AsNode;
use apna_core::border::{BorderRouter, Direction, Verdict};
use apna_core::control::ControlKind;
use apna_core::ctrl_log;
use apna_core::directory::AsDirectory;
use apna_core::host::Host;
use apna_core::time::Timestamp;
use apna_gateway::daemon::{PairConfig, TranslatorPair};
use apna_gateway::legacy::LegacyPacket;
use apna_gateway::translator::GatewayOutput;
use apna_io::{IoCounters, PacketIo, UdpBackend, UdpFraming};
use apna_wire::ipv4::Ipv4Addr;
use apna_wire::{Aid, EncapTunnel};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which legacy workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Long-lived flows, large payloads: session AEAD and UDP syscalls.
    Bulk,
    /// A new flow per request: issuance, handshakes, flow-table inserts.
    Churn,
}

/// Concurrent closed-loop clients: one daemon burst.
pub const CLIENTS: usize = 32;
/// Frames per `recv_burst`, the daemons' default.
pub const BURST: usize = 32;
/// Request payload bytes of `legacy_bulk`.
pub const BULK_PAYLOAD: usize = 1200;
/// Request payload bytes of `legacy_churn`.
pub const CHURN_PAYLOAD: usize = 100;
/// Flows of one `legacy_churn` generation, after which fresh daemons
/// replace the ones that served it.
pub const CHURN_GENERATION: u64 = 2048;
/// Flows per `legacy_churn` summary window: a window's p99 has ten flows
/// beyond it, and a generation is two windows.
pub const CHURN_WINDOW: usize = 1024;
/// RPCs of one `legacy_bulk` generation: 32 windows, a few seconds in
/// all, over the same [`CLIENTS`] long-lived flows.
pub const BULK_GENERATION: u64 = 32 * WINDOW as u64;
/// The daemons' default `snapshot_every`.
const SNAPSHOT_EVERY: u64 = 1024;
const SERVICE_PORT: u16 = 7777;
const AID: Aid = Aid(7);
/// How long a phase may wait for its last responses.
const DRAIN: Duration = Duration::from_secs(3);

/// One outstanding RPC.
struct Pending {
    client: usize,
    sent_at: Instant,
    payload: Vec<u8>,
    /// Set once the server has echoed it.
    served: bool,
}

/// True iff `got` is the echo of a request from `src:port` carrying
/// `sent`: addressed back to the client from the service, same bytes.
#[must_use]
pub fn echo_ok(got: &LegacyPacket, service: Ipv4Addr, src: (Ipv4Addr, u16), sent: &[u8]) -> bool {
    got.tuple.src == service
        && got.tuple.src_port == SERVICE_PORT
        && (got.tuple.dst, got.tuple.dst_port) == src
        && got.payload == sent
}

/// The benchmark's side of the legacy link: clients and the echo server.
struct Endpoint {
    mode: Mode,
    io: TimedIo<UdpBackend>,
    service: Ipv4Addr,
    rng: Rng,
    idle: Vec<bool>,
    /// Requests sent so far.
    sent: u64,
    /// Requests to send before the endpoint is finished.
    limit: u64,
    pending: HashMap<(Ipv4Addr, u16), Pending>,
    /// When the last RPC completed.
    last_done: Instant,
    /// Fault injection for the endpoint's own tests: the server flips a
    /// byte of every echo.
    corrupt_echo: bool,
}

impl Endpoint {
    /// The 5-tuple source of client `c`'s next request.
    fn source(&mut self, c: usize) -> (Ipv4Addr, u16) {
        let port = 40_000 + c as u16;
        match self.mode {
            Mode::Bulk => (Ipv4Addr::new(10, 1, 0, 1), port),
            Mode::Churn => {
                let n = self.sent;
                let ip = Ipv4Addr::new(10, 64 | ((n >> 16) & 0x3f) as u8, (n >> 8) as u8, n as u8);
                (ip, port)
            }
        }
    }

    /// Whether every request the endpoint may send has been sent and has
    /// completed.
    fn finished(&self) -> bool {
        self.sent >= self.limit && self.pending.is_empty()
    }

    /// Idle clients send their next request. Returns how many were sent.
    fn issue(&mut self, req: u64, p: &mut Phase) -> Result<usize, String> {
        let mut datagrams = Vec::new();
        let mut keys = Vec::new();
        {
            let s = trace::span("bench.client", req);
            let len = match self.mode {
                Mode::Bulk => BULK_PAYLOAD,
                Mode::Churn => CHURN_PAYLOAD,
            };
            for c in 0..CLIENTS {
                if !self.idle[c] || self.sent >= self.limit {
                    continue;
                }
                let src = self.source(c);
                self.sent += 1;
                let mut payload = Vec::with_capacity(len);
                while payload.len() < len {
                    payload.extend_from_slice(&self.rng.next_u64().to_le_bytes());
                }
                payload.truncate(len);
                let pkt = LegacyPacket::udp(src.0, src.1, self.service, SERVICE_PORT, &payload);
                datagrams.push(pkt.serialize());
                keys.push((src, c, payload));
            }
            s.items(datagrams.len() as u64);
        }
        let sent_at = Instant::now();
        let n = self
            .io
            .send(&datagrams, req)
            .map_err(|e| format!("legacy send: {e}"))?;
        if n != datagrams.len() {
            return Err(format!(
                "legacy endpoint sent {n} of {} requests",
                datagrams.len()
            ));
        }
        for (src, client, payload) in keys {
            self.idle[client] = false;
            self.pending.insert(
                src,
                Pending {
                    client,
                    sent_at,
                    payload,
                    served: false,
                },
            );
        }
        p.attempted += n as u64;
        Ok(n)
    }

    /// Receives a burst: requests are checked and echoed by the server,
    /// responses are checked and complete their RPC.
    fn receive(&mut self, req: u64, p: &mut Phase) -> Result<(), String> {
        let frames = self
            .io
            .recv(BURST, req)
            .map_err(|e| format!("legacy recv: {e}"))?;
        if frames.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let mut echoes = Vec::new();
        {
            let _s = trace::span("bench.server", req);
            for datagram in frames {
                let Ok(pkt) = LegacyPacket::parse(&datagram) else {
                    p.failed += 1;
                    continue;
                };
                if pkt.tuple.dst == self.service {
                    // Server side: the request must be the one sent.
                    let src = (pkt.tuple.src, pkt.tuple.src_port);
                    let fresh = self.pending.get_mut(&src).filter(|r| {
                        !r.served && pkt.tuple.dst_port == SERVICE_PORT && pkt.payload == r.payload
                    });
                    let Some(rpc) = fresh else {
                        p.failed += 1;
                        continue;
                    };
                    rpc.served = true;
                    let mut body = pkt.payload;
                    if self.corrupt_echo {
                        body[0] ^= 0xFF;
                    }
                    let echo = LegacyPacket::udp(self.service, SERVICE_PORT, src.0, src.1, &body);
                    echoes.push(echo.serialize());
                } else {
                    // Client side: the response must echo the request.
                    let dst = (pkt.tuple.dst, pkt.tuple.dst_port);
                    let Some(rpc) = self.pending.remove(&dst) else {
                        p.failed += 1;
                        continue;
                    };
                    self.idle[rpc.client] = true;
                    if echo_ok(&pkt, self.service, dst, &rpc.payload) {
                        // Throughput counts each RPC's time since the one
                        // before it completed.
                        let gap = now.duration_since(self.last_done).as_secs_f64();
                        self.last_done = now;
                        let rtt = now.duration_since(rpc.sent_at).as_secs_f64();
                        p.record(rtt * 1e6, 1.0, gap);
                    } else {
                        p.failed += 1;
                    }
                }
            }
        }
        let n = self
            .io
            .send(&echoes, req)
            .map_err(|e| format!("echo send: {e}"))?;
        if n != echoes.len() {
            return Err(format!(
                "echo server sent {n} of {} responses",
                echoes.len()
            ));
        }
        Ok(())
    }
}

/// Gateway-side tallies (the daemon's `Totals` plus call counts).
#[derive(Debug, Default, Clone, Copy)]
struct GwCounts {
    calls: u64,
    translate_errors: u64,
    legacy_parse_errors: u64,
    refresh_errors: u64,
    snapshot_errors: u64,
    rotated: u64,
    /// Border verdicts this deployment can never produce (foreign AS,
    /// control traffic: the gateway's control plane is in-process).
    unexpected: u64,
}

impl GwCounts {
    fn merge(&mut self, o: &GwCounts) {
        self.calls += o.calls;
        self.translate_errors += o.translate_errors;
        self.legacy_parse_errors += o.legacy_parse_errors;
        self.refresh_errors += o.refresh_errors;
        self.snapshot_errors += o.snapshot_errors;
        self.rotated += o.rotated;
        self.unexpected += o.unexpected;
    }
}

/// Both daemons' state.
struct Daemons<'a> {
    pair: TranslatorPair,
    cp: &'a TimedControlPlane<'a>,
    gw_node: &'a AsNode,
    border_node: &'a AsNode,
    router: BorderRouter,
    mode: apna_wire::ReplayMode,
    gw_apna: TimedIo<UdpBackend>,
    gw_legacy: TimedIo<UdpBackend>,
    border_io: TimedIo<UdpBackend>,
    clock: DaemonClock,
    border: BorderCounts,
    gw: GwCounts,
    rounds: u64,
}

impl Daemons<'_> {
    /// One run-loop body of each daemon.
    fn round(&mut self) -> Result<(), String> {
        let req = self.rounds;
        self.rounds += 1;
        self.gateway_iteration(req)?;
        self.border_iteration(req)
    }

    fn gateway_iteration(&mut self, req: u64) -> Result<(), String> {
        self.gw_apna.ready(req).map_err(|e| format!("poll: {e}"))?;
        self.pump(req)?;
        let now = self.clock.now();
        {
            let _s = trace::span("gateway.refresh", req);
            match self.pair.refresh_expiring(self.cp, now) {
                Ok(n) => self.gw.rotated += n as u64,
                Err(_) => self.gw.refresh_errors += 1,
            }
        }
        let _s = trace::span("ctrl_log.snapshot", req);
        if ctrl_log::maybe_snapshot(&self.gw_node.infra, SNAPSHOT_EVERY).is_err() {
            self.gw.snapshot_errors += 1;
        }
        Ok(())
    }

    /// The gateway daemon's `pump`: APNA side first, then legacy.
    fn pump(&mut self, req: u64) -> Result<(), String> {
        let now = self.clock.now();
        let frames = self
            .gw_apna
            .recv(BURST, req)
            .map_err(|e| format!("APNA recv: {e}"))?;
        for frame in frames {
            let out = {
                let _s = trace::span("gateway.apna", req);
                self.pair.handle_apna(&frame, self.cp, now)
            };
            self.gw.calls += 1;
            match out {
                Ok(out) => self.dispatch(out, req)?,
                Err(_) => self.gw.translate_errors += 1,
            }
        }
        let datagrams = self
            .gw_legacy
            .recv(BURST, req)
            .map_err(|e| format!("legacy recv: {e}"))?;
        for datagram in datagrams {
            let Ok(pkt) = LegacyPacket::parse(&datagram) else {
                self.gw.legacy_parse_errors += 1;
                continue;
            };
            let out = {
                let _s = trace::span("gateway.legacy", req);
                self.pair.handle_legacy(&pkt, self.cp, now)
            };
            self.gw.calls += 1;
            match out {
                Ok(out) => self.dispatch(out, req)?,
                Err(_) => self.gw.translate_errors += 1,
            }
        }
        Ok(())
    }

    /// The gateway daemon's `dispatch`.
    fn dispatch(&mut self, out: GatewayOutput, req: u64) -> Result<(), String> {
        self.gw_apna
            .send(&out.frames, req)
            .map_err(|e| format!("APNA send: {e}"))?;
        let datagrams: Vec<Vec<u8>> = out.legacy.iter().map(LegacyPacket::serialize).collect();
        self.gw_legacy
            .send(&datagrams, req)
            .map_err(|e| format!("legacy send: {e}"))?;
        Ok(())
    }

    fn border_iteration(&mut self, req: u64) -> Result<(), String> {
        if ctrl_log::maybe_snapshot(&self.border_node.infra, SNAPSHOT_EVERY).is_err() {
            self.gw.snapshot_errors += 1;
        }
        if !self
            .border_io
            .ready(req)
            .map_err(|e| format!("border poll: {e}"))?
        {
            return Ok(());
        }
        let frames = self
            .border_io
            .recv(BURST, req)
            .map_err(|e| format!("border recv: {e}"))?;
        self.handle_burst(frames, req)
    }

    /// The border daemon's `handle_burst` (one shard).
    fn handle_burst(&mut self, frames: Vec<Vec<u8>>, req: u64) -> Result<(), String> {
        if frames.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let egress = layers::border_batch(
            &self.router,
            Direction::Egress,
            self.mode,
            frames,
            now,
            &mut self.border,
            req,
        );
        let mut local = Vec::new();
        for (frame, verdict) in egress {
            if let Verdict::ForwardInter { dst_aid } = verdict {
                if dst_aid == AID {
                    local.push(frame);
                } else {
                    self.gw.unexpected += 1;
                }
            }
        }
        let ingress = layers::border_batch(
            &self.router,
            Direction::Ingress,
            self.mode,
            local,
            now,
            &mut self.border,
            req,
        );
        let mut deliver = Vec::new();
        for (frame, verdict) in ingress {
            if let Verdict::DeliverLocal { hid } = verdict {
                if self.border_node.service_by_hid(hid).is_some() {
                    self.gw.unexpected += 1;
                } else {
                    deliver.push(frame);
                }
            }
        }
        self.border_io
            .send(&deliver, req)
            .map_err(|e| format!("border send: {e}"))?;
        Ok(())
    }
}

/// Runs loop rounds, with idle clients sending, until the endpoint is
/// finished or the run's time is up, then drains outstanding RPCs for up
/// to [`DRAIN`]. RPCs still outstanding after the drain count as failed.
/// The run's clock runs only in here. Returns whether the time is up.
fn measure(d: &mut Daemons<'_>, ep: &mut Endpoint, run: &mut Runner) -> Result<bool, String> {
    run.start_generation();
    run.resume();
    ep.last_done = Instant::now();
    let mut more = true;
    while !ep.finished() {
        more = run.more();
        if !more {
            break;
        }
        ep.issue(d.rounds, run.phase())?;
        d.round()?;
        ep.receive(d.rounds, run.phase())?;
    }
    drain(d, ep, run.phase())?;
    run.pause();
    Ok(!more)
}

/// Runs rounds without new requests until every RPC has completed or
/// [`DRAIN`] has passed; what is left counts as failed.
fn drain(d: &mut Daemons<'_>, ep: &mut Endpoint, p: &mut Phase) -> Result<(), String> {
    let start = Instant::now();
    while !ep.pending.is_empty() && start.elapsed() < DRAIN {
        d.round()?;
        ep.receive(d.rounds, p)?;
    }
    p.failed += ep.pending.len() as u64;
    for (_, rpc) in ep.pending.drain() {
        ep.idle[rpc.client] = true;
    }
    Ok(())
}

/// Directory for the run's control logs, inside the working directory.
fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

fn bind(peer: SocketAddr, framing: UdpFraming) -> Result<UdpBackend, String> {
    let any: SocketAddr = "127.0.0.1:0".parse().map_err(|e| format!("{e}"))?;
    UdpBackend::bind(any, peer, framing).map_err(|e| format!("bind: {e}"))
}

fn local(io: &UdpBackend) -> Result<SocketAddr, String> {
    io.local_addr().map_err(|e| format!("local_addr: {e}"))
}

fn remove_log(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ctrl_log::snapshot_path(path));
}

/// What a measured session shares with its run.
struct Measured<'r> {
    /// The run's clock and phases.
    run: &'r mut Runner,
    /// Per-layer tallies summed over the run's sessions.
    totals: &'r mut Totals,
    /// Requests the session sends.
    generation: u64,
}

/// Builds both daemons and the endpoint, times the set-up into `res`,
/// then measures until the endpoint is finished or the run's time is up.
/// Returns whether the time is up. `tag` makes the control-log file name
/// unique within the process.
fn session(
    mode: Mode,
    seed: u64,
    measured: Measured<'_>,
    tag: usize,
    res: &mut RunResult,
    corrupt_echo: bool,
) -> Result<bool, String> {
    let log_path = run_dir().join(format!("ctrl-{}-{tag}.log", std::process::id()));
    std::fs::create_dir_all(run_dir()).map_err(|e| format!("{}: {e}", run_dir().display()))?;
    remove_log(&log_path);
    let out = session_at(mode, seed, measured, &log_path, res, corrupt_echo);
    remove_log(&log_path);
    out
}

fn session_at(
    mode: Mode,
    seed: u64,
    m: Measured<'_>,
    log_path: &Path,
    res: &mut RunResult,
    corrupt_echo: bool,
) -> Result<bool, String> {
    let t = Instant::now();
    let mut rng = Rng::new(seed, 2);
    let as_seed = rng.bytes32();
    let gw_dir = AsDirectory::new();
    let gw_node = AsNode::from_seed(AID, as_seed, &gw_dir, Timestamp::EPOCH);
    let border_dir = AsDirectory::new();
    let border_node = AsNode::from_seed(AID, as_seed, &border_dir, Timestamp::EPOCH);
    let pair_cfg = PairConfig::new(rng.next_u64(), rng.next_u64());
    for host_seed in TranslatorPair::host_seeds(&pair_cfg) {
        Host::attach(
            &border_node,
            pair_cfg.replay_mode,
            Timestamp::EPOCH,
            host_seed,
        )
        .map_err(|e| format!("border host mirror: {e:?}"))?;
    }
    let cp = TimedControlPlane::new(&gw_node);
    let pair = TranslatorPair::bootstrap(&gw_node, &cp, &gw_dir, &pair_cfg, Timestamp::EPOCH)
        .map_err(|e| format!("translator bootstrap: {e:?}"))?;
    ctrl_log::attach_file(&gw_node.infra, log_path)?;

    let placeholder: SocketAddr = "127.0.0.1:9".parse().map_err(|e| format!("{e}"))?;
    let mut ep_io = bind(placeholder, UdpFraming::Raw)?;
    let gw_legacy = bind(local(&ep_io)?, UdpFraming::Raw)?;
    ep_io.set_peer(local(&gw_legacy)?);
    let mut gw_apna = bind(placeholder, UdpFraming::Raw)?;
    let tunnel = EncapTunnel::new(pair_cfg.router_ip, pair_cfg.gateway_ip);
    let border_io = bind(local(&gw_apna)?, UdpFraming::Tunnel(tunnel))?;
    gw_apna.set_peer(local(&border_io)?);

    let service = pair.synth_ip;
    let mut d = Daemons {
        pair,
        cp: &cp,
        gw_node: &gw_node,
        border_node: &border_node,
        router: border_node.br.clone(),
        mode: pair_cfg.replay_mode,
        gw_apna: TimedIo::new(gw_apna, APNA),
        gw_legacy: TimedIo::new(gw_legacy, LEGACY),
        border_io: TimedIo::new(border_io, APNA),
        clock: DaemonClock::start(),
        border: BorderCounts::default(),
        gw: GwCounts::default(),
        rounds: 0,
    };
    let mut ep = Endpoint {
        mode,
        io: TimedIo::new(ep_io, LEGACY),
        service,
        rng,
        idle: vec![true; CLIENTS],
        sent: 0,
        limit: u64::MAX,
        pending: HashMap::new(),
        last_done: Instant::now(),
        corrupt_echo,
    };
    if mode == Mode::Bulk {
        // Establish every client's long-lived flow before timing.
        let mut warm = Phase::new(WINDOW, 1);
        ep.issue(d.rounds, &mut warm)?;
        drain(&mut d, &mut ep, &mut warm)?;
        if warm.failed > 0 || warm.ops < CLIENTS as u64 {
            return Err(format!(
                "flow set-up: {} of {CLIENTS} flows established, {} failed",
                warm.ops, warm.failed
            ));
        }
    }
    res.setup_s.push(t.elapsed().as_secs_f64());
    ep.limit = ep.sent + m.generation;

    d.border = BorderCounts::default();
    d.gw = GwCounts::default();
    d.cp.reset();
    for io in [
        &mut d.gw_apna,
        &mut d.gw_legacy,
        &mut d.border_io,
        &mut ep.io,
    ] {
        io.counts = Default::default();
    }
    let before = Snapshot::take(&d);
    let time_up = measure(&mut d, &mut ep, m.run)?;
    m.totals.fold(&d, &ep, &before);
    Ok(time_up)
}

/// The program's own cumulative counters when the measured session
/// started (set-up issues EphIDs too).
struct Snapshot {
    kinds: apna_core::control::ControlCounters,
    log: ctrl_log::LogStats,
}

impl Snapshot {
    fn take(d: &Daemons<'_>) -> Snapshot {
        Snapshot {
            kinds: d.cp.counting.counters(),
            log: d.gw_node.infra.ctrl_log.stats().unwrap_or_default(),
        }
    }
}

/// Per-layer tallies summed over a run's measured sessions.
#[derive(Default)]
struct Totals {
    border: BorderCounts,
    gw: GwCounts,
    control: ControlTally,
    kinds: [u64; ControlKind::ALL.len()],
    log_appends: u64,
    log_io_errors: u64,
    /// Each endpoint's counts and backend counters, per link.
    legacy: Vec<(LinkCounts, IoCounters)>,
    apna: Vec<(LinkCounts, IoCounters)>,
    /// The largest table sizes a session ended with.
    flows: usize,
    ephids: usize,
    replay_entries: usize,
    /// Failures that belong to no single RPC: control-log I/O errors,
    /// border verdicts this deployment cannot produce, gateway
    /// housekeeping errors.
    health_failures: u64,
}

impl Totals {
    /// Adds a measured session's tallies; `before` is the snapshot taken
    /// when its measurement started.
    fn fold(&mut self, d: &Daemons<'_>, ep: &Endpoint, before: &Snapshot) {
        self.border.merge(&d.border);
        self.gw.merge(&d.gw);
        self.control.merge(d.cp.tally());
        let kinds = d.cp.counting.counters();
        for kind in ControlKind::ALL {
            self.kinds[kind.index()] += kinds.count(kind) - before.kinds.count(kind);
        }
        let log = d.gw_node.infra.ctrl_log.stats().unwrap_or_default();
        self.log_appends += log.appended_records - before.log.appended_records;
        self.log_io_errors += log.io_errors;
        self.legacy.push((ep.io.counts, ep.io.io.counters()));
        self.legacy
            .push((d.gw_legacy.counts, d.gw_legacy.io.counters()));
        self.apna.push((d.gw_apna.counts, d.gw_apna.io.counters()));
        self.apna
            .push((d.border_io.counts, d.border_io.io.counters()));
        self.flows = self.flows.max(d.pair.flow_count());
        self.ephids = self.ephids.max(d.pair.ephid_count());
        self.replay_entries = self.replay_entries.max(d.router.replay_filter_entries());
        self.health_failures += log.io_errors
            + d.gw.unexpected
            + d.gw.legacy_parse_errors
            + d.gw.refresh_errors
            + d.gw.snapshot_errors;
    }

    fn layer_metrics(&self) -> Vec<(String, f64)> {
        let mut m = layers::border_metrics(&self.border, self.replay_entries);
        let gw = |name: &str| {
            let a = trace::agg(name);
            ratio(a.self_ns as f64 / 1e3, a.count as f64)
        };
        m.extend([
            (
                "gateway.legacy.self_us_per_call".to_string(),
                gw("gateway.legacy"),
            ),
            (
                "gateway.apna.self_us_per_call".to_string(),
                gw("gateway.apna"),
            ),
            ("gateway.calls".to_string(), self.gw.calls as f64),
            (
                "gateway.errors".to_string(),
                (self.gw.translate_errors + self.gw.refresh_errors) as f64,
            ),
            ("gateway.flows".to_string(), self.flows as f64),
            ("gateway.ephids".to_string(), self.ephids as f64),
        ]);
        m.extend(layers::control_metrics(&self.control, |kind| {
            self.kinds[kind.index()]
        }));
        m.push(("ctrl_log.appends".to_string(), self.log_appends as f64));
        m.push(("ctrl_log.io_errors".to_string(), self.log_io_errors as f64));
        let legacy = layers::link_totals(&self.legacy);
        m.extend(layers::link_metrics("legacy", LEGACY, legacy.0, legacy.1));
        let apna = layers::link_totals(&self.apna);
        m.extend(layers::link_metrics("apna", APNA, apna.0, apna.1));
        let gen = trace::agg("bench.client");
        m.push((
            "bench.gen_us_per_pkt".to_string(),
            ratio(gen.self_ns as f64 / 1e3, gen.items as f64),
        ));
        m
    }
}

/// Requests per generation of `mode`.
#[must_use]
pub fn generation(mode: Mode) -> u64 {
    match mode {
        Mode::Bulk => BULK_GENERATION,
        Mode::Churn => CHURN_GENERATION,
    }
}

/// Runs `legacy_bulk` or `legacy_churn`.
pub fn run(mode: Mode, seed: u64, plan: Plan) -> Result<RunResult, String> {
    run_with(mode, seed, plan, generation(mode), false)
}

/// Measures sessions of `generation` requests each until the plan's time
/// is up. With `corrupt_echo`, the server corrupts every echo.
fn run_with(
    mode: Mode,
    seed: u64,
    plan: Plan,
    generation: u64,
    corrupt_echo: bool,
) -> Result<RunResult, String> {
    let mut res = RunResult {
        transport: "loopback-udp",
        ..RunResult::default()
    };
    // A churn window is a fixed stretch of its generation's growth; bulk
    // windows are all alike.
    let (window, positions) = match mode {
        Mode::Bulk => (WINDOW, 1),
        Mode::Churn => (CHURN_WINDOW, (generation as usize).div_ceil(CHURN_WINDOW)),
    };
    let mut run = Runner::new(plan, window, positions);
    run.pause();
    let mut totals = Totals::default();
    let mut tag = 0;
    loop {
        let measured = Measured {
            run: &mut run,
            totals: &mut totals,
            generation,
        };
        let time_up = session(mode, seed, measured, tag, &mut res, corrupt_echo)?;
        // Later generations run on rebuilt daemons, which a gateway never
        // has; what they add to the peak is the allocator's reuse of the
        // freed state, so the peak is read after the first.
        res.peak_rss_mib
            .get_or_insert_with(crate::metrics::peak_rss_mib);
        if time_up {
            break;
        }
        tag += 1;
    }
    let (untraced, traced) = run.finish();
    res.untraced = untraced;
    res.untraced.failed += totals.health_failures;
    if let Some(traced) = traced {
        println!(
            "{:?}: {} sessions; largest gateway flows {}, EphIDs {}; rotated {}, border unexpected {}",
            mode,
            tag + 1,
            totals.flows,
            totals.ephids,
            totals.gw.rotated,
            totals.gw.unexpected
        );
        res.traced = Some((traced, totals.layer_metrics()));
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short() -> Plan {
        Plan {
            seconds: 1.5,
            trace: true,
        }
    }

    #[test]
    fn echo_check_rejects_corruption() {
        let service = Ipv4Addr::new(198, 18, 0, 1);
        let client = (Ipv4Addr::new(10, 1, 0, 1), 40_001);
        let good = LegacyPacket::udp(service, SERVICE_PORT, client.0, client.1, b"hello");
        assert!(echo_ok(&good, service, client, b"hello"));
        let mut flipped = good.clone();
        flipped.payload[2] ^= 1;
        assert!(!echo_ok(&flipped, service, client, b"hello"));
        let wrong_port = LegacyPacket::udp(service, SERVICE_PORT, client.0, 40_002, b"hello");
        assert!(!echo_ok(&wrong_port, service, client, b"hello"));
    }

    #[test]
    fn a_corrupted_echo_is_counted_as_failure() {
        let plan = Plan {
            seconds: 0.2,
            trace: false,
        };
        // Bulk set-up itself rejects corrupted echoes during flow set-up.
        assert!(run_with(Mode::Bulk, 4, plan, BULK_GENERATION, true).is_err());
        let res = run_with(Mode::Churn, 4, plan, CHURN_GENERATION, true).unwrap();
        assert!(res.untraced.attempted > 0);
        assert_eq!(res.untraced.ops, 0);
        assert_eq!(res.untraced.failed, res.untraced.attempted);
    }

    fn smoke(mode: Mode) {
        let res = run(mode, 8, short()).unwrap();
        assert!(res.untraced.ops > 0, "{mode:?}: no RPC completed");
        assert_eq!(res.untraced.failed, 0);
        let (traced, layers) = res.traced.unwrap();
        assert_eq!(traced.failed, 0);
        let get = |n: &str| layers.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("gateway.legacy.self_us_per_call") > 0.0);
        assert!(get("gateway.apna.self_us_per_call") > 0.0);
        assert!(get("io.apna.send_us_per_frame") > 0.0);
        assert!(get("io.legacy.recv_us_per_frame") > 0.0);
        assert!(get("border.egress.us_per_pkt") > 0.0);
        assert_eq!(get("ctrl_log.io_errors"), 0.0);
        if mode == Mode::Churn {
            assert!(get("control.calls") > 0.0);
            assert!(get("control.kind.ephid-request") > 0.0);
            assert!(get("ctrl_log.appends") > 0.0);
        }
    }

    #[test]
    fn generations_get_fresh_daemons() {
        let plan = Plan {
            seconds: 1.0,
            trace: false,
        };
        for mode in [Mode::Bulk, Mode::Churn] {
            let res = run_with(mode, 5, plan, 64, false).unwrap();
            assert_eq!(res.untraced.failed, 0);
            // Every generation but the last one completes all its RPCs.
            let sessions = res.setup_s.len() as u64;
            assert!(sessions >= 2, "{mode:?}: {sessions} sessions");
            assert!(res.untraced.ops >= 64 * (sessions - 1));
            assert!(res.untraced.summary().throughput > 0.0);
        }
    }

    #[test]
    fn set_ups_between_generations_record_no_spans() {
        let plan = Plan {
            seconds: 1.5,
            trace: true,
        };
        let res = run_with(Mode::Bulk, 6, plan, 64, false).unwrap();
        assert!(res.setup_s.len() > 4);
        let (_, layers) = res.traced.unwrap();
        let get = |n: &str| layers.iter().find(|(k, _)| k == n).unwrap().1;
        // Set-up bootstraps the translators through the control plane;
        // long-lived flows make no control call once measured.
        assert_eq!(get("control.calls"), 0.0);
        assert_eq!(get("control.us_per_call"), 0.0);
    }

    #[test]
    fn bulk_smoke() {
        smoke(Mode::Bulk);
    }

    #[test]
    fn churn_smoke() {
        smoke(Mode::Churn);
    }
}
