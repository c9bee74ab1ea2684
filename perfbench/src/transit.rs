//! `transit`: native APNA packets from AS 1 egress to AS 2 ingress over an
//! in-memory `RingBackend` pair, as a closed loop of 64-packet bursts.
//!
//! Packets are 128 B, the smallest Fig. 8 size. 4096 source hosts send
//! (more than the border's per-host CMAC and replay-window state keeps
//! hot), in `NonceExtension` mode with AS 1's replay filter on. Hosts
//! rotate their EphIDs on the workload clock, which advances one second
//! every [`BURSTS_PER_SEC`] bursts. Every burst carries exactly
//! [`INVALID_PER_BURST`] invalid packets whose class is drawn from the
//! seed; each must be dropped with its exact `DropReason`, and every
//! valid packet must reach `DeliverLocal` for its destination host.
//!
//! The generator stands in for the hosts: it registers them in AS 1's
//! host table and seals their EphIDs with AS 1's keys, as the Management
//! Service would, so the control plane does no work here. It runs
//! outside the forwarding-path timer.

use crate::layers::{self, BorderCounts, TimedIo, RING};
use crate::metrics::ratio;
use crate::{trace, Phase, Plan, Rng, RunResult, Runner, WINDOW};
use apna_core::asnode::AsNode;
use apna_core::border::{BorderRouter, Direction, DropReason, Verdict};
use apna_core::directory::AsDirectory;
use apna_core::ephid::{self, EphIdPlain};
use apna_core::keys::HostAsKey;
use apna_core::shutoff::RevocationOrder;
use apna_core::time::Timestamp;
use apna_core::Hid;
use apna_crypto::aes::Aes128;
use apna_crypto::cmac::CmacAes128;
use apna_io::{PacketIo, RingBackend};
use apna_wire::{Aid, ApnaHeader, EphIdBytes, HostAddr, ReplayMode};
use std::collections::BTreeMap;
use std::time::Instant;

/// Packets per burst.
pub const BURST: usize = 64;
/// Bytes per packet, header included.
pub const PKT_LEN: usize = 128;
/// Invalid packets in every burst (3 of 64 ≈ 4.7%).
pub const INVALID_PER_BURST: usize = 3;
/// Bursts per second of workload clock.
pub const BURSTS_PER_SEC: u64 = 64;
const SRC_HOSTS: usize = 4096;
const DST_HOSTS: usize = 256;
const REVOKED_EPHIDS: usize = 64;
/// Source EphID lifetime and the margin before expiry at which a host
/// rotates, in workload seconds. A run reaches a few thousand workload
/// seconds, so about one rotation per host: the replay filter roughly
/// doubles its entries, and how far it grows barely depends on how fast
/// the run went (which would otherwise show in `peak_rss_mib`).
const LIFETIME_S: u32 = 3600;
const MARGIN_S: u32 = 60;
const START: Timestamp = Timestamp(1_000);
const FAR: Timestamp = Timestamp(1_000_000_000);
const MODE: ReplayMode = ReplayMode::NonceExtension;
const SRC_AID: Aid = Aid(1);
const DST_AID: Aid = Aid(2);
/// Set-ups timed per run (the last one is measured).
const SETUPS: usize = 9;

/// What a generated packet is, and so which verdict it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Well-formed and authentic: forwarded, then delivered.
    Valid,
    /// Truncated below the header length.
    Malformed,
    /// Source EphID with a corrupted authentication tag.
    BadEphId,
    /// Source EphID past its expiry.
    Expired,
    /// Source EphID on AS 1's revocation list.
    Revoked,
    /// Packet MAC that does not verify under the host's key.
    BadMac,
    /// Byte-for-byte copy of an earlier valid packet.
    Replayed,
}

const INVALID: [Class; 6] = [
    Class::Malformed,
    Class::BadEphId,
    Class::Expired,
    Class::Revoked,
    Class::BadMac,
    Class::Replayed,
];

/// The egress verdict a packet of `class` must get.
#[must_use]
pub fn expected_egress(class: Class) -> Verdict {
    match class {
        Class::Valid => Verdict::ForwardInter { dst_aid: DST_AID },
        Class::Malformed => Verdict::Drop(DropReason::Malformed),
        Class::BadEphId => Verdict::Drop(DropReason::BadEphId),
        Class::Expired => Verdict::Drop(DropReason::Expired),
        Class::Revoked => Verdict::Drop(DropReason::Revoked),
        Class::BadMac => Verdict::Drop(DropReason::BadPacketMac),
        Class::Replayed => Verdict::Drop(DropReason::Replayed),
    }
}

/// A generated packet's expectation: its class and destination host.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Injected class.
    pub class: Class,
    /// Destination host at AS 2.
    pub dst_hid: Hid,
}

/// Counts packets whose verdicts differ from their expectation. `egress`
/// is one verdict per generated packet; `ingress` one per packet AS 2
/// received, in forwarding order. A valid packet fails unless egress
/// forwards it and ingress delivers it to its destination host; an
/// invalid one fails unless egress drops it for its exact reason.
/// Returns (failed packets, valid packets delivered).
#[must_use]
pub fn check_burst(expect: &[Expect], egress: &[Verdict], ingress: &[Verdict]) -> (u64, u64) {
    let mut failed = 0;
    let mut delivered = 0;
    let mut ingress = ingress.iter();
    for (i, e) in expect.iter().enumerate() {
        let got = egress.get(i).copied();
        let forwarded = matches!(got, Some(Verdict::ForwardInter { .. }));
        let arrived = if forwarded {
            ingress.next().copied()
        } else {
            None
        };
        let ok = got == Some(expected_egress(e.class))
            && match e.class {
                Class::Valid => arrived == Some(Verdict::DeliverLocal { hid: e.dst_hid }),
                _ => true,
            };
        if ok && e.class == Class::Valid {
            delivered += 1;
        }
        failed += u64::from(!ok);
    }
    // Frames AS 2 received beyond what egress forwarded are failures too.
    failed += ingress.count() as u64;
    (failed, delivered)
}

struct SrcHost {
    hid: Hid,
    cmac: CmacAes128,
    ephid: EphIdBytes,
    nonce: u64,
}

/// Seeded traffic of AS 1's hosts toward AS 2's.
struct Generator {
    rng: Rng,
    enc: Aes128,
    mac: Aes128,
    src: AsNode,
    hosts: Vec<SrcHost>,
    dsts: Vec<(Hid, EphIdBytes)>,
    revoked: Vec<(usize, EphIdBytes)>,
    /// Rotation schedule: workload second → hosts due then.
    due: BTreeMap<u32, Vec<usize>>,
    now: Timestamp,
    bursts: u64,
    last_valid: Vec<u8>,
    packets: u64,
    rotations: u64,
}

impl Generator {
    fn seal(&self, hid: Hid, exp_time: Timestamp) -> EphIdBytes {
        let iv = self.src.infra.iv_alloc.next_iv();
        ephid::seal_with(&self.enc, &self.mac, EphIdPlain { hid, exp_time }, iv)
    }

    /// Mints host `i` a fresh EphID valid for [`LIFETIME_S`] from `now`
    /// and schedules its next rotation.
    fn rotate(&mut self, i: usize, exp_time: Timestamp) {
        self.hosts[i].ephid = self.seal(self.hosts[i].hid, exp_time);
        self.due
            .entry(exp_time.sub_secs(MARGIN_S).0)
            .or_default()
            .push(i);
    }

    fn advance_clock(&mut self) {
        self.now = START.add_secs((self.bursts / BURSTS_PER_SEC) as u32);
        while let Some(entry) = self.due.first_entry() {
            if *entry.key() > self.now.0 {
                break;
            }
            for i in entry.remove() {
                self.rotate(i, self.now.add_secs(LIFETIME_S));
                self.rotations += 1;
            }
        }
    }

    /// A packet from host `i` with source EphID `src`, to a random AS 2
    /// host; `tamper_mac` corrupts its MAC.
    fn packet(&mut self, i: usize, src: EphIdBytes, tamper_mac: bool) -> (Vec<u8>, Hid) {
        let (dst_hid, dst_ephid) = self.dsts[self.rng.below(self.dsts.len())];
        let host = &mut self.hosts[i];
        let mut header = ApnaHeader::new(
            HostAddr::new(SRC_AID, src),
            HostAddr::new(DST_AID, dst_ephid),
        )
        .with_nonce(host.nonce);
        host.nonce += 1;
        let mut payload = vec![0xA5; PKT_LEN - header.wire_len()];
        payload[..8].copy_from_slice(&self.packets.to_le_bytes());
        let mut mac: [u8; 8] = host.cmac.mac_truncated(&header.mac_input(&payload));
        if tamper_mac {
            mac[0] ^= 0x01;
        }
        header.set_mac(mac);
        let mut wire = header.serialize();
        wire.extend_from_slice(&payload);
        self.packets += 1;
        (wire, dst_hid)
    }

    fn one(&mut self, class: Class) -> (Vec<u8>, Hid) {
        let i = self.rng.below(self.hosts.len());
        let ephid = self.hosts[i].ephid;
        match class {
            Class::Valid => {
                let (wire, dst) = self.packet(i, ephid, false);
                self.last_valid.clone_from(&wire);
                (wire, dst)
            }
            Class::Malformed => {
                let (mut wire, dst) = self.packet(i, ephid, false);
                wire.truncate(12);
                (wire, dst)
            }
            Class::BadEphId => {
                let mut bad = ephid;
                bad.0[15] ^= 0x80;
                self.packet(i, bad, false)
            }
            Class::Expired => {
                let stale = self.seal(self.hosts[i].hid, self.now.sub_secs(1));
                self.packet(i, stale, false)
            }
            Class::Revoked => {
                let (host, ephid) = self.revoked[self.rng.below(self.revoked.len())];
                self.packet(host, ephid, false)
            }
            Class::BadMac => self.packet(i, ephid, true),
            Class::Replayed => (self.last_valid.clone(), Hid(0)),
        }
    }

    /// The next burst and what each of its packets must get.
    fn burst(&mut self) -> (Vec<Vec<u8>>, Vec<Expect>) {
        self.advance_clock();
        let mut classes = [Class::Valid; BURST];
        for _ in 0..INVALID_PER_BURST {
            // Positions may repeat; redraw until a valid slot is taken so
            // every burst carries exactly INVALID_PER_BURST invalid packets.
            loop {
                let at = self.rng.below(BURST);
                if classes[at] == Class::Valid {
                    classes[at] = INVALID[self.rng.below(INVALID.len())];
                    break;
                }
            }
        }
        let mut frames = Vec::with_capacity(BURST);
        let mut expect = Vec::with_capacity(BURST);
        for class in classes {
            let (wire, dst_hid) = self.one(class);
            frames.push(wire);
            expect.push(Expect { class, dst_hid });
        }
        self.bursts += 1;
        (frames, expect)
    }
}

struct World {
    gen: Generator,
    egress: BorderRouter,
    ingress: BorderRouter,
    _dst: AsNode,
    a: TimedIo<RingBackend>,
    b: TimedIo<RingBackend>,
    border: BorderCounts,
}

impl World {
    /// The forwarding path: AS 1 egress, survivors over the ring, AS 2
    /// ingress. Returns the egress verdict of every frame and the ingress
    /// verdict of every frame AS 2 received.
    fn forward(
        &mut self,
        frames: Vec<Vec<u8>>,
        req: u64,
    ) -> Result<(Vec<Verdict>, Vec<Verdict>), String> {
        let now = self.gen.now;
        let out = layers::border_batch(
            &self.egress,
            Direction::Egress,
            MODE,
            frames,
            now,
            &mut self.border,
            req,
        );
        let egress: Vec<Verdict> = out.iter().map(|(_, v)| *v).collect();
        let survivors: Vec<Vec<u8>> = out
            .into_iter()
            .filter(|(_, v)| matches!(v, Verdict::ForwardInter { dst_aid } if *dst_aid == DST_AID))
            .map(|(f, _)| f)
            .collect();
        self.a
            .send(&survivors, req)
            .map_err(|e| format!("ring send: {e}"))?;
        let arrived = self
            .b
            .recv(BURST, req)
            .map_err(|e| format!("ring recv: {e}"))?;
        let delivered = layers::border_batch(
            &self.ingress,
            Direction::Ingress,
            MODE,
            arrived,
            now,
            &mut self.border,
            req,
        );
        Ok((egress, delivered.into_iter().map(|(_, v)| v).collect()))
    }
}

fn as_seed(seed: u64, aid: Aid) -> [u8; 32] {
    Rng::new(seed, 0x0A5_0000 + u64::from(aid.0)).bytes32()
}

fn setup(seed: u64) -> World {
    let directory = AsDirectory::new();
    let src = AsNode::from_seed(
        SRC_AID,
        as_seed(seed, SRC_AID),
        &directory,
        Timestamp::EPOCH,
    );
    let dst = AsNode::from_seed(
        DST_AID,
        as_seed(seed, DST_AID),
        &directory,
        Timestamp::EPOCH,
    );
    let mut rng = Rng::new(seed, 1);

    let mut hosts = Vec::with_capacity(SRC_HOSTS);
    for _ in 0..SRC_HOSTS {
        let hid = src.infra.host_db.generate_hid();
        let key = HostAsKey::from_bytes(&rng.bytes32());
        let cmac = key.packet_cmac();
        src.infra.host_db.register(hid, key, START);
        hosts.push(SrcHost {
            hid,
            cmac,
            ephid: EphIdBytes([0; 16]),
            nonce: 0,
        });
    }
    let mut dsts = Vec::with_capacity(DST_HOSTS);
    for _ in 0..DST_HOSTS {
        let hid = dst.infra.host_db.generate_hid();
        dst.infra
            .host_db
            .register(hid, HostAsKey::from_bytes(&rng.bytes32()), START);
        let iv = dst.infra.iv_alloc.next_iv();
        let plain = EphIdPlain { hid, exp_time: FAR };
        dsts.push((hid, ephid::seal(&dst.infra.keys, plain, iv)));
    }

    let mut egress = src.br.clone();
    egress.enable_replay_filter();
    let ingress = dst.br.clone();
    let mut gen = Generator {
        rng,
        enc: src.infra.keys.ephid_enc_cipher(),
        mac: src.infra.keys.ephid_mac_cipher(),
        src,
        hosts,
        dsts,
        revoked: Vec::new(),
        due: BTreeMap::new(),
        now: START,
        bursts: 0,
        last_valid: Vec::new(),
        packets: 0,
        rotations: 0,
    };
    // Stagger first expiries so rotations spread evenly over the clock.
    for i in 0..SRC_HOSTS {
        let exp =
            START.add_secs(MARGIN_S + 1 + gen.rng.below((LIFETIME_S - MARGIN_S) as usize) as u32);
        gen.rotate(i, exp);
    }
    for _ in 0..REVOKED_EPHIDS {
        let host = gen.rng.below(SRC_HOSTS);
        let ephid = gen.seal(gen.hosts[host].hid, FAR);
        let order = RevocationOrder::issue(&gen.src.infra.keys, ephid, FAR);
        // The order is built with AS 1's own keys, so it always verifies.
        let _ = egress.apply_revocation(&order);
        gen.revoked.push((host, ephid));
    }
    // One valid packet through egress, so the first replay has an
    // original the filter has seen.
    let (first, _) = gen.one(Class::Valid);
    let mut batch = apna_wire::PacketBatch::of_one(MODE, first);
    let primed = egress.process_batch(Direction::Egress, &mut batch, START);
    debug_assert!(primed.verdicts()[0].is_forward());

    let (a, b) = RingBackend::pair(2 * BURST);
    World {
        gen,
        egress,
        ingress,
        _dst: dst,
        a: TimedIo::new(a, RING),
        b: TimedIo::new(b, RING),
        border: BorderCounts::default(),
    }
}

/// Runs bursts for the plan's time; the forwarding path of each burst is
/// AS 1 egress → ring → AS 2 ingress.
fn measure(w: &mut World, plan: Plan) -> Result<(Phase, Option<Phase>), String> {
    let mut run = Runner::new(plan, WINDOW, 1);
    while run.more() {
        let req = w.gen.bursts;
        let (frames, expect) = {
            let s = trace::span("bench.gen", req);
            let burst = w.gen.burst();
            s.items(BURST as u64);
            burst
        };
        let t0 = Instant::now();
        let (egress, ingress) = w.forward(frames, req)?;
        let busy = t0.elapsed().as_secs_f64();

        let _s = trace::span("bench.check", req);
        let (failed, ok) = check_burst(&expect, &egress, &ingress);
        if failed > 0 {
            for (e, v) in expect.iter().zip(&egress) {
                if *v != expected_egress(e.class) {
                    eprintln!("transit burst {req}: {:?} packet got {v:?}", e.class);
                }
            }
        }
        let p = run.phase();
        p.attempted += expect.len() as u64;
        p.failed += failed;
        p.record(busy * 1e6, ok as f64, busy);
    }
    Ok(run.finish())
}

/// Runs the workload: timed set-ups, then the measured run.
pub fn run(seed: u64, plan: Plan) -> Result<RunResult, String> {
    let mut res = RunResult {
        transport: "ring",
        ..RunResult::default()
    };
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(seed));
        res.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.ok_or("no set-up ran")?;
    let (untraced, traced) = measure(&mut w, plan)?;
    res.untraced = untraced;
    if let Some(traced) = traced {
        let mut m = layers::border_metrics(&w.border, w.egress.replay_filter_entries());
        let (counts, io) = layers::link_totals(&[
            (w.a.counts, w.a.io.counters()),
            (w.b.counts, w.b.io.counters()),
        ]);
        m.extend(layers::link_metrics("ring", RING, counts, io));
        let gen = trace::agg("bench.gen");
        m.push((
            "bench.gen_us_per_pkt".to_string(),
            ratio(gen.self_ns as f64 / 1e3, gen.items as f64),
        ));
        println!(
            "transit: {SRC_HOSTS} source hosts, {} EphID rotations, workload clock at {} s",
            w.gen.rotations,
            w.gen.now.0 - START.0
        );
        res.traced = Some((traced, m));
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(hid: u32) -> Expect {
        Expect {
            class: Class::Valid,
            dst_hid: Hid(hid),
        }
    }

    #[test]
    fn correct_verdicts_pass_the_check() {
        let expect = [
            valid(7),
            Expect {
                class: Class::Replayed,
                dst_hid: Hid(0),
            },
        ];
        let egress = [
            expected_egress(Class::Valid),
            Verdict::Drop(DropReason::Replayed),
        ];
        let ingress = [Verdict::DeliverLocal { hid: Hid(7) }];
        assert_eq!(check_burst(&expect, &egress, &ingress), (0, 1));
    }

    #[test]
    fn an_injected_wrong_verdict_is_a_failure() {
        let expect = [valid(7), valid(8)];
        let egress = [expected_egress(Class::Valid), expected_egress(Class::Valid)];
        // Wrong destination host.
        let ingress = [
            Verdict::DeliverLocal { hid: Hid(7) },
            Verdict::DeliverLocal { hid: Hid(9) },
        ];
        assert_eq!(check_burst(&expect, &egress, &ingress), (1, 1));
        // Wrong drop reason.
        let bad_mac = [Expect {
            class: Class::BadMac,
            dst_hid: Hid(0),
        }];
        assert_eq!(
            check_burst(&bad_mac, &[Verdict::Drop(DropReason::BadEphId)], &[]),
            (1, 0)
        );
        // An invalid packet that got through.
        assert_eq!(
            check_burst(
                &bad_mac,
                &[expected_egress(Class::Valid)],
                &[Verdict::DeliverLocal { hid: Hid(1) }]
            ),
            (1, 0)
        );
        // A valid packet lost between egress and ingress.
        assert_eq!(check_burst(&expect, &egress, &[]), (2, 0));
    }

    #[test]
    fn injected_wrong_verdict_in_a_real_burst_is_counted() {
        let mut w = setup(3);
        let (frames, expect) = w.gen.burst();
        let (mut egress, ingress) = w.forward(frames, 0).unwrap();
        assert_eq!(check_burst(&expect, &egress, &ingress).0, 0);
        let invalid = expect.iter().position(|e| e.class != Class::Valid).unwrap();
        egress[invalid] = Verdict::Drop(DropReason::UnknownHost);
        assert_eq!(check_burst(&expect, &egress, &ingress).0, 1);
    }

    /// The first burst's replays copy a packet egress has already seen,
    /// whatever the seed.
    #[test]
    fn first_bursts_pass_their_checks() {
        for seed in 0..40 {
            let mut w = setup(seed);
            let (frames, expect) = w.gen.burst();
            let (egress, ingress) = w.forward(frames, 0).unwrap();
            assert_eq!(check_burst(&expect, &egress, &ingress).0, 0, "seed {seed}");
        }
    }

    #[test]
    fn bursts_have_fixed_size_and_invalid_share() {
        let mut w = setup(11);
        for _ in 0..200 {
            let (frames, expect) = w.gen.burst();
            assert_eq!(frames.len(), BURST);
            let bad = expect.iter().filter(|e| e.class != Class::Valid).count();
            assert_eq!(bad, INVALID_PER_BURST);
            for (f, e) in frames.iter().zip(&expect) {
                if e.class != Class::Malformed {
                    assert_eq!(f.len(), PKT_LEN);
                }
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let (f1, _) = setup(5).gen.burst();
        let (f2, _) = setup(5).gen.burst();
        let (f3, _) = setup(6).gen.burst();
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
    }

    #[test]
    fn smoke_run_is_correct_and_traced() {
        let plan = Plan {
            seconds: 1.2,
            trace: true,
        };
        let res = run(9, plan).unwrap();
        assert!(res.untraced.attempted > 0);
        assert_eq!(res.untraced.failed, 0);
        let (traced, layers) = res.traced.unwrap();
        assert_eq!(traced.failed, 0);
        let get = |n: &str| layers.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("border.egress.us_per_pkt") > 0.0);
        assert!(get("border.replay_entries") >= SRC_HOSTS as f64);
        for d in [
            "malformed",
            "bad_ephid",
            "expired",
            "revoked",
            "bad_packet_mac",
            "replayed",
        ] {
            assert!(get(&format!("border.drop.{d}")) > 0.0, "{d}");
        }
        assert_eq!(get("border.drop.unknown_host"), 0.0);
    }
}
