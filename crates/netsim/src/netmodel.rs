//! Network models for the three interconnect/software stacks the paper
//! compares, plus the Fast Ethernet configuration referenced from the
//! companion technical report.
//!
//! Each model is a LogGP-style cost function with three paper-motivated
//! pathologies layered on top:
//!
//! * **congestion collapse** — MPI over TCP interacts badly with TCP
//!   flow control once several flows are active (paper section 4.1:
//!   "the high variability of MPI transfers over TCP/IP starts abruptly
//!   with four processors"),
//! * **small-message penalty** — 1-byte synchronization exchanges over
//!   TCP occasionally stall on delayed-ACK-style timers, which is what
//!   sinks the CMPI middleware (section 4.2),
//! * **SMP interrupt serialization** — with two ranks per node only one
//!   CPU services NIC interrupts over TCP (section 4.3, citing \[18\]);
//!   SCore and Myrinet use shared-memory/coprocessor drivers instead.

use crate::faults::LinkFault;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// The interconnect + communication-software level of the paper's
/// "Networking" factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkKind {
    /// MPICH over TCP/IP on Gigabit Ethernet — the reference (focal)
    /// configuration.
    TcpGigE,
    /// SCore communication system on the same Gigabit Ethernet.
    ScoreGigE,
    /// MPICH-GM on Myrinet (lanai coprocessor NICs).
    MyrinetGm,
    /// MPICH over TCP/IP on Fast (100 Mbit) Ethernet, from \[17\].
    FastEthernet,
    /// Wide-area ("grid") links between sites, for the paper's closing
    /// question about moving CHARMM to widely distributed computing.
    WideArea,
}

impl NetworkKind {
    /// All levels of the networking factor in presentation order.
    pub const ALL: [NetworkKind; 5] = [
        NetworkKind::TcpGigE,
        NetworkKind::ScoreGigE,
        NetworkKind::MyrinetGm,
        NetworkKind::FastEthernet,
        NetworkKind::WideArea,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::TcpGigE => "TCP/IP on Ethernet",
            NetworkKind::ScoreGigE => "SCore on Ethernet",
            NetworkKind::MyrinetGm => "Myrinet",
            NetworkKind::FastEthernet => "TCP/IP on Fast Ethernet",
            NetworkKind::WideArea => "wide-area grid links",
        }
    }

    /// The calibrated parameter set for this network.
    pub fn params(self) -> NetworkParams {
        match self {
            NetworkKind::TcpGigE => NetworkParams {
                kind: self,
                latency: 65e-6,
                bandwidth: 26e6,
                pkt_size: 1460,
                per_pkt_overhead: 12e-6,
                send_overhead: 8e-6,
                recv_overhead: 8e-6,
                congestion_threshold: 1,
                congestion_factor: 0.85,
                jitter_base: 0.08,
                jitter_per_flow: 0.10,
                small_msg_penalty_prob_per_flow: 0.040,
                small_msg_flow_floor: 4,
                small_msg_penalty: 25e-3,
                rto_backoff: 2.0,
                rto_max: 3.0,
                smp_pkt_factor: 3.0,
                smp_jitter_boost: 0.4,
                intra_latency: 45e-6,
                intra_bandwidth: 90e6,
                intra_uses_nic_path: true,
            },
            NetworkKind::ScoreGigE => NetworkParams {
                kind: self,
                latency: 20e-6,
                bandwidth: 95e6,
                pkt_size: 1460,
                per_pkt_overhead: 1.5e-6,
                send_overhead: 3e-6,
                recv_overhead: 3e-6,
                congestion_threshold: 2,
                congestion_factor: 0.06,
                jitter_base: 0.03,
                jitter_per_flow: 0.0,
                small_msg_penalty_prob_per_flow: 0.0,
                small_msg_flow_floor: 4,
                small_msg_penalty: 0.0,
                rto_backoff: 2.0,
                rto_max: 0.05,
                smp_pkt_factor: 1.15,
                smp_jitter_boost: 0.02,
                intra_latency: 4e-6,
                intra_bandwidth: 280e6,
                intra_uses_nic_path: false,
            },
            NetworkKind::MyrinetGm => NetworkParams {
                kind: self,
                latency: 12e-6,
                bandwidth: 135e6,
                pkt_size: 4096,
                per_pkt_overhead: 0.5e-6,
                send_overhead: 2e-6,
                recv_overhead: 2e-6,
                congestion_threshold: 2,
                congestion_factor: 0.04,
                jitter_base: 0.04,
                jitter_per_flow: 0.0,
                small_msg_penalty_prob_per_flow: 0.0,
                small_msg_flow_floor: 4,
                small_msg_penalty: 0.0,
                rto_backoff: 2.0,
                rto_max: 0.05,
                smp_pkt_factor: 1.05,
                smp_jitter_boost: 0.02,
                intra_latency: 3e-6,
                intra_bandwidth: 300e6,
                intra_uses_nic_path: false,
            },
            NetworkKind::FastEthernet => NetworkParams {
                kind: self,
                latency: 70e-6,
                bandwidth: 9e6,
                pkt_size: 1460,
                per_pkt_overhead: 14e-6,
                send_overhead: 9e-6,
                recv_overhead: 9e-6,
                congestion_threshold: 1,
                congestion_factor: 0.85,
                jitter_base: 0.08,
                jitter_per_flow: 0.10,
                small_msg_penalty_prob_per_flow: 0.040,
                small_msg_flow_floor: 4,
                small_msg_penalty: 25e-3,
                rto_backoff: 2.0,
                rto_max: 3.0,
                smp_pkt_factor: 3.0,
                smp_jitter_boost: 0.4,
                intra_latency: 45e-6,
                intra_bandwidth: 90e6,
                intra_uses_nic_path: true,
            },
            NetworkKind::WideArea => NetworkParams {
                kind: self,
                latency: 5e-3,
                bandwidth: 1.25e6,
                pkt_size: 1460,
                per_pkt_overhead: 20e-6,
                send_overhead: 10e-6,
                recv_overhead: 10e-6,
                congestion_threshold: 1,
                congestion_factor: 1.0,
                jitter_base: 0.30,
                jitter_per_flow: 0.15,
                small_msg_penalty_prob_per_flow: 0.040,
                small_msg_flow_floor: 2,
                small_msg_penalty: 40e-3,
                rto_backoff: 2.0,
                rto_max: 10.0,
                smp_pkt_factor: 3.0,
                smp_jitter_boost: 0.4,
                intra_latency: 45e-6,
                intra_bandwidth: 90e6,
                intra_uses_nic_path: true,
            },
        }
    }
}

/// Calibrated timing parameters for one network level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Which network these parameters describe.
    pub kind: NetworkKind,
    /// One-way base latency, seconds.
    pub latency: f64,
    /// Sustained point-to-point bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Packet payload size (bytes) for per-packet host costs.
    pub pkt_size: usize,
    /// Host cost per packet, seconds.
    pub per_pkt_overhead: f64,
    /// Sender CPU overhead per message, seconds.
    pub send_overhead: f64,
    /// Receiver CPU overhead per message, seconds.
    pub recv_overhead: f64,
    /// Endpoint flow count the stack tolerates before incast collapse.
    pub congestion_threshold: usize,
    /// Bandwidth divisor growth per endpoint flow above the threshold.
    pub congestion_factor: f64,
    /// Relative jitter (log scale) at low concurrency.
    pub jitter_base: f64,
    /// Additional jitter per participating rank above three.
    pub jitter_per_flow: f64,
    /// Probability per flow (above [`Self::small_msg_flow_floor`]) that
    /// a tiny message hits the delayed-ACK style penalty.
    pub small_msg_penalty_prob_per_flow: f64,
    /// Concurrent-flow count below which tiny messages never hit the
    /// penalty (tree barriers at p <= 8 stay clean; the CMPI ring at
    /// p = 8 does not — reproducing the paper's 4 -> 8 collapse).
    pub small_msg_flow_floor: usize,
    /// Penalty magnitude, seconds. This is the stack's minimum
    /// retransmission/delayed-ACK timer: a tiny-message stall costs
    /// exactly one such timer period, and the retransmission model of
    /// `transfer_faulty` uses it as the RTO
    /// floor (see `rto_floor`), so the fault-free
    /// figures are unchanged by the explicit model.
    pub small_msg_penalty: f64,
    /// RTO growth factor per retransmission round (TCP doubles).
    pub rto_backoff: f64,
    /// Upper bound on the retransmission timeout, seconds.
    pub rto_max: f64,
    /// Per-packet cost multiplier when a dual-CPU node's interrupt path
    /// is shared (TCP); near 1 for shared-memory drivers.
    pub smp_pkt_factor: f64,
    /// Extra jitter under SMP interrupt contention.
    pub smp_jitter_boost: f64,
    /// Latency for messages between ranks on the same node.
    pub intra_latency: f64,
    /// Bandwidth for same-node messages.
    pub intra_bandwidth: f64,
    /// Whether same-node traffic still traverses the interrupt-driven
    /// stack (true for TCP loopback, false for shared-memory drivers).
    pub intra_uses_nic_path: bool,
}

/// Shape of the communication operation a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpShape {
    /// Same-direction flows contending at the busiest endpoint (1 for
    /// point-to-point, ring and pairwise exchanges; `p - 1` for flat
    /// gathers/incast and for split send groups).
    pub endpoint_flows: usize,
    /// Ranks participating in the operation (drives the stochastic
    /// variability and the tiny-message pathology, both of which grow
    /// with the amount of traffic in the stack/switch).
    pub participants: usize,
    /// True for rapid back-to-back streams of tiny messages (the CMPI
    /// synchronization pattern). Nagle / delayed-ACK interactions only
    /// trigger on such streams — an isolated barrier hop is safe.
    pub repeated_small: bool,
}

impl OpShape {
    /// Plain point-to-point message.
    pub fn p2p() -> Self {
        OpShape {
            endpoint_flows: 1,
            participants: 2,
            repeated_small: false,
        }
    }

    /// Explicit shape.
    pub fn new(endpoint_flows: usize, participants: usize) -> Self {
        OpShape {
            endpoint_flows: endpoint_flows.max(1),
            participants: participants.max(2),
            repeated_small: false,
        }
    }

    /// Shape for repeated tiny-message streams (CMPI synchronization).
    pub fn repeated(endpoint_flows: usize, participants: usize) -> Self {
        OpShape {
            repeated_small: true,
            ..Self::new(endpoint_flows, participants)
        }
    }
}

/// Context of a single message transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferCtx {
    /// Shape of the enclosing operation.
    pub shape: OpShape,
    /// Ranks per node on the sending side.
    pub src_ranks_per_node: usize,
    /// Ranks per node on the receiving side.
    pub dst_ranks_per_node: usize,
    /// Whether source and destination share a node.
    pub same_node: bool,
}

/// Outcome of the transfer model.
#[derive(Debug, Clone, Copy)]
pub struct TransferTime {
    /// Wire time from departure to arrival, seconds.
    pub wire: f64,
    /// Sender-side CPU overhead, seconds.
    pub send_overhead: f64,
    /// Receiver-side CPU overhead, seconds.
    pub recv_overhead: f64,
}

/// Outcome of the transfer model on a (possibly) faulty link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultyTransfer {
    /// Timing; `time.wire` includes all retransmission stalls.
    pub time: TransferTime,
    /// Retransmission rounds the transport went through.
    pub retransmits: u32,
    /// False when the transport gave up: the message never arrives and
    /// the engine delivers a tombstone in its place.
    pub delivered: bool,
}

impl NetworkParams {
    /// Number of packets for a message of `bytes`.
    pub(crate) fn packets(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.pkt_size).max(1)
    }

    /// Effective bandwidth under `flows` concurrent same-direction
    /// flows at the busiest endpoint (incast/outcast sharing).
    pub fn effective_bandwidth(&self, flows: usize, intra: bool) -> f64 {
        let base = if intra {
            self.intra_bandwidth
        } else {
            self.bandwidth
        };
        let over = flows.saturating_sub(self.congestion_threshold) as f64;
        base / (1.0 + self.congestion_factor * over)
    }

    /// Jitter sigma (log scale): grows with the number of ranks
    /// participating in the operation (the paper: "the high variability
    /// of MPI transfers over TCP/IP starts abruptly with four
    /// processors").
    pub(crate) fn jitter_sigma(&self, ctx: &TransferCtx) -> f64 {
        let mut sigma = self.jitter_base
            + self.jitter_per_flow * ctx.shape.participants.saturating_sub(3) as f64;
        if ctx.src_ranks_per_node > 1 || ctx.dst_ranks_per_node > 1 {
            sigma += self.smp_jitter_boost;
        }
        sigma
    }

    /// The retransmission-timeout floor: the stack's delayed-ACK /
    /// minimum-RTO timer. For TCP-family stacks this *is* the
    /// calibrated `small_msg_penalty` (the tiny-message stall of
    /// section 4.2 is one such timer period), so the explicit
    /// retransmission model reproduces the fault-free figures
    /// bit-identically. Stacks without the pathology (SCore, Myrinet
    /// GM) use a floor derived from their wire latency.
    pub(crate) fn rto_floor(&self) -> f64 {
        if self.small_msg_penalty > 0.0 {
            self.small_msg_penalty
        } else {
            20.0 * self.latency
        }
    }

    /// Retransmission timeout of round `k` (0-based): exponential
    /// backoff from `rto_floor`, capped at
    /// [`rto_max`](Self::rto_max).
    pub fn rto(&self, round: u32) -> f64 {
        (self.rto_floor() * self.rto_backoff.powi(round.min(1000) as i32)).min(self.rto_max)
    }

    /// Models one message of `bytes` bytes on a fault-free link.
    ///
    /// Deterministic given the RNG (which the engine derives from the
    /// per-channel message counter). Exactly equivalent to
    /// `transfer_faulty` with
    /// `LinkFault::clean` — same result, same number of draws.
    pub fn transfer(&self, bytes: usize, ctx: &TransferCtx, rng: &mut SplitMix64) -> TransferTime {
        self.transfer_faulty(bytes, ctx, rng, &LinkFault::clean())
            .time
    }

    /// Models one message of `bytes` bytes on a link in fault state
    /// `fault`.
    ///
    /// The clean portion of the cost (latency, per-packet host costs,
    /// bandwidth sharing, jitter, tiny-message stall) is computed first
    /// with exactly the draws of the fault-free model; fault costs are
    /// layered on top and consume extra draws only when `fault.loss >
    /// 0`. Each lossy round waits out one RTO (exponential backoff)
    /// and resends the lost packets; after `fault.max_retransmits`
    /// rounds the transport either gives up (`fault.give_up`, the
    /// message becomes a tombstone) or delivers late (reliable mode).
    pub(crate) fn transfer_faulty(
        &self,
        bytes: usize,
        ctx: &TransferCtx,
        rng: &mut SplitMix64,
        fault: &LinkFault,
    ) -> FaultyTransfer {
        let intra = ctx.same_node;
        let latency = if intra && !self.intra_uses_nic_path {
            self.intra_latency
        } else if intra {
            self.intra_latency.max(self.latency * 0.7)
        } else {
            self.latency
        };

        // Per-packet host costs; serialized interrupt handling on
        // dual-CPU nodes multiplies them (only for NIC-path traffic).
        let mut per_pkt = self.per_pkt_overhead;
        let smp_affected = (ctx.src_ranks_per_node > 1 || ctx.dst_ranks_per_node > 1)
            && (!intra || self.intra_uses_nic_path);
        if smp_affected {
            per_pkt *= self.smp_pkt_factor;
        }
        let pkts = self.packets(bytes) as f64;

        let bw =
            self.effective_bandwidth(ctx.shape.endpoint_flows, intra && !self.intra_uses_nic_path);
        let mut wire = latency + pkts * per_pkt + bytes as f64 / bw;

        // Multiplicative jitter, log-triangular, clamped.
        let sigma = self.jitter_sigma(ctx);
        let z = rng.next_triangular();
        let factor = (sigma * z).exp().clamp(0.5, 6.0);
        wire *= factor;

        // Tiny-message pathology (delayed ACK / Nagle interactions):
        // only repeated small-packet streams trigger the timers. The
        // stall is one minimum-RTO period, which for the TCP family is
        // the calibrated small_msg_penalty.
        if bytes <= 64 && ctx.shape.repeated_small && self.small_msg_penalty > 0.0 {
            let excess = ctx
                .shape
                .participants
                .saturating_sub(self.small_msg_flow_floor) as f64;
            let prob = (self.small_msg_penalty_prob_per_flow * excess).min(0.5);
            if rng.next_f64() < prob {
                wire += self.rto_floor();
            }
        }

        if fault.wire_factor != 1.0 {
            wire *= fault.wire_factor;
        }

        // Explicit packet-loss retransmission: each round loses a
        // packet with probability derived from the per-packet loss
        // rate, waits out the (backed-off) retransmission timer, and
        // resends what was lost.
        let mut retransmits = 0u32;
        let mut delivered = true;
        if fault.loss > 0.0 {
            let mut pkts_left = pkts;
            loop {
                let p_round = 1.0 - (1.0 - fault.loss).powf(pkts_left);
                if rng.next_f64() >= p_round {
                    break;
                }
                if retransmits >= fault.max_retransmits {
                    delivered = !fault.give_up;
                    break;
                }
                wire += self.rto(retransmits);
                pkts_left = (pkts_left * fault.loss).max(1.0);
                wire += latency + pkts_left * per_pkt + pkts_left * self.pkt_size as f64 / bw;
                retransmits += 1;
            }
        }

        FaultyTransfer {
            time: TransferTime {
                wire,
                send_overhead: self.send_overhead,
                recv_overhead: self.recv_overhead,
            },
            retransmits,
            delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx1() -> TransferCtx {
        TransferCtx {
            shape: OpShape::p2p(),
            src_ranks_per_node: 1,
            dst_ranks_per_node: 1,
            same_node: false,
        }
    }

    fn mean_wire(p: &NetworkParams, bytes: usize, ctx: &TransferCtx) -> f64 {
        let mut sum = 0.0;
        let n = 400;
        for i in 0..n {
            let mut rng = SplitMix64::for_message(1, 0, 1, i);
            sum += p.transfer(bytes, ctx, &mut rng).wire;
        }
        sum / n as f64
    }

    #[test]
    fn more_bytes_never_faster() {
        for kind in NetworkKind::ALL {
            let p = kind.params();
            let mut rng_a = SplitMix64::for_message(1, 0, 1, 7);
            let mut rng_b = SplitMix64::for_message(1, 0, 1, 7);
            let small = p.transfer(1_000, &ctx1(), &mut rng_a).wire;
            let big = p.transfer(1_000_000, &ctx1(), &mut rng_b).wire;
            assert!(big > small, "{kind:?}");
        }
    }

    #[test]
    fn bandwidth_asymptote_is_close_to_nominal() {
        for kind in [NetworkKind::ScoreGigE, NetworkKind::MyrinetGm] {
            let p = kind.params();
            let bytes = 8_000_000;
            let t = mean_wire(&p, bytes, &ctx1());
            let achieved = bytes as f64 / t;
            assert!(
                achieved > 0.6 * p.bandwidth && achieved < 1.2 * p.bandwidth,
                "{kind:?}: achieved {achieved:.3e} vs nominal {:.3e}",
                p.bandwidth
            );
        }
    }

    #[test]
    fn latency_dominates_small_messages() {
        for kind in NetworkKind::ALL {
            let p = kind.params();
            let mut rng = SplitMix64::for_message(1, 0, 1, 3);
            let t = p.transfer(8, &ctx1(), &mut rng).wire;
            assert!(t >= 0.5 * p.latency, "{kind:?}");
            assert!(t < 40.0 * p.latency + p.small_msg_penalty, "{kind:?}: {t}");
        }
    }

    #[test]
    fn tcp_incast_collapse_at_high_endpoint_flows() {
        let p = NetworkKind::TcpGigE.params();
        let bw1 = p.effective_bandwidth(1, false);
        let bw7 = p.effective_bandwidth(7, false);
        assert!(bw7 < bw1 / 3.0, "bw1 {bw1:.3e} bw7 {bw7:.3e}");
        // SCore on the same wire barely degrades.
        let s = NetworkKind::ScoreGigE.params();
        assert!(s.effective_bandwidth(7, false) > 0.7 * s.effective_bandwidth(1, false));
    }

    #[test]
    fn tcp_variability_grows_with_participants() {
        let p = NetworkKind::TcpGigE.params();
        let spread = |participants: usize| {
            let ctx = TransferCtx {
                shape: OpShape::new(1, participants),
                ..ctx1()
            };
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for i in 0..300 {
                let mut rng = SplitMix64::for_message(5, 0, 1, i);
                let t = p.transfer(100_000, &ctx, &mut rng).wire;
                lo = lo.min(t);
                hi = hi.max(t);
            }
            hi / lo
        };
        assert!(
            spread(8) > 2.0 * spread(2),
            "{} vs {}",
            spread(8),
            spread(2)
        );
    }

    #[test]
    fn smp_hurts_tcp_but_not_myrinet() {
        let ctx_smp = TransferCtx {
            shape: OpShape::p2p(),
            src_ranks_per_node: 2,
            dst_ranks_per_node: 2,
            same_node: false,
        };
        let tcp = NetworkKind::TcpGigE.params();
        let myri = NetworkKind::MyrinetGm.params();
        let t_tcp_uni = mean_wire(&tcp, 200_000, &ctx1());
        let t_tcp_smp = mean_wire(&tcp, 200_000, &ctx_smp);
        let t_my_uni = mean_wire(&myri, 200_000, &ctx1());
        let t_my_smp = mean_wire(&myri, 200_000, &ctx_smp);
        assert!(
            t_tcp_smp > 1.3 * t_tcp_uni,
            "tcp {t_tcp_uni} -> {t_tcp_smp}"
        );
        assert!(
            t_my_smp < 1.2 * t_my_uni,
            "myrinet {t_my_uni} -> {t_my_smp}"
        );
    }

    #[test]
    fn small_message_penalty_only_on_tcp_family() {
        let ctx = TransferCtx {
            shape: OpShape::repeated(1, 8),
            ..ctx1()
        };
        let hit_rate = |kind: NetworkKind| {
            let p = kind.params();
            let mut hits = 0;
            for i in 0..2000 {
                let mut rng = SplitMix64::for_message(9, 0, 1, i);
                if p.transfer(1, &ctx, &mut rng).wire > p.small_msg_penalty.max(1e-3) {
                    hits += 1;
                }
            }
            hits
        };
        assert!(hit_rate(NetworkKind::TcpGigE) > 50);
        assert_eq!(hit_rate(NetworkKind::MyrinetGm), 0);
        assert_eq!(hit_rate(NetworkKind::ScoreGigE), 0);
    }

    #[test]
    fn isolated_tiny_messages_escape_the_penalty() {
        // Barrier-style control hops (not repeated streams) never hit
        // the delayed-ACK pathology, even at scale.
        let p = NetworkKind::TcpGigE.params();
        let ctx = TransferCtx {
            shape: OpShape::new(1, 8),
            ..ctx1()
        };
        for i in 0..2000 {
            let mut rng = SplitMix64::for_message(9, 0, 1, i);
            let t = p.transfer(1, &ctx, &mut rng).wire;
            assert!(t < p.small_msg_penalty, "hit at i={i}: {t}");
        }
    }

    #[test]
    fn intra_node_shared_memory_is_fast_for_san() {
        let p = NetworkKind::MyrinetGm.params();
        let ctx_intra = TransferCtx {
            shape: OpShape::p2p(),
            src_ranks_per_node: 2,
            dst_ranks_per_node: 2,
            same_node: true,
        };
        let t_intra = mean_wire(&p, 100_000, &ctx_intra);
        let t_inter = mean_wire(&p, 100_000, &ctx1());
        assert!(t_intra < t_inter, "{t_intra} vs {t_inter}");
    }

    #[test]
    fn fast_ethernet_slower_than_gige_for_bulk() {
        let fe = NetworkKind::FastEthernet.params();
        let ge = NetworkKind::TcpGigE.params();
        assert!(mean_wire(&fe, 1_000_000, &ctx1()) > mean_wire(&ge, 1_000_000, &ctx1()));
    }

    #[test]
    fn wide_area_is_orders_of_magnitude_slower() {
        let wan = NetworkKind::WideArea.params();
        let lan = NetworkKind::TcpGigE.params();
        assert!(wan.latency > 50.0 * lan.latency);
        assert!(mean_wire(&wan, 1_000_000, &ctx1()) > 10.0 * mean_wire(&lan, 1_000_000, &ctx1()));
    }

    #[test]
    fn packets_round_up() {
        let p = NetworkKind::TcpGigE.params();
        assert_eq!(p.packets(1), 1);
        assert_eq!(p.packets(1460), 1);
        assert_eq!(p.packets(1461), 2);
        assert_eq!(p.packets(0), 1);
    }

    #[test]
    fn clean_fault_is_bit_identical_to_transfer() {
        for kind in NetworkKind::ALL {
            let p = kind.params();
            for bytes in [1usize, 64, 1460, 100_000] {
                for i in 0..50 {
                    let mut rng_a = SplitMix64::for_message(11, 0, 1, i);
                    let mut rng_b = SplitMix64::for_message(11, 0, 1, i);
                    let plain = p.transfer(bytes, &ctx1(), &mut rng_a);
                    let faulty = p.transfer_faulty(bytes, &ctx1(), &mut rng_b, &LinkFault::clean());
                    assert_eq!(plain.wire.to_bits(), faulty.time.wire.to_bits(), "{kind:?}");
                    assert_eq!(faulty.retransmits, 0);
                    assert!(faulty.delivered);
                    // Both must leave the RNG in the same state.
                    assert_eq!(rng_a.next_u64(), rng_b.next_u64());
                }
            }
        }
    }

    #[test]
    fn loss_adds_retransmission_cost() {
        let p = NetworkKind::TcpGigE.params();
        let lossy = LinkFault {
            loss: 0.3,
            wire_factor: 1.0,
            max_retransmits: crate::faults::MAX_RETRANSMIT_ROUNDS,
            give_up: false,
        };
        let mut clean_sum = 0.0;
        let mut lossy_sum = 0.0;
        let mut any_retransmit = false;
        for i in 0..400 {
            let mut rng_a = SplitMix64::for_message(13, 0, 1, i);
            let mut rng_b = SplitMix64::for_message(13, 0, 1, i);
            let clean = p.transfer(100_000, &ctx1(), &mut rng_a).wire;
            let f = p.transfer_faulty(100_000, &ctx1(), &mut rng_b, &lossy);
            assert!(f.delivered);
            assert!(f.time.wire >= clean);
            any_retransmit |= f.retransmits > 0;
            clean_sum += clean;
            lossy_sum += f.time.wire;
        }
        assert!(any_retransmit);
        assert!(
            lossy_sum > clean_sum + 400.0 * 0.1 * p.rto_floor(),
            "{lossy_sum} vs {clean_sum}"
        );
    }

    #[test]
    fn rto_backs_off_exponentially_and_caps() {
        for kind in NetworkKind::ALL {
            let p = kind.params();
            assert!(p.rto_floor() > 0.0, "{kind:?}");
            assert_eq!(p.rto(0), p.rto_floor().min(p.rto_max));
            assert!(p.rto(1) >= p.rto(0));
            assert!((p.rto(1) - (p.rto_floor() * p.rto_backoff).min(p.rto_max)).abs() < 1e-12);
            assert_eq!(p.rto(60), p.rto_max);
        }
        // TCP family: the floor is exactly the calibrated delayed-ACK
        // penalty, which is what keeps baselines bit-identical.
        let tcp = NetworkKind::TcpGigE.params();
        assert_eq!(tcp.rto_floor(), tcp.small_msg_penalty);
    }

    #[test]
    fn opaque_link_gives_up_after_max_retransmits() {
        let p = NetworkKind::TcpGigE.params();
        let fault = LinkFault {
            loss: 1.0,
            wire_factor: 1.0,
            max_retransmits: 3,
            give_up: true,
        };
        let mut rng = SplitMix64::for_message(17, 0, 1, 0);
        let f = p.transfer_faulty(10_000, &ctx1(), &mut rng, &fault);
        assert!(!f.delivered);
        assert_eq!(f.retransmits, 3);
    }

    #[test]
    fn reliable_mode_always_delivers_with_bounded_stall() {
        let p = NetworkKind::TcpGigE.params();
        let fault = LinkFault {
            loss: 1.0,
            wire_factor: 1.0,
            max_retransmits: crate::faults::MAX_RETRANSMIT_ROUNDS,
            give_up: false,
        };
        let mut rng = SplitMix64::for_message(17, 0, 1, 1);
        let f = p.transfer_faulty(10_000, &ctx1(), &mut rng, &fault);
        assert!(f.delivered);
        assert_eq!(f.retransmits, crate::faults::MAX_RETRANSMIT_ROUNDS);
        assert!(f.time.wire.is_finite());
    }

    #[test]
    fn degraded_wire_factor_scales_wire_time() {
        let p = NetworkKind::ScoreGigE.params();
        let mut rng_a = SplitMix64::for_message(19, 0, 1, 0);
        let mut rng_b = SplitMix64::for_message(19, 0, 1, 0);
        let clean = p.transfer(50_000, &ctx1(), &mut rng_a).wire;
        let fault = LinkFault {
            wire_factor: 2.5,
            ..LinkFault::clean()
        };
        let degraded = p
            .transfer_faulty(50_000, &ctx1(), &mut rng_b, &fault)
            .time
            .wire;
        assert!((degraded - 2.5 * clean).abs() < 1e-12 * degraded.abs().max(1.0));
    }
}
