//! Property tests for the interconnect (deterministic cases via
//! `ccsim_util::check`).

use ccsim_network::{Delivery, FaultStats, Network};
use ccsim_types::{FaultConfig, LatencyConfig, MsgKind, NodeId, Topology};
use ccsim_util::check::{cases, Gen};

const KINDS: [MsgKind; 6] = [
    MsgKind::ReadReq,
    MsgKind::ReadReply,
    MsgKind::Inval,
    MsgKind::InvalAck,
    MsgKind::WriteMissReply,
    MsgKind::Retry,
];

fn msg(g: &mut Gen) -> (u64, u16, u16, usize) {
    (
        g.below(10_000),
        g.below(8) as u16,
        g.below(8) as u16,
        g.urange(0, KINDS.len()),
    )
}

/// Arrivals never precede sends, and remote arrivals pay at least one full
/// traversal — under both topologies.
#[test]
fn arrival_bounds() {
    cases(256, |g| {
        let topo = if g.bool() {
            Topology::Mesh2D { width: 4 }
        } else {
            Topology::PointToPoint
        };
        let len = g.urange(1, 200);
        let seq = g.vec(len, msg);
        let mut n = Network::with_topology(8, LatencyConfig::default(), 32, topo);
        for (now, from, to, k) in seq {
            let t = n.send(now, NodeId(from), NodeId(to), KINDS[k]);
            if from == to {
                assert_eq!(t, now, "intra-node transfers are free");
            } else {
                let hops = topo.hops(NodeId(from), NodeId(to));
                assert!(
                    t >= now + 40 * hops,
                    "arrival {t} earlier than {hops} uncongested hops from {now}"
                );
            }
        }
    });
}

/// Traffic accounting: total bytes equal the sum of per-message sizes, and
/// message counts match the number of remote sends.
#[test]
fn traffic_accounting_is_exact() {
    cases(256, |g| {
        let len = g.urange(1, 200);
        let seq = g.vec(len, msg);
        let mut n = Network::new(8, LatencyConfig::default(), 32);
        let mut bytes = 0u64;
        let mut remote = 0u64;
        let mut invals = 0u64;
        for (now, from, to, k) in seq {
            n.send(now, NodeId(from), NodeId(to), KINDS[k]);
            if from != to {
                remote += 1;
                bytes += KINDS[k].size_bytes(32);
                if KINDS[k].is_invalidation() {
                    invals += 1;
                }
            }
        }
        assert_eq!(n.traffic().total_messages(), remote);
        assert_eq!(n.traffic().total_bytes(), bytes);
        assert_eq!(n.traffic().invalidations(), invals);
    });
}

/// NI busy time is monotone: sending more never frees the NI earlier.
#[test]
fn ni_occupancy_is_monotone() {
    cases(256, |g| {
        let len = g.urange(1, 100);
        let seq = g.vec(len, msg);
        let mut n = Network::new(8, LatencyConfig::default(), 32);
        let mut last = [0u64; 8];
        for (now, from, to, k) in seq {
            n.send(now, NodeId(from), NodeId(to), KINDS[k]);
            for node in 0..8u16 {
                let free = n.ni_free_at(NodeId(node));
                assert!(free >= last[node as usize]);
                last[node as usize] = free;
            }
        }
    });
}

/// A random fault plan applied to a random request schedule twice produces
/// identical `Delivery` sequences and fault statistics: the plan's
/// randomness is fully determined by its seed.
#[test]
fn identical_seeds_give_identical_delivery_sequences() {
    cases(128, |g| {
        let plan = FaultConfig {
            nack_per_mille: g.below(500) as u16,
            delay_per_mille: g.below(500) as u16,
            drop_per_mille: g.below(500) as u16,
            dup_per_mille: g.below(500) as u16,
            reorder_per_mille: g.below(500) as u16,
            max_delay_cycles: 1 + g.below(50),
            max_consecutive_nacks: 1 + g.below(8) as u32,
            seed: g.u64(),
            ..FaultConfig::default()
        };
        let len = g.urange(1, 60);
        let seq = g.vec(len, msg);
        let run = |seq: &[(u64, u16, u16, usize)]| -> (Vec<Delivery>, FaultStats) {
            let mut n = Network::new(8, LatencyConfig::default(), 32);
            n.install_faults(plan);
            let ds = seq
                .iter()
                .map(|&(now, from, to, k)| n.send_request(now, NodeId(from), NodeId(to), KINDS[k]))
                .collect();
            (ds, n.fault_stats())
        };
        assert_eq!(
            run(&seq),
            run(&seq),
            "same plan + same schedule = same faults"
        );
    });
}

/// Transport fault streams are per-(src,dst): a flow's deliveries are
/// unchanged by arbitrary traffic on a node-disjoint flow.
#[test]
fn distinct_flows_have_disjoint_fault_streams() {
    cases(128, |g| {
        let plan = FaultConfig {
            drop_per_mille: g.below(600) as u16,
            dup_per_mille: g.below(600) as u16,
            reorder_per_mille: g.below(600) as u16,
            max_consecutive_nacks: 1 + g.below(8) as u32,
            seed: g.u64(),
            ..FaultConfig::default()
        };
        let len = g.urange(1, 40);
        // Probe flow 0->1; interference flow 2->3 (disjoint NIs and links
        // under point-to-point, so only the fault streams could couple them).
        let probe: Vec<u64> = g.vec(len, |g| g.below(5_000));
        let noise: Vec<bool> = g.vec(len, Gen::bool);
        let run = |with_noise: bool| -> Vec<Delivery> {
            let mut n = Network::new(8, LatencyConfig::default(), 32);
            n.install_faults(plan);
            probe
                .iter()
                .zip(&noise)
                .map(|(&now, &interleave)| {
                    if with_noise && interleave {
                        let _ = n.send_request(now, NodeId(2), NodeId(3), MsgKind::WriteMissReq);
                    }
                    n.send_request(now, NodeId(0), NodeId(1), MsgKind::ReadReq)
                })
                .collect()
        };
        assert_eq!(
            run(false),
            run(true),
            "traffic on flow 2->3 must not perturb flow 0->1"
        );
    });
}

/// Mesh routes always reach their destination through adjacent links and
/// cost exactly the Manhattan distance.
#[test]
fn mesh_routes_are_shortest() {
    cases(256, |g| {
        let from = g.below(16) as u16;
        let to = g.below(16) as u16;
        let width = *g.pick(&[1u16, 2, 4]); // divisors of 16: full rows only
        let t = Topology::Mesh2D { width };
        let route = t.route(NodeId(from), NodeId(to));
        assert_eq!(route.count() as u64, t.hops(NodeId(from), NodeId(to)));
        let mut cur = NodeId(from);
        for (a, b) in route {
            assert_eq!(a, cur);
            assert_eq!(t.hops(a, b), 1);
            cur = b;
        }
        if from != to {
            assert_eq!(cur, NodeId(to));
        }
    });
}
