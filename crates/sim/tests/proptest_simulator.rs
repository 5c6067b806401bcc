//! Property tests: the congestion-aware simulator against closed-form
//! analytic expectations on structured inputs.

use proptest::prelude::*;
use tacos_collective::algorithm::{AlgorithmBuilder, TransferKind};
use tacos_collective::ChunkId;
use tacos_sim::{RouteModel, SimConfig, Simulator};
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation, Time, Topology};

proptest! {
    /// K dependency-free messages on one link serialize exactly:
    /// total = K · (α + β·size).
    #[test]
    fn serialization_is_exact(
        k in 1u32..40,
        size_kb in 1u64..4096,
        alpha_ns in 1.0f64..5000.0,
        gbps in 1.0f64..400.0,
    ) {
        let spec = LinkSpec::new(Time::from_nanos(alpha_ns), Bandwidth::gbps(gbps));
        let topo = Topology::ring(2, spec, RingOrientation::Bidirectional).unwrap();
        let size = ByteSize::kb(size_kb);
        let mut b = AlgorithmBuilder::new("serial", 2, size, size * u64::from(k));
        for c in 0..k {
            b.push(ChunkId::new(c), NpuId::new(0), NpuId::new(1), TransferKind::Copy, vec![]);
        }
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        prop_assert_eq!(report.collective_time(), spec.cost(size) * u64::from(k));
        prop_assert_eq!(report.messages(), u64::from(k));
    }

    /// A linear dependency chain across distinct links costs the sum of
    /// its hops, regardless of link order.
    #[test]
    fn dependency_chain_is_sum(n in 3usize..10, size_kb in 1u64..1024) {
        let spec = LinkSpec::new(Time::from_nanos(200.0), Bandwidth::gbps(50.0));
        let topo = Topology::ring(n, spec, RingOrientation::Unidirectional).unwrap();
        let size = ByteSize::kb(size_kb);
        let mut b = AlgorithmBuilder::new("chain", n, size, size);
        let mut dep = None;
        for i in 0..n - 1 {
            let id = b.push(
                ChunkId::new(0),
                NpuId::new(i as u32),
                NpuId::new((i + 1) as u32),
                TransferKind::Copy,
                dep.as_slice(),
            );
            dep = Some(id);
        }
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        prop_assert_eq!(report.collective_time(), spec.cost(size) * (n as u64 - 1));
    }

    /// Cut-through never takes longer than store-and-forward, and both
    /// agree for single-hop transfers.
    #[test]
    fn cut_through_dominates(n in 4usize..10, hops in 2usize..6, size_kb in 1u64..512) {
        let spec = LinkSpec::new(Time::from_nanos(500.0), Bandwidth::gbps(25.0));
        let topo = Topology::ring(n, spec, RingOrientation::Unidirectional).unwrap();
        let size = ByteSize::kb(size_kb);
        let hops = hops.min(n - 1);
        let mut b = AlgorithmBuilder::new("route", n, size, size);
        b.push(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(hops as u32),
            TransferKind::Copy,
            vec![],
        );
        let algo = b.build();
        let ct = Simulator::new().simulate(&topo, &algo).unwrap().collective_time();
        let sf = Simulator::with_config(
            SimConfig::default().with_route_model(RouteModel::StoreAndForward),
        )
        .simulate(&topo, &algo)
        .unwrap()
        .collective_time();
        prop_assert!(ct <= sf);
        // Exactly (hops-1) alphas apart.
        prop_assert_eq!(sf - ct, Time::from_nanos(500.0) * (hops as u64 - 1));
    }

    /// Byte conservation: single-hop loads put exactly payload bytes on
    /// links; busy time equals messages x cost on each link.
    #[test]
    fn bytes_and_busy_account(k in 1u32..30) {
        let spec = LinkSpec::new(Time::from_nanos(100.0), Bandwidth::gbps(100.0));
        let topo = Topology::fully_connected(4, spec).unwrap();
        let size = ByteSize::kb(100);
        let mut b = AlgorithmBuilder::new("acct", 4, size, size * u64::from(k));
        let mut state = 0x9e3779b97f4a7c15u64;
        for c in 0..k {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let src = (state % 4) as u32;
            let dst = ((state >> 8) % 4) as u32;
            if src != dst {
                b.push(ChunkId::new(c), NpuId::new(src), NpuId::new(dst), TransferKind::Copy, vec![]);
            }
        }
        let algo = b.build();
        let report = Simulator::new().simulate(&topo, &algo).unwrap();
        let expected: u64 = algo.len() as u64 * size.as_u64();
        prop_assert_eq!(report.link_bytes().iter().sum::<u64>(), expected);
        let total_busy: u64 = report.link_busy().iter().map(|t| t.as_ps()).sum();
        prop_assert_eq!(total_busy, spec.cost(size).as_ps() * algo.len() as u64);
    }

    /// Utilization metrics are bounded and consistent with the timeline.
    #[test]
    fn utilization_bounds(k in 1u32..20, bins in 1usize..50) {
        let spec = LinkSpec::new(Time::from_nanos(100.0), Bandwidth::gbps(100.0));
        let topo = Topology::ring(4, spec, RingOrientation::Bidirectional).unwrap();
        let size = ByteSize::kb(64);
        let mut b = AlgorithmBuilder::new("util", 4, size, size * u64::from(k));
        for c in 0..k {
            b.push(
                ChunkId::new(c),
                NpuId::new(c % 4),
                NpuId::new((c + 1) % 4),
                TransferKind::Copy,
                vec![],
            );
        }
        let report = Simulator::new().simulate(&topo, &b.build()).unwrap();
        let avg = report.average_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&avg));
        let tl = report.utilization_timeline(bins);
        prop_assert_eq!(tl.len(), bins);
        for v in &tl {
            prop_assert!((0.0..=1.0 + 1e-9).contains(v));
        }
        // Timeline average equals overall average utilization.
        let tl_avg: f64 = tl.iter().sum::<f64>() / bins as f64;
        prop_assert!((tl_avg - avg).abs() < 1e-6, "tl {tl_avg} vs avg {avg}");
    }
}
