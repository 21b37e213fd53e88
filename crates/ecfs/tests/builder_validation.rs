//! Builder-validation integration tests: every config builder rejects
//! nonsense with a useful error and accepts the paper's shapes.

use ecfs::prelude::*;
use tsue::engine::EngineConfig;

fn code64() -> CodeParams {
    CodeParams::new(6, 4).unwrap()
}

#[test]
fn cluster_builder_accepts_paper_shapes() {
    for (k, m) in [(6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4)] {
        for method in Method::ALL {
            let cfg = ClusterConfig::builder()
                .code(CodeParams::new(k, m).unwrap())
                .method(method)
                .build()
                .unwrap_or_else(|e| panic!("RS({k},{m}) x {}: {e}", method.name()));
            assert_eq!(cfg.method, method);
            assert_eq!(cfg.nodes, 16);
        }
    }
}

#[test]
fn cluster_builder_rejects_with_reasons() {
    // Too few nodes for the stripe width.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .nodes(6)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("cannot hold"), "{err}");

    // Zero clients.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .clients(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("client"), "{err}");

    // Unaligned block size.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .block_bytes(6000)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("4 KiB"), "{err}");

    // TSUE log unit below the slice granularity.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Tsue)
        .tsue_unit_bytes(100)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("slice"), "{err}");

    // A TSUE pool quota that leaves no unit to append while one recycles.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Tsue)
        .tsue_max_units(1)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("tsue_max_units"), "{err}");

    // Dead network.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Tsue)
        .net_bandwidth(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("bandwidth"), "{err}");

    // A read cache smaller than one 4 KiB page; one page is the minimum.
    for bytes in [0, 16, 4095] {
        let err = ClusterConfig::builder()
            .code(code64())
            .method(Method::Fo)
            .read_cache_bytes(bytes)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("read_cache_bytes"), "{err}");
    }
    let cfg = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .read_cache_bytes(4096)
        .build()
        .expect("one page is enough");
    assert_eq!(cfg.read_cache_bytes, Some(4096));

    // Zero racks.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .racks(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("racks"), "{err}");

    // More racks than nodes.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .racks(17)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("racks"), "{err}");

    // Sub-unity (and non-finite) oversubscription.
    for bad in [0.5, 0.0, f64::NAN, f64::INFINITY] {
        let err = ClusterConfig::builder()
            .code(code64())
            .method(Method::Fo)
            .racks(4)
            .oversubscription(bad)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("oversubscription"), "{err}");
    }

    // A placement the rack shape cannot satisfy: RS(6,4) rack-local needs
    // 4 parity slots in one rack, but 16 nodes / 8 racks = 2 per rack.
    let err = ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .racks(8)
        .placement(Placement::RackLocal)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("rack-local"), "{err}");
}

#[test]
fn cluster_builder_topology_overrides_apply() {
    let cfg = ClusterConfig::builder()
        .code(code64())
        .method(Method::Tsue)
        .racks(4)
        .oversubscription(4.0)
        .placement(Placement::RackAware)
        .build()
        .unwrap();
    assert_eq!(cfg.racks, 4);
    assert_eq!(cfg.placement.name(), "rack-aware");
    let topo = cfg.topology();
    assert_eq!(topo.racks(), 4);
    assert_eq!(topo.endpoints(), cfg.endpoints());
    // OSDs 0..16 split 4-per-rack contiguously; clients round-robin.
    assert_eq!(topo.rack_of(0), 0);
    assert_eq!(topo.rack_of(15), 3);
    assert_eq!(topo.rack_of(cfg.client_endpoint(0)), 0);
    assert_eq!(topo.rack_of(cfg.client_endpoint(5)), 1);
    // The racked cluster constructs and places across racks.
    let cl = Cluster::new(cfg);
    assert_eq!(cl.layout.racks().racks(), 4);
    assert_eq!(cl.net.topology().racks(), 4);
}

#[test]
fn cluster_builder_overrides_apply() {
    let cfg = ClusterConfig::builder()
        .code(code64())
        .method(Method::Tsue)
        .nodes(24)
        .clients(48)
        .tsue(TsueFeatures::baseline())
        .tsue_max_units(8)
        .build()
        .unwrap();
    assert_eq!(cfg.nodes, 24);
    assert_eq!(cfg.clients, 48);
    assert_eq!(cfg.tsue, TsueFeatures::baseline());
    assert_eq!(cfg.tsue_max_units, 8);
    // A built cluster actually constructs.
    let cl = Cluster::new(cfg);
    assert_eq!(cl.nodes.len(), 24);
}

#[test]
fn replay_builder_validates_ops_and_volume() {
    let cluster = || ClusterConfig::ssd_testbed(code64(), Method::Tsue);

    let err = ReplayConfig::builder(cluster(), TraceFamily::AliCloud)
        .ops_per_client(0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("ops_per_client"), "{err}");

    let err = ReplayConfig::builder(cluster(), TraceFamily::AliCloud)
        .volume_bytes(1024)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("volume_bytes"), "{err}");

    // An invalid embedded cluster is caught too.
    let mut bad = cluster();
    bad.clients = 0;
    assert!(ReplayConfig::builder(bad, TraceFamily::AliCloud)
        .build()
        .is_err());

    let ok = ReplayConfig::builder(cluster(), TraceFamily::TenCloud)
        .ops_per_client(100)
        .volume_bytes(16 << 20)
        .seed(42)
        .build()
        .unwrap();
    assert_eq!(ok.ops_per_client, 100);
    assert_eq!(ok.seed, 42);
}

#[test]
fn replay_builder_rejects_an_on_off_curve_with_a_silent_burst() {
    let cluster = || ClusterConfig::ssd_testbed(code64(), Method::Fo);
    let open = |on_ops_per_s: f64| {
        ReplayConfig::builder(cluster(), TraceFamily::AliCloud)
            .workload(Workload::Open(OpenLoopSpec::poisson(0.0).with_rate(
                RateCurve::OnOff {
                    on_ops_per_s,
                    off_ops_per_s: 1000.0,
                    period_ns: 1_000_000,
                    duty: 0.5,
                },
            )))
            .build()
    };
    // The mean rate is 500 ops/s, but arrivals hop out of the off phase
    // into a burst that offers nothing: every arrival would land at the
    // end of time.
    let err = open(0.0).unwrap_err();
    assert!(err.to_string().contains("on_ops_per_s"), "{err}");
    open(2000.0).expect("an active burst");
}

#[test]
fn replay_builder_accepts_a_read_cache_with_a_fault_plan() {
    let cached = ClusterConfig::builder()
        .code(code64())
        .method_name("TSUE")
        .read_cache_bytes(64 << 20)
        .build()
        .unwrap();
    ReplayConfig::builder(cached, TraceFamily::AliCloud)
        .faults(FaultPlan::new().fail_node(10_000_000, 3))
        .build()
        .expect("a read cache composes with a fault plan");
}

#[test]
fn replay_builder_rejects_tsue_units_below_the_largest_record() {
    let cluster = |method: &str, unit_bytes: u64| {
        ClusterConfig::builder()
            .code(code64())
            .method_name(method)
            .tsue_unit_bytes(unit_bytes)
            .build()
            .unwrap()
    };
    let build = |cluster, family| ReplayConfig::builder(cluster, family).build();

    // Ali-Cloud issues 256 KiB ops: a 64 KiB unit cannot take one, plain
    // or behind a read cache.
    let mut cached = cluster("TSUE", 64 << 10);
    cached.read_cache_bytes = Some(64 << 20);
    for tsue in [cluster("TSUE", 64 << 10), cached] {
        let err = build(tsue, TraceFamily::AliCloud).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("65536") && msg.contains("262144"), "{msg}");
    }
    // Accept: units that hold the largest op, Ten-Cloud's smaller ops,
    // and methods that keep no TSUE log.
    build(cluster("TSUE", 256 << 10), TraceFamily::AliCloud).expect("256 KiB units");
    build(cluster("TSUE", 128 << 10), TraceFamily::TenCloud).expect("Ten-Cloud ops");
    build(cluster("FO", 64 << 10), TraceFamily::AliCloud).expect("FO has no log units");
}

#[test]
fn engine_builder_validates_pipeline_shape() {
    let code = CodeParams::new(4, 2).unwrap();

    let err = EngineConfig::builder(code).recycler_threads(0).build();
    assert!(err.unwrap_err().to_string().contains("recycler_threads"));

    let err = EngineConfig::builder(code).unit_bytes(16).build();
    assert!(err.unwrap_err().to_string().contains("unit_bytes"));

    let err = EngineConfig::builder(code).max_units(1).build();
    assert!(err.unwrap_err().to_string().contains("max_units"));

    let err = EngineConfig::builder(code).pools_per_layer(0).build();
    assert!(err.unwrap_err().to_string().contains("pools_per_layer"));

    let cfg = EngineConfig::builder(code)
        .block_len(16 << 10)
        .stripes(2)
        .unit_bytes(8 << 10)
        .recycler_threads(2)
        .build()
        .unwrap();
    // The built config drives a working engine.
    let engine = tsue::engine::TsueEngine::new(cfg);
    engine.update(0, 0, 0, &[7; 64]);
    engine.flush();
    assert!(engine.verify_parity());
}

/// A cluster on `ssd` everywhere.
fn ssd_fleet(ssd: SsdConfig) -> Result<ClusterConfig, ConfigError> {
    ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .fleet(DiskFleet::uniform(DiskKind::Ssd(ssd)))
        .build()
}

/// A 16 MiB device: 72 erase blocks, GC keeps 5 free.
fn small_ssd() -> SsdConfig {
    SsdConfig {
        capacity: 16 << 20,
        ..SsdConfig::default()
    }
}

#[test]
fn ssd_gc_threshold_reaching_the_block_count_rejected() {
    // 1.0 would leave GC with no victim after one erase block of writes.
    for bad in [1.0, 0.99, f64::NAN, f64::INFINITY] {
        let err = ssd_fleet(SsdConfig {
            gc_free_threshold: bad,
            ..small_ssd()
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("gc_free_threshold"),
            "{bad}: {err}"
        );
    }
}

#[test]
fn ssd_spare_area_below_the_gc_reserve_rejected() {
    // Negative over-provisioning would loop GC forever; none at all leaves
    // no spare for the blocks GC keeps free.
    for bad in [-0.5, 0.0, 0.05] {
        let err = ssd_fleet(SsdConfig {
            over_provision: bad,
            ..small_ssd()
        })
        .unwrap_err();
        assert!(err.to_string().contains("spare area"), "{bad}: {err}");
    }
}

#[test]
fn ssd_pages_per_block_outside_u16_rejected() {
    for bad in [0, u32::from(u16::MAX) + 1] {
        let err = ssd_fleet(SsdConfig {
            pages_per_block: bad,
            ..small_ssd()
        })
        .unwrap_err();
        assert!(err.to_string().contains("pages_per_block"), "{bad}: {err}");
    }
}

#[test]
fn ssd_devices_in_use_stay_valid() {
    // The default drive, the quarter-size hetero drive, the lifespan,
    // Table 1, mid-run-GC and FTL-test sizes, and a full-size erase block.
    assert!(ssd_fleet(SsdConfig::default()).is_ok());
    let quarter = DiskFleet::explicit(
        (0..16)
            .map(|n| {
                let p = DiskProfile::ssd();
                if n == 0 {
                    p.with_capacity_mult(0.25)
                } else {
                    p
                }
            })
            .collect(),
    );
    assert!(ClusterConfig::builder()
        .code(code64())
        .method(Method::Fo)
        .fleet(quarter)
        .build()
        .is_ok());
    for capacity in [768 << 20, 320 << 20, 16 << 20, 8 << 20, 6 << 20, 4 << 20] {
        let ok = ssd_fleet(SsdConfig {
            capacity,
            ..SsdConfig::default()
        });
        assert!(ok.is_ok(), "{capacity} B: {:?}", ok.err());
    }
    assert!(ssd_fleet(SsdConfig {
        pages_per_block: u32::from(u16::MAX),
        capacity: 4 << 30,
        ..SsdConfig::default()
    })
    .is_ok());
}
