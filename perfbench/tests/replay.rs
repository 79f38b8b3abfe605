//! The layer-by-layer replay reproduces the engine bit for bit under
//! every backpressure policy, including the ones the named workloads
//! reach only through a quota.

use dual_stream::{BackpressurePolicy, StreamEngine};
use perfbench::replay::ShadowEngine;
use perfbench::spans::Spans;
use perfbench::workload::{Workload, WORKLOADS};

fn tiny() -> Workload {
    Workload {
        name: "tiny",
        dim: 200,
        features: 3,
        blobs: 3,
        k: 3,
        centroids_per_cluster: 2,
        batch: 8,
        threads: 2,
        shards: 2,
        sigma: 4.0,
        tenants: false,
        tick_every: 5,
        firehose_points: 120,
        heldout_points: 0,
        offered_rate: 1.0,
    }
}

#[test]
fn replay_matches_the_engine_under_every_policy() {
    let w = tiny();
    let (points, _) = w.inputs(3, w.firehose_points);
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::Reject,
    ] {
        let mut cfg = w.stream_config();
        cfg.capacity = 12;
        cfg.policy = policy;
        let mut engine = StreamEngine::new(w.encoder(), cfg.clone()).unwrap();
        let mut shadow = ShadowEngine::new(&w, cfg, None);
        let mut spans = Spans::new();
        for (i, p) in points.iter().enumerate() {
            engine.push(p).unwrap();
            shadow.push(p, policy, &mut spans).unwrap();
            if (i + 1) % w.tick_every == 0 && i % 3 != 0 {
                engine.tick().unwrap();
                shadow.tick(&mut spans).unwrap();
            }
        }
        engine.drain().unwrap();
        shadow.drain(&mut spans).unwrap();
        shadow.verify(&engine).unwrap();
        assert_eq!(shadow.work.offered, points.len() as u64);
        let c = engine.counters();
        match policy {
            BackpressurePolicy::Block => assert!(c.inline_flushes > 0),
            BackpressurePolicy::DropOldest => assert!(c.dropped > 0),
            BackpressurePolicy::Reject => assert!(c.rejected > 0),
        }
    }
}

#[test]
fn replay_matches_a_fault_injected_engine() {
    let mut w = tiny();
    w.threads = 1;
    let (points, _) = w.inputs(5, w.firehose_points);
    let cfg = w.stream_config();
    let mut engine = StreamEngine::new(w.encoder(), cfg.clone())
        .unwrap()
        .with_fault_injection(w.fault_config())
        .unwrap();
    let mut shadow = ShadowEngine::new(&w, cfg.clone(), Some(w.fault_config()));
    let mut spans = Spans::new();
    for (i, p) in points.iter().enumerate() {
        engine.push(p).unwrap();
        shadow.push(p, cfg.policy, &mut spans).unwrap();
        if (i + 1) % w.tick_every == 0 {
            engine.tick().unwrap();
            shadow.tick(&mut spans).unwrap();
        }
    }
    engine.drain().unwrap();
    shadow.drain(&mut spans).unwrap();
    shadow.verify(&engine).unwrap();
    assert!(shadow.work.injected > 0);
    assert!(spans.totals()["fault.sense"].count > 0);
}

#[test]
fn workload_names_are_unique_and_resolvable() {
    for w in WORKLOADS {
        assert_eq!(Workload::named(w.name), Some(w));
        assert!(w.heldout_points > 0 && w.firehose_points % w.streams() == 0);
    }
    assert_eq!(Workload::named("nope"), None);
}
