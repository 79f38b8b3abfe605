//! The latency book settles points FIFO from public counter deltas.
//! Each test drives a real engine or topology through the three ways a
//! point leaves the ring: assigned by an inline Block flush, evicted by
//! DropOldest, refused at a quota gate.

use dual_hdc::HdMapper;
use dual_stream::{BackpressurePolicy, StreamConfig, StreamEngine};
use dual_topology::{QuotaSpec, TenantSpec, Topology};
use perfbench::latency::LatencyBook;
use perfbench::workload::System;

fn encoder() -> HdMapper {
    HdMapper::builder(64, 2).seed(7).build().unwrap()
}

fn config(capacity: usize, max_batch: usize, policy: BackpressurePolicy) -> StreamConfig {
    let mut cfg = StreamConfig::new(2);
    cfg.capacity = capacity;
    cfg.max_batch = max_batch;
    cfg.policy = policy;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg
}

fn point(i: usize) -> Vec<f64> {
    let x = i as f64;
    vec![(x * 0.37).sin() * 3.0, (x * 0.11).cos() * 3.0]
}

/// Offer point `i` due at `due` and settle at `now`.
fn push(book: &mut LatencyBook, sys: &mut System, stream: usize, i: usize, due: f64, now: f64) {
    book.offer(stream, due);
    sys.push(stream, &point(i)).unwrap();
    book.settle(stream, sys.seen(stream), now).unwrap();
}

#[test]
fn block_inline_flush_settles_the_oldest_batch_at_the_push() {
    let engine = StreamEngine::new(encoder(), config(4, 2, BackpressurePolicy::Block)).unwrap();
    let mut sys = System::Engine(engine);
    let mut book = LatencyBook::new(vec![sys.seen(0)]);
    for i in 0..4 {
        push(&mut book, &mut sys, 0, i, i as f64, i as f64);
    }
    assert!(book.samples().is_empty());
    // The ring is full: this push cuts the two oldest points inline.
    push(&mut book, &mut sys, 0, 4, 4.0, 10.0);
    assert_eq!(book.samples(), &[10.0, 9.0]);
    sys.drain().unwrap();
    book.settle(0, sys.seen(0), 20.0).unwrap();
    assert_eq!(book.samples(), &[10.0, 9.0, 18.0, 17.0, 16.0]);
    assert_eq!(book.failed(), 0);
    assert_eq!(book.outstanding(), 0);
}

#[test]
fn drop_oldest_eviction_fails_the_head_of_the_queue() {
    let engine =
        StreamEngine::new(encoder(), config(2, 8, BackpressurePolicy::DropOldest)).unwrap();
    let mut sys = System::Engine(engine);
    let mut book = LatencyBook::new(vec![sys.seen(0)]);
    for i in 0..3 {
        push(&mut book, &mut sys, 0, i, i as f64, i as f64);
    }
    // Point 0 was evicted; points 1 and 2 remain, in order.
    assert_eq!(book.failed(), 1);
    sys.drain().unwrap();
    book.settle(0, sys.seen(0), 5.0).unwrap();
    assert_eq!(book.samples(), &[4.0, 3.0]);
    let all = book.with_failures();
    assert_eq!(all.len(), 3);
    assert!(all[2].is_infinite());
}

#[test]
fn quota_reject_fails_the_point_just_offered() {
    let mut topo = Topology::new();
    topo.add_tenant(
        TenantSpec::new("wal", config(8, 2, BackpressurePolicy::Block))
            .with_quota(QuotaSpec::per_tick(0.0)),
        encoder(),
    )
    .unwrap();
    let mut sys = System::Topology(topo);
    let mut book = LatencyBook::new(vec![sys.seen(0)]);
    push(&mut book, &mut sys, 0, 0, 0.0, 0.0);
    push(&mut book, &mut sys, 0, 1, 1.0, 1.0);
    // The tick cuts the full batch and spends past the zero credit.
    sys.tick().unwrap();
    book.settle(0, sys.seen(0), 3.0).unwrap();
    assert_eq!(book.samples(), &[3.0, 2.0]);
    push(&mut book, &mut sys, 0, 2, 4.0, 4.0);
    assert_eq!(book.failed(), 1);
    assert_eq!(book.outstanding(), 0);
}

#[test]
fn a_counter_moving_past_the_outstanding_points_is_an_error() {
    let engine = StreamEngine::new(encoder(), config(4, 2, BackpressurePolicy::Block)).unwrap();
    let mut sys = System::Engine(engine);
    let mut book = LatencyBook::new(vec![sys.seen(0)]);
    // Pushed without offering: the book cannot account for the points.
    sys.push(0, &point(0)).unwrap();
    sys.push(0, &point(1)).unwrap();
    sys.drain().unwrap();
    assert!(book.settle(0, sys.seen(0), 1.0).is_err());
}
