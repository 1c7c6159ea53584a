//! Allocation regression gate for the zero-materialization wire path.
//!
//! The packed consume pipeline — admit (CRC + structural validation) →
//! streamed view-based checking — is designed to perform no heap
//! allocation per packet in the steady state: events are checked
//! straight from the packet bytes, no `WireItem` batch is built, and
//! every ring/histogram the observability layer touches is fixed-size.
//! This test pins that property with a counting global allocator: after
//! a warmup prefix (REF page first-touch, pool growth, metric
//! registration), ingesting the remaining packets must allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use difftest_core::consume::{NoCharge, Step};
use difftest_core::link::QueueSink;
use difftest_core::session::{DiffConfig, Session};
use difftest_core::transport::Transfer;
use difftest_dut::DutConfig;
use difftest_stats::{FlightRecorder, PhaseTimer};
use difftest_workload::Workload;

/// Counts every allocation and reallocation crossing the global
/// allocator (deallocations are free to the gate: recycling is fine,
/// acquiring is not).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the producer side to completion, collecting every packet.
fn produce(session: &Session) -> Vec<Transfer> {
    let mut p = session.producer(vec![session.lane(None, QueueSink::default())]);
    let (mut timer, mut rec) = (PhaseTimer::monotonic(), FlightRecorder::default());
    p.run(&AtomicBool::new(false), &mut timer, &mut rec);
    std::mem::take(&mut p.link_mut(0).sink_mut().queue)
}

#[test]
fn packed_consume_steady_state_allocates_nothing() {
    let w = Workload::microbench().seed(3).iterations(40).build();
    let s = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BN,
        &w,
        Vec::new(),
        200_000,
        8,
        None,
    )
    .with_packet_bytes(1024);
    let transfers = produce(&s);
    assert!(
        transfers.len() >= 8,
        "need a steady state, got {} packets",
        transfers.len()
    );

    let mut consumer = s.consumer();
    // Warmup: REF page first-touch, metric registration, flight-ring
    // growth all happen in the prefix. The terminal packet is excluded
    // from the gate too — it carries the halting trap, not steady state.
    let warmup = transfers.len() * 3 / 4;
    for t in &transfers[..warmup] {
        assert_eq!(consumer.ingest(t, 0, &mut NoCharge), Step::Continue);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for t in &transfers[warmup..transfers.len() - 1] {
        assert_eq!(consumer.ingest(t, 0, &mut NoCharge), Step::Continue);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    let tail = transfers.len() - 1 - warmup;
    assert_eq!(
        after - before,
        0,
        "steady-state consume path allocated {} times over {} packets",
        after - before,
        tail
    );

    consumer.ingest(transfers.last().unwrap(), 0, &mut NoCharge);
    let out = consumer.finish();
    assert!(out.mismatch.is_none(), "{:?}", out.mismatch);
    assert!(out.link_error.is_none(), "{:?}", out.link_error);
}
