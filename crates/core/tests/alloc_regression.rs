//! Allocation regression gate for the zero-materialization wire path.
//!
//! The packed consume pipeline — admit (CRC + structural validation) →
//! streamed view-based checking — is designed to perform no heap
//! allocation per packet in the steady state: events are checked
//! straight from the packet bytes, no `WireItem` batch is built, and
//! every ring/histogram the observability layer touches is fixed-size.
//! That holds on the squashed stream too, with the Replay journal on:
//! differenced and fused items are viewed in the decoder's own buffers,
//! and order-tagged items wait as byte copies in recycled buffers.
//! The produce pipeline mirrors it: the retention ring copies the
//! monitor's records into recycled chunks, Squash lends records to the
//! packer, and each packet
//! is written into a buffer an earlier packet handed back to the
//! packer's free list. These tests pin both with a counting global
//! allocator: after a warmup prefix (REF page first-touch, ring fill,
//! free-list fill, metric registration), the remaining packets or cycles
//! must allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use difftest_core::consume::{NoCharge, Step};
use difftest_core::link::QueueSink;
use difftest_core::session::{DiffConfig, Session};
use difftest_core::transport::Transfer;
use difftest_core::ReplayBuffer;
use difftest_dut::DutConfig;
use difftest_event::record::Records;
use difftest_stats::FlightRecorder;
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

/// The counter is process-wide and the harness runs tests on parallel
/// threads: each test holds this for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the producer side to completion, collecting every packet.
fn produce(session: &Session) -> Vec<Transfer> {
    let mut p = session.producer(QueueSink::default());
    p.run();
    std::mem::take(&mut p.link_mut().sink_mut().queue)
}

#[test]
fn packed_consume_steady_state_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
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

/// The squashed stream through the consumer as the engine runs it
/// (Replay journal on, retention ring attached): Diff items are viewed in
/// the mirror slot, Fused records in the decoder's scratch, and parked
/// items reuse spare byte buffers, so after a warm-up quarter nothing
/// allocates.
#[test]
fn squashed_consume_steady_state_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let w = Workload::microbench().seed(3).iterations(4_000).build();
    let s = Session::new(
        DutConfig::xiangshan_default(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        20_000,
        8,
        None,
    );
    let transfers = produce(&s);
    assert!(
        transfers.len() >= 64,
        "need a steady state, got {} packets",
        transfers.len()
    );

    let mut consumer = s.consumer_with_retention(true, 1 << 16);
    let warmup = transfers.len() / 4;
    for t in &transfers[..warmup] {
        assert_eq!(consumer.ingest(t, 0, &mut NoCharge), Step::Continue);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for t in &transfers[warmup..] {
        assert_eq!(consumer.ingest(t, 0, &mut NoCharge), Step::Continue);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state squashed consume path allocated {} times over {} packets",
        after - before,
        transfers.len() - warmup
    );
    assert!(consumer.checker().stats().fused_records > 0);

    let out = consumer.finish();
    assert!(out.mismatch.is_none(), "{:?}", out.mismatch);
    assert!(out.link_error.is_none(), "{:?}", out.link_error);
}

#[test]
fn produce_steady_state_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    const CYCLES: u64 = 4_000;
    let w = Workload::microbench().seed(3).iterations(4_000).build();
    let s = Session::new(
        DutConfig::xiangshan_default(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        CYCLES,
        8,
        None,
    );

    // Pre-capture the stream, one record arena per cycle, so the gated
    // loop below runs retention and packing alone.
    let mut dut = s.dut();
    let mut stream: Vec<Vec<u8>> = Vec::new();
    let mut n_events = 0;
    while dut.halted().is_none() && dut.cycles() < CYCLES {
        let mut records = Vec::new();
        dut.tick_records(&mut records);
        n_events += Records::new(&records).count();
        stream.push(records);
    }
    let warmup = stream.len() * 3 / 4;

    // The ring fills (and starts recycling chunks) well inside the
    // warmup; every cycle's transfers cross the engine's virtual link
    // and their buffers go back to the packer, as the engine hands them
    // back after ingest.
    let mut ring = ReplayBuffer::new(n_events / 8);
    let mut accel = s.accel();
    let mut link = s.send_link(QueueSink::default());
    let mut rec = FlightRecorder::default();
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut cycle = |records: &[u8]| {
        ring.push_records(records);
        accel.push_records(records, &mut transfers);
        link.feed(&mut transfers, &mut rec, 0);
        for t in link.sink_mut().queue.drain(..) {
            accel.recycle(t.bytes);
        }
    };
    stream[..warmup].iter().for_each(|records| cycle(records));
    let before = ALLOCS.load(Ordering::Relaxed);
    stream[warmup..].iter().for_each(|records| cycle(records));
    let produce_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(ring.dropped() > 0 && accel.pool_stats().hit_rate() > 0.0);

    // Reported, not gated: what the DUT model itself allocates per cycle
    // into a reused arena over the same steady-state cycles.
    let mut dut = s.dut();
    let mut records = Vec::new();
    let mut before = 0;
    while dut.halted().is_none() && dut.cycles() < CYCLES {
        if dut.cycles() == warmup as u64 {
            before = ALLOCS.load(Ordering::Relaxed);
        }
        records.clear();
        dut.tick_records(&mut records);
    }
    let tail = stream.len() - warmup;
    let tick_allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / tail as f64;
    eprintln!("Dut::tick_records: {tick_allocs:.3} allocations per cycle over {tail} cycles");

    assert_eq!(
        produce_allocs, 0,
        "steady-state push_records (ring + accel) allocated {produce_allocs} times over {tail} \
         cycles (Dut::tick_records, not gated: {tick_allocs:.3} per cycle)"
    );
}

/// The engine's loop with the consumer's ring in it: each cycle's arena
/// is retained in the consumer's ring, its transfers are ingested, and
/// each ingest releases the chunks the checker's checkpoints have
/// passed. Released chunks, metadata included, come back through the
/// ring's spares, so after a warm-up quarter nothing allocates.
#[test]
fn release_steady_state_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    const CYCLES: u64 = 20_000;
    let w = Workload::microbench().seed(3).iterations(4_000).build();
    let s = Session::new(
        DutConfig::xiangshan_default(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        CYCLES,
        8,
        None,
    );
    let mut dut = s.dut();
    let mut stream: Vec<Vec<u8>> = Vec::new();
    let mut n_events = 0;
    while dut.halted().is_none() && dut.cycles() < CYCLES {
        let mut records = Vec::new();
        dut.tick_records(&mut records);
        n_events += Records::new(&records).count();
        stream.push(records);
    }
    let warmup = stream.len() / 4;

    let mut consumer = s.consumer_with_retention(true, 1 << 16);
    let mut accel = s.accel();
    let mut link = s.send_link(QueueSink::default());
    let mut rec = FlightRecorder::default();
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut cycle = |records: &[u8]| {
        if let Some(rb) = consumer.retention_mut() {
            rb.push_records(records);
        }
        accel.push_records(records, &mut transfers);
        link.feed(&mut transfers, &mut rec, 0);
        for t in link.sink_mut().queue.drain(..) {
            assert_eq!(consumer.ingest(&t, 0, &mut NoCharge), Step::Continue);
            accel.recycle(t.bytes);
        }
    };
    stream[..warmup].iter().for_each(|records| cycle(records));
    let before = ALLOCS.load(Ordering::Relaxed);
    stream[warmup..].iter().for_each(|records| cycle(records));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let ring = consumer.retention().expect("ring attached");
    assert_eq!(ring.dropped(), 0);
    assert!(
        ring.high_water() < n_events / 8,
        "ring held {} of {n_events} records: nothing was released",
        ring.high_water()
    );
    assert_eq!(
        allocs,
        0,
        "steady-state retain + ingest + release allocated {allocs} times over {} cycles",
        stream.len() - warmup
    );
    assert!(consumer.checker().stats().fused_records > 0);
}
