//! Criterion micro-benchmarks: real wall-clock throughput of the component
//! algorithms (packing, fusion, differencing, checking, DUT/REF stepping).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use difftest_core::{AccelUnit, Checker, Consumer, NoCharge, Step, SwUnit};
use difftest_dut::{Dut, DutConfig};
use difftest_event::{Event, MonitoredEvent};
use difftest_ref::{Memory, RefModel};
use difftest_workload::Workload;

fn recorded_events(cycles: u64) -> (Memory, Vec<Vec<MonitoredEvent>>) {
    let w = Workload::linux_boot().seed(9).iterations(400).build();
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, w.words());
    let mut dut = Dut::new(DutConfig::xiangshan_default(), &image, Vec::new());
    let mut per_cycle = Vec::new();
    while dut.halted().is_none() && dut.cycles() < cycles {
        per_cycle.push(dut.tick().events);
    }
    (image, per_cycle)
}

fn bench_dut_cycle(c: &mut Criterion) {
    let w = Workload::linux_boot().seed(9).iterations(400).build();
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, w.words());
    let mut g = c.benchmark_group("dut");
    g.throughput(Throughput::Elements(1));
    g.bench_function("xiangshan_cycle", |b| {
        let mut dut = Dut::new(DutConfig::xiangshan_default(), &image, Vec::new());
        b.iter(|| {
            if dut.halted().is_some() {
                dut = Dut::new(DutConfig::xiangshan_default(), &image, Vec::new());
            }
            dut.tick()
        });
    });
    g.finish();
}

fn bench_ref_step(c: &mut Criterion) {
    let w = Workload::microbench().seed(9).iterations(100_000).build();
    let mut image = Memory::new();
    image.load_words(Memory::RAM_BASE, w.words());
    let mut g = c.benchmark_group("ref");
    g.throughput(Throughput::Elements(1));
    g.bench_function("step", |b| {
        let mut m = RefModel::new(image.clone());
        b.iter(|| m.step());
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let (_, cycles) = recorded_events(20_000);
    let events: u64 = cycles.iter().map(|c| c.len() as u64).sum();

    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(events));

    g.bench_function("batch_pack", |b| {
        b.iter(|| {
            let mut accel = AccelUnit::batch(1, 4096);
            let mut out = Vec::new();
            for cyc in &cycles {
                accel.push_cycle(cyc, &mut out);
            }
            accel.flush(&mut out);
            out.len()
        });
    });

    g.bench_function("squash_batch_pack", |b| {
        b.iter(|| {
            let mut accel = AccelUnit::squash_batch(1, 4096, 32, false);
            let mut out = Vec::new();
            for cyc in &cycles {
                accel.push_cycle(cyc, &mut out);
            }
            accel.flush(&mut out);
            out.len()
        });
    });

    g.bench_function("pack_unpack_roundtrip", |b| {
        b.iter(|| {
            let mut accel = AccelUnit::batch(1, 4096);
            let mut sw = SwUnit::packed(1);
            let mut out = Vec::new();
            let mut items = 0usize;
            for cyc in &cycles {
                accel.push_cycle(cyc, &mut out);
                for t in out.drain(..) {
                    if let Some(body) = sw.admit(&t).expect("round-trip") {
                        items += sw.visit_admitted(body, &mut |_| true).expect("round-trip");
                    }
                }
            }
            items
        });
    });
    g.finish();
}

fn bench_checker(c: &mut Criterion) {
    let (image, cycles) = recorded_events(20_000);
    // Pre-encode the squashed stream once.
    let mut accel = AccelUnit::squash_batch(1, 4096, 32, false);
    let mut transfers = Vec::new();
    for cyc in &cycles {
        accel.push_cycle(cyc, &mut transfers);
    }
    accel.flush(&mut transfers);
    let items: u64 = transfers.iter().map(|t| t.items as u64).sum();

    let mut g = c.benchmark_group("checker");
    g.throughput(Throughput::Elements(items));
    g.bench_function("squashed_stream", |b| {
        b.iter(|| {
            let checker = Checker::new(vec![RefModel::new(image.clone())], false);
            let mut consumer = Consumer::new(SwUnit::packed(1), checker);
            for t in &transfers {
                if consumer.ingest(t, 0, &mut NoCharge) == Step::Stop {
                    break;
                }
            }
            consumer.finish_stream(None, 0, &mut NoCharge);
            assert!(
                consumer.mismatch().is_none() && consumer.link_error().is_none(),
                "bug-free stream"
            );
        });
    });
    g.finish();
}

fn bench_event_codec(c: &mut Criterion) {
    let (_, cycles) = recorded_events(5_000);
    let events: Vec<Event> = cycles.iter().flatten().map(|e| e.event.clone()).collect();
    let bytes: u64 = events.iter().map(|e| e.encoded_len() as u64).sum();

    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for e in &events {
                e.encode_into(&mut buf);
            }
            buf.len()
        });
    });
    g.bench_function("encode_decode", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            let mut out = 0usize;
            for e in &events {
                buf.clear();
                e.encode_into(&mut buf);
                out += Event::decode(e.kind(), &buf)
                    .expect("round-trip")
                    .encoded_len();
            }
            out
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dut_cycle, bench_ref_step, bench_pipeline, bench_checker, bench_event_codec
}
criterion_main!(benches);
