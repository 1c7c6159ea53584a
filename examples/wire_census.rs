//! Byte census: where each byte of a BNSD stream goes, captured and on
//! the wire.
//!
//! Runs four benchmark-shaped streams (seed-7000 programs) through the
//! session's acceleration unit. For each it prints two tables:
//!
//! - the captured stream: per event kind, the monitor's records and
//!   bytes per cycle, split into the fixed record header and the
//!   payload (what the DUT's capture arena holds before any
//!   optimization);
//! - the wire: every packet walked with the consumer's own validation
//!   pass ([`validate_item_body`]), per wire kind, items and bytes per
//!   cycle split into the tag/token header and the rest of the body,
//!   plus the meta-entry and framing rows.
//!
//! Each table's rows add up to its stream's total, which the example
//! asserts.
//!
//! ```text
//! cargo run --release --example wire_census      # or: make census
//! ```

use std::collections::BTreeMap;

use difftest_h::core::batch::META_ENTRY_BYTES;
use difftest_h::core::wire::validate_item_body;
use difftest_h::core::{DiffConfig, Session, WireKind};
use difftest_h::dut::DutConfig;
use difftest_h::event::record::{Records, RECORD_HEADER_BYTES};
use difftest_h::event::wire::{verify_crc_frame, Reader, CRC_TRAILER_BYTES};
use difftest_h::workload::{Workload, WorkloadBuilder};

/// Sequence word and meta count opening every packet body.
const PACKET_HEAD_BYTES: usize = 4 + 2;

/// Bytes of the two LEB128 varints (tag and token deltas) opening a
/// Tagged or Diff body: each varint ends at its first byte below 0x80.
fn header_len(body: &[u8]) -> usize {
    let mut ends = body.iter().enumerate().filter(|(_, b)| **b < 0x80);
    ends.nth(1).map_or(body.len(), |(at, _)| at + 1)
}

#[derive(Default)]
struct Row {
    items: u64,
    header: u64,
    body: u64,
}

#[derive(Default)]
struct Census {
    cycles: u64,
    /// Bytes of every capture arena.
    captured: u64,
    /// Per event kind: records, record headers and payloads.
    capture: BTreeMap<&'static str, Row>,
    packets: u64,
    total: u64,
    meta: u64,
    kinds: BTreeMap<String, Row>,
}

impl Census {
    /// Accounts one cycle's capture arena to its rows.
    fn arena(&mut self, records: &[u8]) {
        self.captured += records.len() as u64;
        for rec in Records::new(records) {
            let rec = rec.expect("a captured record decodes");
            let row = self.capture.entry(rec.header.kind.name()).or_default();
            row.items += 1;
            row.header += RECORD_HEADER_BYTES as u64;
            row.body += (rec.bytes().len() - RECORD_HEADER_BYTES) as u64;
        }
    }

    fn print_capture(&self, title: &str) {
        let per = |v: u64| v as f64 / self.cycles as f64;
        let records: u64 = self.capture.values().map(|row| row.items).sum();
        println!(
            "== {title}: captured, {} cycles, {records} records",
            self.cycles
        );
        println!(
            "   {:<28} {:>11} {:>9} {:>9} {:>9}",
            "row", "recs/cyc", "B/cyc", "header", "payload"
        );
        let (mut sum, mut headers) = (0, 0);
        for (kind, row) in &self.capture {
            let bytes = row.header + row.body;
            println!(
                "   {kind:<28} {:>11.3} {:>9.2} {:>9.2} {:>9.2}",
                per(row.items),
                per(bytes),
                per(row.header),
                per(row.body)
            );
            sum += bytes;
            headers += row.header;
        }
        println!(
            "   {:<28} {:>11.3} {:>9.2} {:>9.2} {:>9.2}\n",
            "total",
            per(records),
            per(self.captured),
            per(headers),
            per(self.captured - headers)
        );
        assert_eq!(
            sum, self.captured,
            "{title}: the rows must add up to the arenas"
        );
    }

    /// Accounts one packet's bytes to its rows.
    fn packet(&mut self, bytes: &[u8]) {
        self.packets += 1;
        self.total += bytes.len() as u64;
        let body = verify_crc_frame(bytes).expect("a freshly packed CRC holds");
        let mut r = Reader::new(body);
        r.u32().expect("sequence word");
        let runs: Vec<(u8, u16)> = (0..r.u16().expect("meta count"))
            .map(|_| {
                let (_core, kind, count) = (r.u8(), r.u8(), r.u16());
                (kind.expect("meta kind"), count.expect("meta count"))
            })
            .collect();
        self.meta += (runs.len() * META_ENTRY_BYTES) as u64;
        for (kind, count) in runs {
            let kind = WireKind::from_u8(kind).expect("a valid wire kind");
            let row = self.kinds.entry(format!("{kind:?}")).or_default();
            for _ in 0..count {
                let rest = &body[body.len() - r.remaining()..];
                let before = r.remaining();
                validate_item_body(kind, &mut r).expect("a freshly packed body is valid");
                let len = (before - r.remaining()) as u64;
                let header = match kind {
                    WireKind::Tagged(_) | WireKind::Diff(_) => header_len(rest) as u64,
                    _ => 0,
                };
                row.items += 1;
                row.header += header;
                row.body += len - header;
            }
        }
    }

    fn print(&self, title: &str) {
        let per = |v: u64| v as f64 / self.cycles as f64;
        println!(
            "== {title}: {} cycles, {} packets",
            self.cycles, self.packets
        );
        println!(
            "   {:<28} {:>11} {:>9} {:>9} {:>9}",
            "row", "items/cyc", "B/cyc", "header", "rest"
        );
        let (mut sum, mut headers, mut headed) = (self.meta, 0, 0);
        for (kind, row) in &self.kinds {
            let bytes = row.header + row.body;
            println!(
                "   {kind:<28} {:>11.3} {:>9.2} {:>9.2} {:>9.2}",
                per(row.items),
                per(bytes),
                per(row.header),
                per(row.body)
            );
            sum += bytes;
            headers += row.header;
            headed += if row.header > 0 { row.items } else { 0 };
        }
        let framing = self.packets * (PACKET_HEAD_BYTES + CRC_TRAILER_BYTES) as u64;
        sum += framing;
        println!(
            "   {:<28} {:>11} {:>9.2}",
            "meta entries",
            "",
            per(self.meta)
        );
        println!(
            "   {:<28} {:>11} {:>9.2}",
            "framing (seq, count, CRC)",
            "",
            per(framing)
        );
        println!("   {:<28} {:>11} {:>9.2}", "total", "", per(self.total));
        println!(
            "   tag/token headers: {:.2} B/cycle ({:.2} as two raw u64s)\n",
            per(headers),
            per(16 * headed)
        );
        assert_eq!(sum, self.total, "{title}: the rows must add up to the wire");
    }
}

/// Packs `cycles` cycles of `preset`'s seed-7000 program on `dut` (BNSD)
/// and takes the census of every packet.
fn census(dut: DutConfig, preset: WorkloadBuilder, cycles: u64) -> Census {
    let workload = preset.seed(7000).iterations(1_000_000).build();
    let session = Session::new(
        dut,
        DiffConfig::BNSD,
        &workload,
        Vec::new(),
        cycles,
        1,
        None,
    );
    let (mut dut, mut accel) = (session.dut(), session.accel());
    let (mut records, mut transfers) = (Vec::new(), Vec::new());
    let mut c = Census::default();
    while dut.halted().is_none() && c.cycles < cycles {
        records.clear();
        dut.tick_records(&mut records);
        c.cycles += 1;
        c.arena(&records);
        accel.push_records(&records, &mut transfers);
        if dut.halted().is_some() || c.cycles == cycles {
            accel.flush(&mut transfers);
        }
        for t in transfers.drain(..) {
            c.packet(&t.bytes);
            accel.recycle(t.bytes);
        }
    }
    c
}

fn main() {
    let streams = [
        (
            "XiangShan Dual, mmio_heavy",
            DutConfig::xiangshan_dual(),
            Workload::mmio_heavy(),
            150_000,
        ),
        // No LoadEvent slots: the one stream whose skipped MMIO loads
        // still ship their commits tagged.
        (
            "NutShell, mmio_heavy",
            DutConfig::nutshell(),
            Workload::mmio_heavy(),
            150_000,
        ),
        (
            "XiangShan Default, microbench",
            DutConfig::xiangshan_default(),
            Workload::microbench(),
            300_000,
        ),
        (
            "XiangShan Minimal, linux_boot",
            DutConfig::xiangshan_minimal(),
            Workload::linux_boot(),
            300_000,
        ),
    ];
    for (title, dut, preset, cycles) in streams {
        let c = census(dut, preset, cycles);
        c.print_capture(title);
        c.print(title);
    }
}
