# Convenience targets mirroring the paper's artifact workflow (A.5).
# The RTL/Vivado/Palladium steps of the original artifact map onto pure
# cargo invocations here.

CARGO ?= cargo

.PHONY: all build test bench examples table5 table7 figures ablations doc clean ci faults obs \
	socket seam trace alloc loc census verdict-grid

all: build

build:
	$(CARGO) build --workspace --release

test:
	$(CARGO) test --workspace

# A.5.2: optimization breakdown (Table 5), DIFF_CONFIG=Z/B/BN/BNSD is the
# DiffConfig enum of difftest-core.
table5:
	$(CARGO) bench -p difftest-bench --bench table5

table7:
	$(CARGO) bench -p difftest-bench --bench table7

figures:
	$(CARGO) bench -p difftest-bench --bench fig2
	$(CARGO) bench -p difftest-bench --bench fig4
	$(CARGO) bench -p difftest-bench --bench fig13
	$(CARGO) bench -p difftest-bench --bench fig14
	$(CARGO) bench -p difftest-bench --bench fig15

ablations:
	$(CARGO) bench -p difftest-bench --bench ablations

# The bench crate is not a default workspace member; opt in with -p.
bench:
	$(CARGO) bench -p difftest-bench

# What .github/workflows/ci.yml runs, in its order: formatting, lints,
# the seam check, tier-1 build+test, the event crate's tests in the
# optimized build, the lossy-link fault suite, the allocation gate, the
# socket and span-tracing smokes, the bench harnesses' build, the
# gated benchmark's self-test (benchmark/README.md: the perf harness
# still compiles against the public surface and reproduces its exact
# counts), the observability smoke, the golden byte census, the golden
# verdict grid and the warnings-as-errors rustdoc build. CI's aarch64 `cargo check` of
# difftest-event is left out: it needs `rustup target add`, a download.
ci: seam
	$(CARGO) fmt --all -- --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	$(CARGO) build --release
	$(CARGO) test -q
	$(CARGO) test --release -p difftest-event
	$(CARGO) test -p difftest-core --test fault_link --test fault_runners
	$(MAKE) alloc socket trace
	$(CARGO) build -p difftest-bench --benches
	$(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check
	$(CARGO) run --release --example observability
	$(MAKE) census verdict-grid doc

# Runner modules build on the shared session/link/produce/consume layer
# only — one runner reaching into another's internals is the coupling
# this refactor removed, so it fails CI if it ever comes back. The one
# produce loop is produce.rs's Producer::run: no runner ticks the DUT or
# times the tick phase itself, and none drains a collecting QueueSink or
# taps the send path (process_queued, retain_packets): a receiver on the
# producer's thread is a sink with deliver/retention hooks (DESIGN.md
# §12.1). The public `run_*` surface is pinned to one
# entry point per runner plus the dispatcher (and its by-parts form).
# The wire layer (proto/mux) has its own rules: it sits below every
# runner (imports none of them) and only the socket runner speaks it.
# There is one socket consumer loop, mux.rs's serve_connection, which
# the socket runner calls: outside tests, no core source but proto.rs
# (which defines it) and mux.rs decodes client frames (`next_msg(`), and
# none names the retired push-driven session (`ProtoSession`, `MuxStep`)
# or the consumer kill knob (`SocketTuning`, `kill_consumer_after`). One
# process, one direction: the verification daemon (crates/serve) stays
# gone, and no library source dials or names a remote peer (`TcpStream`,
# `ServeAddr`, `SERVE_ADDR_ENV`, `SessionRegistry`) or writes or reads a
# result blob back across the socket (`RESULT_MAGIC`, `write_result`,
# `read_result`, and the histogram codec `write_sparse`/`read_sparse`):
# the runner takes the consumer's output from serve_connection itself.
# One consumer construction: the socket runner hands serve_connection the
# Session's own Consumer, so outside tests mux.rs names no `Session` and
# builds no clock, and no library source names the retired hello rebuild
# or span clock shift (`from_words`, `wall_epoch_ns`, `epoch_wall_ns`,
# `shift_ts`, `MAX_HELLO_WORDS`, `to_wire(`, `from_wire(`). A
# monitored event has one representation on the send path, the record
# the DUT's monitor appends to the capture arena: outside tests, the
# typed benchmark shims (shim.rs)
# and the fixed-offset baseline packer, no send-path source names
# `MonitoredEvent`, encodes an event or a record (`.encode_into(`, bar a
# FusedCommit's, `encode_record(`), ticks the typed view (`tick_into(`)
# or refills a held slot with `clone_from`: retention copies the arena,
# and Squash and Batch read its records in place. The monitor itself
# (crates/dut/src/core.rs) builds no `MonitoredEvent` and calls no
# `encode_record(`: it writes each header from its stamps and each
# payload through the catalog's writers, dumps straight from the state. The consume side is one state machine: outside
# consume.rs and checker.rs no library code drives the checker (`process_ref`,
# `finalize`), and the retired owned decode path and second byte reader
# stay gone. The squashed stream is checked in place too: the checker
# parks payload bytes rather than owned events, and no wire item owns
# its Diff event or Fused record. Every runner has one lane and one full-width consumer: the
# retired sharded runner's per-core routing stays gone. No library code
# spawns, re-executes or exits a process: the one-shot socket consumer
# is a thread.
# Two runners remain, the engine and the socket runner: the retired
# threaded runner, its channel adapters and the crossbeam dependency stay
# gone (DESIGN.md §8). Transfer buffers have one owner at a time: each
# packer keeps a plain free list, and difftest-core has no unsafe code,
# so the retired lock-free pool's atomics and raw boxes stay gone too.
# A monitored event has one record layout, difftest_event::record: the
# Replay ring and the trace file both use it, so no other crate defines
# a record header, and the trace file's second codec and old magic stay
# gone. Each side owns its instruments: outside tests, only produce.rs
# and consume.rs build a phase timer or a flight ring, and no code lends
# them out again (`lend`, `spans_mut`); runners merge the two sides'
# observations with one Obs::absorb (DESIGN.md §12.1). There is one
# compare path: the checker checks every event through its EventRef view,
# and Replay re-checks the ring's records in place, so outside tests the
# checker, the consumer and the ring materialize no owned event and the
# retired owned arms stay gone (DESIGN.md §3.4). A run has one
# description, Session: outside shim.rs, which keeps the builder the
# gated benchmark still calls, no source in the workspace names the
# retired run builder (`CoSimulationBuilder`, `CoSimulation::builder`).
# The monitor's stream is said once: the slot table is its only emit
# policy, so no source names the retired `EventPolicy` or its `policy.`
# flags, and crates/dut/src/dump.rs is the one definition of the state
# dumps, so outside tests only it calls the eight dump structs'
# `write_fields`, the checker keeps no second dump description (`Dump::`,
# `first_divergence`), and neither the checker's `is_pre` nor a Squash
# `held_slot` lists a dump kind (they ask `state_dump_slot`).
RUNNER_SRCS = crates/core/src/engine.rs crates/core/src/socket.rs
WIRE_SRCS = crates/core/src/proto.rs crates/core/src/mux.rs
INPROC_RUNNER_SRCS = crates/core/src/engine.rs
RUN_ENTRY_POINTS = run_runner run_session run_socket_session
SEND_SRCS = $(addprefix crates/core/src/,produce.rs engine.rs socket.rs replay.rs transport.rs \
	squash.rs batch.rs snapshot.rs)
CONSUME_SRCS = crates/core/src/consume.rs crates/core/src/checker.rs
COMPARE_SRCS = crates/core/src/checker.rs crates/core/src/consume.rs crates/core/src/replay.rs
DUMP_KINDS = ArchIntRegState|ArchFpRegState|CsrState|ArchVecRegState|VecCsrState|HypervisorCsrState|TriggerCsrState|DebugModeState
seam:
	@if grep -nE 'use crate::(engine|socket)(::|;| )' $(RUNNER_SRCS); then \
		echo "runner seam violated: runners must build on session/link/produce/consume only"; \
		exit 1; \
	else \
		echo "runner seam clean: no runner imports another runner's internals"; \
	fi
	@if grep -nE 'tick_records\(|tick_into\(|Phase::Tick|QueueSink|process_queued|retain_packets' $(RUNNER_SRCS); then \
		echo "producer seam violated: only Producer::run drives the producer; a runner neither ticks, drains a queue nor taps the send path"; \
		exit 1; \
	else \
		echo "producer seam clean: no runner carries a produce loop of its own"; \
	fi
	@found=$$(grep -ohE 'pub fn run_[a-z_]+' crates/core/src/*.rs | sed 's/pub fn //' | sort | tr '\n' ' '); \
	if [ "$$found" != "$(sort $(RUN_ENTRY_POINTS)) " ]; then \
		echo "entry-point seam violated: pub fn run_* is {$$found}, expected {$(sort $(RUN_ENTRY_POINTS)) }"; \
		exit 1; \
	else \
		echo "entry-point seam clean: one run_* per runner plus the dispatcher"; \
	fi
	@if grep -nE 'use crate::(engine|socket)(::|;| )' $(WIRE_SRCS); then \
		echo "wire seam violated: proto/mux sit below the runners"; \
		exit 1; \
	else \
		echo "wire seam clean: proto/mux import no runner"; \
	fi
	@if grep -nE 'use crate::(proto|mux)(::|;| )' $(INPROC_RUNNER_SRCS); then \
		echo "wire seam violated: only the socket runner speaks the wire protocol"; \
		exit 1; \
	else \
		echo "wire seam clean: in-process runners stay off the wire layer"; \
	fi
	@if for f in $(filter-out $(WIRE_SRCS),$(wildcard crates/core/src/*.rs)); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE 'next_msg\(|ProtoSession|MuxStep|SocketTuning|kill_consumer_after' \
			| sed "s|^|$$f: |"; \
	done | grep .; then \
		echo "consumer-loop seam violated: only mux.rs's serve_connection turns client frames into a verdict"; \
		exit 1; \
	else \
		echo "consumer-loop seam clean: one socket consumer loop, in mux.rs"; \
	fi
	@if [ -e crates/serve ]; then \
		echo "one-process seam violated: the verification daemon crates/serve is back"; \
		exit 1; \
	elif for f in $$(find crates/*/src -name '*.rs'); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE 'TcpStream|ServeAddr|SERVE_ADDR_ENV|SessionRegistry|RESULT_MAGIC|write_result|read_result|write_sparse|read_sparse' \
			| sed "s|^|$$f: |"; \
	done | grep .; then \
		echo "one-process seam violated: the socket carries client-to-server bytes only, and the runner takes the verdict from serve_connection"; \
		exit 1; \
	else \
		echo "one-process seam clean: no daemon, no remote peer, no result blob"; \
	fi
	@if sed -e '/^#\[cfg(test)\]/,$$d' crates/core/src/mux.rs \
		| grep -nE 'Session|Clock' | sed 's|^|crates/core/src/mux.rs: |' | grep . \
		|| grep -rnE 'from_words|wall_epoch_ns|epoch_wall_ns|shift_ts|MAX_HELLO_WORDS|to_wire\(|from_wire\(' \
			crates/*/src; then \
		echo "consumer-construction seam violated: the socket consumer is the Session's own, built by the runner on the tracer's one clock"; \
		exit 1; \
	else \
		echo "consumer-construction seam clean: one consumer construction, no hello rebuild, no clock shift"; \
	fi
	@if for f in $(SEND_SRCS); do \
		sed -e '/^#\[cfg(test)\]/,$$d' -e '/^pub struct FixedOffsetPacker/,/^}/d' \
			-e '/^impl FixedOffsetPacker/,/^}/d' $$f \
			| grep -nE 'MonitoredEvent|\.encode_into\(|encode_record\(|tick_into\(|clone_from' \
			| grep -vE 'fused\.encode_into\(' | sed "s|^|$$f: |"; \
	done | grep .; then \
		echo "send-path seam violated: the monitor's record is the one event representation from capture to packet"; \
		exit 1; \
	else \
		echo "send-path seam clean: one send-path representation, records read in place"; \
	fi
	@if sed -e '/^#\[cfg(test)\]/,$$d' crates/dut/src/core.rs \
		| grep -nE 'MonitoredEvent|encode_record\(' | sed 's|^|crates/dut/src/core.rs: |' | grep .; then \
		echo "capture seam violated: the monitor writes each record from its stamps and the payload's writer, building no MonitoredEvent"; \
		exit 1; \
	else \
		echo "capture seam clean: records written straight from the stamps and the state"; \
	fi
	@if grep -rnE 'BlockCache|Uop|MAX_BLOCK_LEN|ends_block' crates/*/src; then \
		echo "REF tier seam violated: the block-compiled tier was retired (DESIGN.md §13)"; \
		exit 1; \
	else \
		echo "REF tier seam clean: two tiers, decode cache and uncached oracle"; \
	fi
	@if for f in $(filter-out $(CONSUME_SRCS),$(wildcard crates/*/src/*.rs)); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE '\.process_ref\(|\.finalize\(\)' | sed "s|^|$$f: |"; \
	done | grep .; then \
		echo "consume seam violated: only Consumer drives the checker from a stream"; \
		exit 1; \
	elif grep -rnE 'fn decode_into|fn decode_item_body|unpack_bytes|wireio' \
		crates/*/src crates/*/tests crates/*/benches src examples tests vendor; then \
		echo "consume seam violated: a retired owned decode path or second byte reader is back"; \
		exit 1; \
	elif sed -e '/^#\[cfg(test)\]/,$$d' crates/core/src/checker.rs \
		| grep -nE 'BTreeMap|\(Token, Event\)' | sed 's|^|crates/core/src/checker.rs: |' | grep .; then \
		echo "consume seam violated: the checker parks payload bytes, not owned events"; \
		exit 1; \
	elif sed -e '/^#\[cfg(test)\]/,$$d' crates/core/src/wire.rs \
		| grep -nE 'large_enum_variant|Result<Event[,>]' | sed 's|^|crates/core/src/wire.rs: |' | grep .; then \
		echo "consume seam violated: Diff and Fused items are viewed in the decoder's buffers, never owned"; \
		exit 1; \
	else \
		echo "consume seam clean: every stream is checked through Consumer"; \
	fi
	@if grep -rnE 'set_route_core|push_cycle_for_route_core|consumer_for_core|send_link_for_core|core_base|with_home_core|RunnerKind::Sharded|pub struct Lane' \
		crates/*/src; then \
		echo "lane seam violated: per-core routing was retired with the sharded runner (DESIGN.md §8)"; \
		exit 1; \
	else \
		echo "lane seam clean: one lane, one full-width consumer per runner"; \
	fi
	@if grep -rnE 'Command::new|current_exe|process::exit|DIFFTEST_SOCKET_' \
		crates/core/src; then \
		echo "process seam violated: library code spawns or exits a process"; \
		exit 1; \
	else \
		echo "process seam clean: no library code spawns or exits a process"; \
	fi
	@if grep -rnE 'crossbeam|ChannelSink|ChannelSource|LinkSource|run_threaded_session|RunnerKind::Threaded' \
		crates/*/src src examples Cargo.toml crates/*/Cargo.toml; then \
		echo "runner-count seam violated: the threaded runner was retired (DESIGN.md §8)"; \
		exit 1; \
	else \
		echo "runner-count seam clean: two runners, engine and socket"; \
	fi
	@if grep -rnE 'BufferPool|PooledBuf|AtomicPtr|Box::from_raw|unsafe[ {]' crates/core/src; then \
		echo "single-owner buffers seam violated: the lock-free pool was retired and difftest-core forbids unsafe (DESIGN.md §8)"; \
		exit 1; \
	else \
		echo "single-owner buffers seam clean: one free list per packer, no unsafe in difftest-core"; \
	fi
	@if grep -rnE 'const RECORD_HEADER' $(filter-out crates/event/src,$(wildcard crates/*/src)) \
		|| grep -rnE 'TraceReader|fn read_fully|DTHTRC01' crates/*/src; then \
		echo "record seam violated: difftest_event::record is the one record layout (DESIGN.md §3.4)"; \
		exit 1; \
	else \
		echo "record seam clean: one record layout, in difftest-event"; \
	fi
	@if for f in $(filter-out crates/core/src/produce.rs crates/core/src/consume.rs,$(wildcard crates/core/src/*.rs)); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE 'PhaseTimer::|FlightRecorder::(default|new)' | sed "s|^|$$f: |"; \
	done | grep . || grep -nE 'fn (lend|spans_mut)\(' crates/core/src/*.rs; then \
		echo "instrument seam violated: producer and consumer each own their instruments (DESIGN.md §12.1)"; \
		exit 1; \
	else \
		echo "instrument seam clean: one owner per instrument, merged by one Obs::absorb"; \
	fi
	@if for f in $(COMPARE_SRCS); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE '\.to_event\(|\.to_monitored\(|fn process_plain\(|fn check_dump_ref\(' \
			| sed "s|^|$$f: |"; \
	done | grep .; then \
		echo "compare-path seam violated: the checker checks every event through its view (DESIGN.md §3.4)"; \
		exit 1; \
	else \
		echo "compare-path seam clean: one compare path, Replay re-checks the ring's records in place"; \
	fi
	@if grep -rnE 'CoSimulationBuilder|CoSimulation::builder' --include='*.rs' \
		crates examples tests src | grep -v '^crates/core/src/shim.rs:'; then \
		echo "run-description seam violated: a run is described by Session and started by CoSimulation::new or run_session"; \
		exit 1; \
	else \
		echo "run-description seam clean: one run description, Session"; \
	fi
	@if for f in $$(find crates/*/src src examples -name '*.rs'); do \
		sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE 'EventPolicy|[A-Za-z_)]\.policy\b|\bpolicy\.[a-z_]' | sed "s|^|$$f: |"; \
		[ $$f = crates/dut/src/dump.rs ] || sed -e '/^#\[cfg(test)\]/,$$d' $$f \
			| grep -nE '\b($(DUMP_KINDS))::write_fields' | sed "s|^|$$f: |"; \
	done | grep . \
		|| sed -e '/^#\[cfg(test)\]/,$$d' crates/core/src/checker.rs | grep -nE 'Dump::|first_divergence' \
		|| sed -n -e '/^fn is_pre(/,/^}/p' crates/core/src/checker.rs \
			-e '/^fn held_slot(/,/^}/p' crates/core/src/squash.rs | grep -nE '\b($(DUMP_KINDS))\b'; then \
		echo "dump seam violated: the slot table is the one emit policy and crates/dut/src/dump.rs the one dump definition (DESIGN.md §12.1)"; \
		exit 1; \
	else \
		echo "dump seam clean: one dump definition, one emit policy"; \
	fi

# Rust line counts, as simplicity changes report them. Non-test: every .rs
# under the named trees outside */tests/, cut at its first #[cfg(test)].
# Test: every .rs under tests/ and crates/*/tests/, plus the #[cfg(test)]
# tails the non-test count cuts off under crates/ and vendor/.
loc:
	@for d in "crates vendor" crates/core/src; do \
		n=$$(find $$d -name '*.rs' -not -path '*/tests/*' -print0 | sort -z \
			| xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }'); \
		echo "$$n non-test Rust lines in $$d"; \
	done
	@suites=$$(cat tests/*.rs crates/*/tests/*.rs | wc -l); \
	tails=$$(find crates vendor -name '*.rs' -not -path '*/tests/*' -print0 | sort -z \
		| xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } skip { n++ } END { print n }'); \
	echo "$$suites test Rust lines in tests/ and crates/*/tests/"; \
	echo "$$tails test Rust lines in #[cfg(test)] tails under crates vendor"; \
	echo "$$((suites + tails)) test Rust lines in all"

# Allocation-regression gate: a counting global allocator pins the
# packed consume path (admit → view-based streaming check) to zero
# steady-state heap allocations per packet, on the Batch-only and the
# squashed stream (Replay journal on), and the produce path (retention
# ring → Squash → Batch) to zero per cycle.
alloc:
	$(CARGO) test -p difftest-core --test alloc_regression

# Lossy-link fault suite on its own: the link's property tests, the
# engine's recovery, and the conformance matrix's fault row sets (the
# cross-runner grid and drawn plans, every cell contained and diagnosable).
faults:
	$(CARGO) test -p difftest-core --test fault_link --test fault_runners
	$(CARGO) test --test conformance f_

# Socket runner smoke: the one-shot end-to-end suite (merged trace,
# phase attribution, concurrent runs), the conformance matrix, whose
# socket columns must agree with the engine's, and the hostile-bytes
# protocol fuzz, all in the optimized build.
socket:
	$(CARGO) test --release --test socket_runner
	$(CARGO) test --release --test conformance
	$(CARGO) test --release -p difftest-core --test proto_prop

# Observability smoke: short workloads through every runner with
# DIFFTEST_OBS set; asserts the JSONL parses, carries all seven phases,
# histogram summaries, and a flight snapshot on the injected failure.
obs:
	$(CARGO) run --release --example observability

# Golden byte census (DESIGN.md §16) of four BNSD streams: first the
# captured stream, per event kind, records and bytes per cycle with the
# record header split out; then the wire, per wire kind, items and bytes
# per cycle with the tag/token header split out, plus meta entries and
# packet framing. The example asserts each table's rows add up to its
# stream; its output is regenerated into a temp dir and diffed against
# reference/wire_census.txt, so a change that moves a captured or wire
# byte fails it, and one that means to moves the reference in the same
# commit.
census:
	$(CARGO) build --release --example wire_census
	@tmp=$$(mktemp -d); \
	$(CARGO) run --release --quiet --example wire_census > $$tmp/wire_census.txt \
		&& diff -u reference/wire_census.txt $$tmp/wire_census.txt; \
	status=$$?; rm -rf $$tmp; \
	if [ $$status -eq 0 ]; then echo "byte census unchanged: reference/wire_census.txt"; fi; \
	exit $$status

# Golden verdict grid: BNSD's outcome and Replay localization over 672
# injected-bug cells, and the outcome and length of 144 clean runs,
# regenerated into a temp dir and diffed against
# reference/verdict_grid.txt. A change that moves any verdict fails it;
# one that means to moves the reference in the same commit.
verdict-grid:
	$(CARGO) build --release --example verdict_grid
	@tmp=$$(mktemp -d); \
	$(CARGO) run --release --quiet --example verdict_grid > $$tmp/verdict_grid.txt \
		&& diff -u reference/verdict_grid.txt $$tmp/verdict_grid.txt; \
	status=$$?; rm -rf $$tmp; \
	if [ $$status -eq 0 ]; then echo "verdict grid unchanged: reference/verdict_grid.txt"; fi; \
	exit $$status

# Causal span tracing smoke (DESIGN.md §15). The socket example's clean
# run, traced through DIFFTEST_TRACE, exports one Chrome trace merging
# producer and consumer across the socket; trace_check holds it to the
# flow bar (matched pack→unpack arrows, producer and consumer pids). The
# observability example then exports and self-validates the engine trace
# and the lossy-link socket trace, and trace_check re-gates the files
# from the outside.
trace:
	mkdir -p target/trace
	DIFFTEST_TRACE=target/trace/socket.json $(CARGO) run --release --example socket
	scripts/trace_check --require-flows target/trace/socket.json
	DIFFTEST_TRACE=target/trace/obs.json $(CARGO) run --release --example observability
	scripts/trace_check --require-flows target/trace/obs.engine.json
	scripts/trace_check target/trace/obs.socket.json

# A.5.1-style quick start: run the co-simulation end to end.
examples:
	$(CARGO) run --release --example quickstart
	$(CARGO) run --release --example linux_boot
	$(CARGO) run --release --example bug_hunt
	$(CARGO) run --release --example tuning
	$(CARGO) run --release --example socket

# Regenerate the committed reference outputs.
reference: 
	mkdir -p reference
	for b in table5 table7 fig2 fig4 fig13 fig14 fig15 ablations; do \
		$(CARGO) bench -p difftest-bench --bench $$b 2>/dev/null | tail -n +2 > reference/$$b.txt; \
	done

# Rustdoc with warnings as errors: a broken or ambiguous intra-doc link
# fails the build.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

clean:
	$(CARGO) clean
