//! Coherence properties of the REF pre-decoded instruction cache.
//!
//! Execution with the decode cache enabled must be bit-identical to
//! execution with it disabled: same per-step outcomes, same final
//! architectural state, same compensation journal. The tests drive the
//! hard cases directly — self-modifying code patching instructions both
//! ahead of and behind the program counter, with and without `fence`,
//! journal reverts, MMIO skip synchronization and traps mid-run — and
//! then sweep every workload preset for the steady-state case.

use difftest_isa::{encode, Reg};
use difftest_ref::{Memory, RefModel, StepOutcome};
use difftest_workload::Workload;
use proptest::prelude::*;

/// Byte offset of the patch pool from the code base.
const POOL_OFF: i64 = 0x1000;

/// Instruction words a mutator may copy over code. All are safe
/// straight-line single words, so a patched program stays patchable.
fn patch_pool() -> Vec<u32> {
    vec![
        encode::addi(Reg::A0, Reg::A0, 7),
        encode::addi(Reg::A3, Reg::A0, 1),
        encode::xor(Reg::A4, Reg::A4, Reg::A0),
        encode::nop(),
    ]
}

/// Loads `words` at the RAM base plus the patch pool, then steps a
/// cache-enabled and a cache-disabled [`RefModel`] in lockstep for
/// `steps`, asserting outcome, state, and journal equivalence.
fn lockstep(words: &[u32], steps: usize) -> RefModel {
    lockstep_with(words, steps, |_, _, _| {}).0
}

/// [`lockstep`] with a hook called *before* each step pair; the hook may
/// checkpoint, revert or arm NDE synchronization on both models. Also
/// returns the (agreed) per-step outcomes.
fn lockstep_with(
    words: &[u32],
    steps: usize,
    mut before: impl FnMut(usize, &mut RefModel, &mut RefModel),
) -> (RefModel, Vec<StepOutcome>) {
    let mut mem = Memory::new();
    mem.load_words(Memory::RAM_BASE, words);
    mem.load_words(Memory::RAM_BASE + POOL_OFF as u64, &patch_pool());
    let mut cached = RefModel::new(mem.clone());
    let mut plain = RefModel::new(mem);
    plain.set_decode_cache_enabled(false);
    cached.set_journal_enabled(true);
    plain.set_journal_enabled(true);
    let mut outcomes = Vec::with_capacity(steps);
    for i in 0..steps {
        before(i, &mut cached, &mut plain);
        let a = cached.step();
        let b = plain.step();
        assert_eq!(a, b, "step {i} diverged (cached vs uncached)");
        outcomes.push(a);
    }
    assert_eq!(cached.state(), plain.state(), "final state diverged");
    assert_eq!(
        cached.journal().entries(),
        plain.journal().entries(),
        "journals diverged"
    );
    (cached, outcomes)
}

/// Emits the five-word prelude: `a1` = code base, `a2` = pool base.
fn prelude(words: &mut Vec<u32>) {
    words.push(encode::addi(Reg::A1, Reg::ZERO, 1));
    words.push(encode::slli(Reg::A1, Reg::A1, 31)); // 0x8000_0000
    words.push(encode::addi(Reg::A2, Reg::ZERO, 1));
    words.push(encode::slli(Reg::A2, Reg::A2, 12)); // POOL_OFF
    words.push(encode::add(Reg::A2, Reg::A1, Reg::A2));
}

/// One generated program slot: either a plain ALU op, or a mutator that
/// copies `pool[pool_idx]` over the first word of a later slot
/// (`target_sel` picks which), optionally followed by a `fence`.
type Action = (bool, u8, u8, bool);

/// Builds a straight-line self-modifying program from `actions`.
///
/// Mutators always patch *later* slots, so the overwrite is
/// architecturally visible even on a strict implementation; a patched
/// mutator degenerates into further (still safe) straight-line code.
fn self_modifying(actions: &[Action]) -> Vec<u32> {
    let slot_words =
        |&(is_mut, _, _, fencei): &Action| if is_mut { 2 + usize::from(fencei) } else { 1 };
    // Layout pass: word offset of each slot after the 5-word prelude.
    let mut offsets = Vec::with_capacity(actions.len());
    let mut off = 5usize;
    for a in actions {
        offsets.push(off);
        off += slot_words(a);
    }

    let mut words = Vec::with_capacity(off + 1);
    prelude(&mut words);
    for (i, &(is_mut, pool_idx, target_sel, fencei)) in actions.iter().enumerate() {
        let later = actions.len() - i - 1;
        if is_mut && later > 0 {
            let target = i + 1 + (target_sel as usize) % later;
            let pool = i64::from(pool_idx % 4) * 4;
            words.push(encode::lw(Reg::T0, Reg::A2, pool));
            words.push(encode::sw(Reg::T0, Reg::A1, (offsets[target] * 4) as i64));
            if fencei {
                words.push(encode::fence());
            }
        } else {
            words.push(encode::addi(Reg::A0, Reg::A0, i64::from(pool_idx % 64)));
            for _ in 1..slot_words(&(is_mut, pool_idx, target_sel, fencei)) {
                words.push(encode::nop());
            }
        }
    }
    words.push(encode::ebreak());
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached and uncached execution agree step-for-step on randomly
    /// generated self-modifying programs, `fence` or no `fence`.
    #[test]
    fn self_modifying_programs_are_cache_transparent(
        actions in proptest::collection::vec(any::<Action>(), 1..40),
    ) {
        let words = self_modifying(&actions);
        // Straight-line: every word executes at most once; a couple of
        // extra steps land in the deterministic post-ebreak trap loop,
        // which must also agree.
        let m = lockstep(&words, words.len() + 2);
        let stats = m.decode_cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, (words.len() + 2) as u64);
    }
}

/// A loop that patches an instruction it already executed (and cached):
/// iteration 1 runs `addi a0, a0, 1` then overwrites it with
/// `addi a0, a0, 7` from the pool; iteration 2 must see the new word. The
/// re-fetched raw word no longer matches the cached line's key, so the
/// lookup misses and the new word is decoded.
#[test]
fn store_to_cached_line_takes_effect_on_reexecution() {
    for fencei in [false, true] {
        let mut words = Vec::new();
        prelude(&mut words);
        words.push(encode::addi(Reg::A5, Reg::ZERO, 2)); // loop counter
        let loop_top = words.len(); // patchable slot index
        words.push(encode::addi(Reg::A0, Reg::A0, 1)); // L: patched below
        words.push(encode::lw(Reg::T0, Reg::A2, 0)); // pool[0] = addi a0,a0,7
        words.push(encode::sw(Reg::T0, Reg::A1, (loop_top * 4) as i64));
        if fencei {
            words.push(encode::fence());
        }
        words.push(encode::addi(Reg::A5, Reg::A5, -1));
        let delta = (loop_top as i64 - words.len() as i64) * 4;
        words.push(encode::bne(Reg::A5, Reg::ZERO, delta));
        words.push(encode::ebreak());

        let body = 5 + usize::from(fencei);
        let steps = 6 + 2 * body; // prelude + two iterations, ebreak unexecuted
        let m = lockstep(&words, steps);
        assert_eq!(
            m.state().xreg(Reg::A0),
            8,
            "iteration 2 must execute the patched instruction (fence={fencei})"
        );
        let stats = m.decode_cache_stats();
        assert!(stats.hits > 0, "the loop must actually hit the cache");
    }
}

/// A loop whose body contains `fence`: a patching store before the fence
/// takes effect on the next iteration and every later one.
#[test]
fn fence_inside_loop_flushes_every_iteration() {
    let mut words = Vec::new();
    prelude(&mut words);
    words.push(encode::addi(Reg::A5, Reg::ZERO, 4)); // loop counter
    let loop_top = words.len();
    words.push(encode::addi(Reg::A0, Reg::A0, 1)); // patched after iter 1
    words.push(encode::lw(Reg::T0, Reg::A2, 0)); // pool[0] = addi a0,a0,7
    words.push(encode::sw(Reg::T0, Reg::A1, (loop_top * 4) as i64));
    words.push(encode::fence());
    words.push(encode::addi(Reg::A5, Reg::A5, -1));
    let delta = (loop_top as i64 - words.len() as i64) * 4;
    words.push(encode::bne(Reg::A5, Reg::ZERO, delta));
    words.push(encode::ebreak());

    let body = 6;
    let steps = 6 + 4 * body; // prelude + counter + four iterations
    let m = lockstep(&words, steps);
    assert_eq!(
        m.state().xreg(Reg::A0),
        1 + 3 * 7,
        "iterations 2..4 execute the patched word"
    );
}

/// A journal revert landing mid-run: re-execution from the warm cache
/// after the revert is deterministic and lockstep-identical.
#[test]
fn revert_mid_block_reexecutes_identically() {
    let mut words = Vec::new();
    for i in 0..8 {
        words.push(encode::addi(Reg::A0, Reg::A0, i + 1));
    }
    words.push(encode::ebreak());

    // Four steps in, both models revert to the checkpoint taken at step 0
    // and then run the whole eight-op sequence.
    let (m, _) = lockstep_with(&words, 4 + 8, |i, c, p| match i {
        0 => {
            c.checkpoint();
            p.checkpoint();
        }
        4 => {
            assert!(c.revert());
            assert!(p.revert());
            assert_eq!(c.state(), p.state(), "revert diverged");
        }
        _ => {}
    });
    assert_eq!(m.state().xreg(Reg::A0), (1..=8).sum::<u64>());
}

/// MMIO skip synchronization mid-run: the armed skip forces the
/// destination on both models instead of executing the cached load.
#[test]
fn skip_sync_mid_block_exits_early() {
    let words = [
        encode::addi(Reg::A1, Reg::ZERO, 0x100), // a1 = MMIO-ish after shift
        encode::slli(Reg::A1, Reg::A1, 20),      // 0x1000_0000
        encode::addi(Reg::A0, Reg::A0, 1),
        encode::lw(Reg::T0, Reg::A1, 0), // MMIO load, skipped
        encode::addi(Reg::A0, Reg::A0, 2),
        encode::ebreak(),
    ];
    let (m, outcomes) = lockstep_with(&words, 5, |i, c, p| {
        if i == 3 {
            c.skip_next(0xabcd);
            p.skip_next(0xabcd);
        }
    });
    assert!(
        matches!(outcomes[3], StepOutcome::Skipped { pc, .. } if pc == Memory::RAM_BASE + 12),
        "the load is skipped, not executed: {:?}",
        outcomes[3]
    );
    assert_eq!(m.state().xreg(Reg::T0), 0xabcd);
    assert_eq!(m.state().xreg(Reg::A0), 3);
}

/// A trap in the middle of a straight-line run reports `Trapped` with the
/// faulting PC on both models (lockstep compares the outcomes).
#[test]
fn trap_mid_block_reports_faulting_pc() {
    let words = [
        encode::addi(Reg::A0, Reg::A0, 1),
        encode::addi(Reg::A1, Reg::ZERO, -1), // a1 = huge address
        encode::lw(Reg::T0, Reg::A1, 0),      // load access fault
        encode::addi(Reg::A0, Reg::A0, 2),
        encode::ebreak(),
    ];
    let (_, outcomes) = lockstep_with(&words, 4, |_, _, _| {});
    match &outcomes[2] {
        StepOutcome::Trapped { pc, .. } => assert_eq!(*pc, Memory::RAM_BASE + 8),
        other => panic!("expected trap, got {other:?}"),
    }
}

/// Every workload preset runs identically with the cache on and off, and
/// the cache earns its keep (more hits than misses) on looping presets.
#[test]
fn workload_presets_are_cache_transparent() {
    let presets = [
        Workload::linux_boot(),
        Workload::microbench(),
        Workload::spec_like(),
        Workload::mmio_heavy(),
        Workload::trap_heavy(),
        Workload::fuzz(),
    ];
    for builder in presets {
        let w = builder.seed(11).iterations(40).build();
        let m = lockstep(w.words(), 12_000);
        let stats = m.decode_cache_stats();
        assert!(
            stats.hits > stats.misses,
            "{}: expected a hot decode cache, got {stats:?}",
            w.name()
        );
    }
}
