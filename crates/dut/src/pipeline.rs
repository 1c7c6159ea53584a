//! Deterministic pseudo-random stall model shaping commit density.
//!
//! Microarchitectural stalls that our commit-level model does not simulate
//! structurally (rename stalls, issue-queue conflicts, L2 misses, ...) are
//! approximated by deterministic hash-based draws, so two runs of the same
//! configuration and workload produce identical cycle-by-cycle behaviour.

use crate::config::PipelineParams;

/// SplitMix64-style avalanche mix of two words.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stall decisions derived from [`PipelineParams`] and a per-core seed.
#[derive(Debug, Clone)]
pub struct StallModel {
    params: PipelineParams,
    seed: u64,
}

impl StallModel {
    /// Creates a stall model for one core.
    pub fn new(params: PipelineParams, seed: u64) -> Self {
        StallModel { params, seed }
    }

    #[inline]
    fn draw_ppm(&self, cycle: u64, salt: u64) -> u32 {
        (mix(self.seed ^ salt, cycle) % 1_000_000) as u32
    }

    /// The front end delivers nothing this cycle.
    #[inline]
    pub fn frontend_stall(&self, cycle: u64) -> bool {
        self.draw_ppm(cycle, 0x1) < self.params.frontend_stall_ppm
    }

    /// An additional long-latency miss (beyond the modelled L1) hits this
    /// load; returns the stall penalty if so.
    #[inline]
    pub fn l2_miss_penalty(&self, cycle: u64, addr: u64) -> Option<u32> {
        if self.draw_ppm(cycle, addr) < self.params.dcache_miss_ppm {
            Some(self.params.miss_penalty)
        } else {
            None
        }
    }

    /// Penalty charged for an L1 miss that the structural cache model found.
    #[inline]
    pub fn l1_miss_penalty(&self) -> u32 {
        self.params.miss_penalty / 2
    }

    /// The commit group ends after the `nth` commit of this cycle.
    #[inline]
    pub fn group_break(&self, cycle: u64, nth: u32) -> bool {
        self.draw_ppm(cycle.wrapping_mul(8).wrapping_add(nth as u64), 0x6b)
            < self.params.group_break_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PipelineParams {
        PipelineParams {
            frontend_stall_ppm: 250_000,
            dcache_miss_ppm: 50_000,
            miss_penalty: 8,
            group_break_ppm: 0,
        }
    }

    #[test]
    fn deterministic() {
        let a = StallModel::new(params(), 7);
        let b = StallModel::new(params(), 7);
        for c in 0..1000 {
            assert_eq!(a.frontend_stall(c), b.frontend_stall(c));
            assert_eq!(
                a.l2_miss_penalty(c, 0x8000_0000),
                b.l2_miss_penalty(c, 0x8000_0000)
            );
        }
    }

    #[test]
    fn stall_rate_tracks_ppm() {
        let m = StallModel::new(params(), 42);
        let stalls = (0..100_000).filter(|c| m.frontend_stall(*c)).count();
        let rate = stalls as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = StallModel::new(params(), 1);
        let b = StallModel::new(params(), 2);
        let disagreements = (0..10_000)
            .filter(|c| a.frontend_stall(*c) != b.frontend_stall(*c))
            .count();
        assert!(disagreements > 1000);
    }
}
