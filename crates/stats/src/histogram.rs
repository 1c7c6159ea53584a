//! Log-linear bucketed histograms for hot-path distributions.
//!
//! The paper's figures ask distribution questions a plain counter cannot
//! answer — fusion-ratio spreads, packet-utilization percentiles,
//! per-transfer latency tails. [`Histogram`] records into a fixed-size
//! bucket array (allocated once at construction, never resized), so a
//! `record` on the per-packet hot path is two array writes and a handful
//! of integer ops.
//!
//! Buckets are log-linear in the style of HdrHistogram: each power-of-two
//! range is split into 16 linear sub-buckets, bounding the relative
//! quantization error of any reported percentile to ≤ 1/16 (6.25%).
//! Values below 16 are exact.

use std::io::{self, Read, Write};

use crate::obs::{bad, r_array, r_len, r_u64, w_len, w_u64};

/// Linear sub-buckets per power-of-two range (as a bit count).
const SUB_BITS: u32 = 4;
/// Sub-buckets per range.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: values 0..16 exactly, then 60 ranges × 16 subs.
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUBS;

/// Maps a value onto its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// Upper bound of the value range bucket `idx` covers (inclusive).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let msb = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (idx & (SUBS - 1)) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        (1u64 << msb) + sub * width + (width - 1)
    }
}

/// A fixed-size log-linear histogram over `u64` samples.
///
/// Recording is allocation-free; the bucket array is allocated once when
/// the histogram is created (typically at metrics registration). Exact
/// `count`/`sum`/`min`/`max` ride alongside the buckets, so means are
/// exact and only percentiles are quantized.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (one allocation, never grows).
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0u64; N_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Value at percentile `p` (0.0..=100.0): the upper bound of the
    /// bucket holding the sample of that rank, clamped to the exact
    /// observed `max`. Values below 16 are exact; larger values are
    /// quantized to ≤ 6.25% relative error. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Writes the sparse wire form: count, sum, min, max, then the
    /// non-zero buckets as `(index, samples)` pairs.
    pub(crate) fn write_sparse<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for v in [self.count, self.sum, self.min, self.max] {
            w_u64(w, v)?;
        }
        let nonzero = || self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        w_len(w, nonzero().count())?;
        for (idx, &n) in nonzero() {
            w.write_all(&(idx as u32).to_le_bytes())?;
            w_u64(w, n)?;
        }
        Ok(())
    }

    /// Reads [`write_sparse`](Self::write_sparse)'s form back, rejecting
    /// a bucket index past the array or bucket samples that do not sum
    /// to the count.
    pub(crate) fn read_sparse<R: Read>(r: &mut R) -> io::Result<Histogram> {
        let mut h = Histogram::new();
        [h.count, h.sum, h.min, h.max] = [r_u64(r)?, r_u64(r)?, r_u64(r)?, r_u64(r)?];
        let mut total = 0u64;
        for _ in 0..r_len(r, N_BUCKETS, "bucket count")? {
            let idx = u32::from_le_bytes(r_array(r)?) as usize;
            let slot = h.buckets.get_mut(idx).ok_or_else(|| bad("bucket index"))?;
            *slot = r_u64(r)?;
            total = total
                .checked_add(*slot)
                .ok_or_else(|| bad("bucket samples"))?;
        }
        if total != h.count {
            return Err(bad("bucket samples"));
        }
        Ok(h)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_upper_round_trip() {
        // Every bucket's upper bound must map back into that bucket, and
        // indices must be monotone in the value.
        let mut last = 0usize;
        for idx in 0..N_BUCKETS {
            let upper = bucket_upper(idx);
            assert_eq!(bucket_index(upper), idx, "upper {upper} of bucket {idx}");
            assert!(idx == 0 || idx > last || idx == last);
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // p50 of 0..=15: rank 8 → value 7 exactly.
        assert_eq!(h.percentile(50.0), 7);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn known_synthetic_percentiles() {
        // 1..=1000, uniform: p50 = 500, p99 = 990, within the 6.25%
        // log-linear quantization bound.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((469..=532).contains(&p50), "p50 {p50} outside 500 ± 6.25%");
        assert!((928..=1000).contains(&p99), "p99 {p99} outside 990 ± 6.25%");
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.sum(), 500_500);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 4096;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn percentile_clamps_to_observed_max() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        // Bucket upper bound exceeds the sample; the report must not.
        assert_eq!(h.percentile(99.0), 1_000_000);
    }
}
