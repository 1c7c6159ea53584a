//! Lock-free buffer recycling for the hot transfer path.
//!
//! The producer (DUT + [`AccelUnit`](crate::AccelUnit)) packs every
//! packet into an owned byte buffer: the engine drains it from its
//! in-memory queue, the socket runner drops it once its frame is written.
//! Allocating a fresh `Vec<u8>` per packet puts the allocator on the
//! critical path of every `tick → pack → send → decode` iteration.
//! [`BufferPool`] removes it: packet buffers are acquired from a shared
//! free list and returned automatically when the last owner drops the
//! [`PooledBuf`] — on whichever thread that happens, since a
//! [`Transfer`](crate::Transfer) is `Send` — so the steady state performs
//! zero heap allocations for payload bytes.
//!
//! The free list is a fixed array of atomic slots rather than a linked
//! stack: `acquire` `swap`s a buffer pointer out and `release` stores one
//! into an empty slot. Every transfer of ownership is a single atomic
//! pointer exchange, so the pool is lock-free and immune to the ABA and
//! reclamation hazards of pointer-chasing designs. A full pool simply
//! drops returned buffers (the cap bounds retained memory), and an empty
//! pool falls back to the allocator — both recorded in [`PoolStats`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// A buffer as it sits in a pool slot. Slots are thin atomic pointers,
/// so the `Vec` header needs a heap home of its own; a [`PooledBuf`]
/// keeps that box for its way back, which makes the return trip
/// allocation-free.
#[allow(clippy::box_collection)]
type SlotBox = Box<Vec<u8>>;

#[derive(Debug)]
struct PoolShared {
    /// Each slot is either null or a `Box<Vec<u8>>` leaked into the slot.
    slots: Box<[AtomicPtr<Vec<u8>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

impl PoolShared {
    fn take(&self) -> Option<SlotBox> {
        for slot in self.slots.iter() {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // We exclusively own `p` now: the swap removed it from the
                // pool before any other thread could observe it.
                return Some(unsafe { Box::from_raw(p) });
            }
        }
        None
    }

    fn put(&self, mut buf: SlotBox) {
        buf.clear();
        let p = Box::into_raw(buf);
        for slot in self.slots.iter() {
            if slot
                .compare_exchange(ptr::null_mut(), p, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.returns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Pool is at capacity: let the allocator have this one back.
        drop(unsafe { Box::from_raw(p) });
        self.discards.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// Counter snapshot of a [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served by a recycled buffer.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Buffers dropped because the pool was at capacity.
    pub discards: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served without allocating.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, o: PoolStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.returns += o.returns;
        self.discards += o.discards;
    }
}

/// A shared, lock-free pool of recyclable byte buffers.
///
/// Cloning the pool clones a handle; all clones share the same free list
/// and counters.
#[derive(Debug, Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Creates a pool retaining at most `slots` idle buffers.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "a zero-slot pool can never recycle");
        BufferPool {
            shared: Arc::new(PoolShared {
                slots: (0..slots)
                    .map(|_| AtomicPtr::new(ptr::null_mut()))
                    .collect(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                returns: AtomicU64::new(0),
                discards: AtomicU64::new(0),
            }),
        }
    }

    /// Takes an empty buffer, recycling a returned one when available.
    /// The buffer's capacity from its previous life is retained, which is
    /// what makes the steady state allocation-free.
    pub fn acquire(&self) -> PooledBuf {
        let mut slot_box = match self.shared.take() {
            Some(b) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                Box::default()
            }
        };
        PooledBuf {
            bytes: std::mem::take(&mut *slot_box),
            pool: Some((self.shared.clone(), slot_box)),
        }
    }

    /// Idle buffers currently retained (racy; for tests and reporting).
    pub fn available(&self) -> usize {
        self.shared
            .slots
            .iter()
            .filter(|s| !s.load(Ordering::Acquire).is_null())
            .count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            returns: self.shared.returns.load(Ordering::Relaxed),
            discards: self.shared.discards.load(Ordering::Relaxed),
        }
    }

    /// Fraction of [`acquire`](Self::acquire) calls served by recycling.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

/// An owned byte buffer that returns itself to its [`BufferPool`] on drop.
///
/// Dereferences to `Vec<u8>`, so existing code that indexes, truncates or
/// measures payload bytes keeps working unchanged. Buffers can also exist
/// detached from any pool (see [`PooledBuf::detached`]) — they then drop
/// like a plain `Vec<u8>`.
pub struct PooledBuf {
    bytes: Vec<u8>,
    /// The pool to return to, and the slot box to return in.
    pool: Option<(Arc<PoolShared>, SlotBox)>,
}

impl PooledBuf {
    /// Wraps a plain vector with no backing pool.
    pub fn detached(bytes: Vec<u8>) -> Self {
        PooledBuf { bytes, pool: None }
    }

    /// Detaches the bytes from the pool, consuming the handle. The pool
    /// does not get this buffer back.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.bytes)
    }

    /// Whether dropping this buffer returns it to a pool.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some((pool, mut slot_box)) = self.pool.take() {
            *slot_box = std::mem::take(&mut self.bytes);
            pool.put(slot_box);
        }
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }
}

impl Clone for PooledBuf {
    /// Clones contents and pool association: the clone returns to the
    /// same pool when dropped.
    fn clone(&self) -> Self {
        PooledBuf {
            bytes: self.bytes.clone(),
            pool: self.pool.as_ref().map(|(p, _)| (p.clone(), Box::default())),
        }
    }
}

impl Default for PooledBuf {
    fn default() -> Self {
        PooledBuf::detached(Vec::new())
    }
}

impl fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.bytes.len())
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PooledBuf {}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.bytes == other
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PooledBuf::detached(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_returned_capacity() {
        let pool = BufferPool::new(4);
        let mut b = pool.acquire();
        b.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let cap = b.capacity();
        assert!(cap >= 8);
        drop(b);
        assert_eq!(pool.available(), 1);

        let b2 = pool.acquire();
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert!(b2.capacity() >= cap, "capacity survives the round trip");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
    }

    #[test]
    fn grows_past_capacity_and_discards_excess() {
        let pool = BufferPool::new(2);
        let bufs: Vec<PooledBuf> = (0..5).map(|_| pool.acquire()).collect();
        assert_eq!(pool.stats().misses, 5, "cold pool allocates");
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.returns, 2, "pool retains only its capacity");
        assert_eq!(s.discards, 3, "excess buffers go to the allocator");
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool = BufferPool::new(2);
        let d = PooledBuf::detached(vec![1, 2, 3]);
        assert!(!d.is_pooled());
        drop(d);
        assert_eq!(pool.available(), 0);

        let p = pool.acquire();
        let v = p.into_vec();
        assert!(v.is_empty());
        assert_eq!(pool.stats().returns, 0, "into_vec detaches");
    }

    #[test]
    fn clone_returns_to_the_same_pool() {
        let pool = BufferPool::new(4);
        let a = pool.acquire();
        let b = a.clone();
        assert!(b.is_pooled());
        drop(a);
        drop(b);
        assert_eq!(pool.stats().returns, 2);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn cross_thread_round_trip() {
        let pool = BufferPool::new(8);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let mut b = pool.acquire();
                        b.extend_from_slice(&i.to_le_bytes());
                        // Dropped here, possibly interleaved with other
                        // threads' acquires.
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4000);
        assert!(
            s.hit_rate() > 0.9,
            "steady state must recycle (hit rate {})",
            s.hit_rate()
        );
    }
}
