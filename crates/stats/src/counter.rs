//! Named performance counters (paper §5 "performance evaluation support").
//!
//! Both the hardware side (fusion ratios, packet utilization) and the
//! software side (transfer counts, data volume) of DiffTest-H integrate
//! performance counters. [`Counters`] is the shared primitive: a small
//! ordered map from static names to `u64` values.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// An ordered collection of named `u64` counters.
///
/// Names are usually static strings; dynamically generated names (e.g.
/// the per-kind `link.err.<kind>` counters) are accepted as owned
/// strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: BTreeMap<Cow<'static, str>, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    #[inline]
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        *self.values.entry(name.into()).or_insert(0) += delta;
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn inc(&mut self, name: impl Into<Cow<'static, str>>) {
        self.add(name, 1);
    }

    /// Reads counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.values.insert(name.into(), value);
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.values.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Merges another counter set into this one (summing). Keys are not
    /// re-allocated: an existing
    /// counter is bumped in place, and a new key clones the source
    /// `Cow` — a static borrow stays a static borrow.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.values {
            match self.values.get_mut(k) {
                Some(slot) => *slot += v,
                None => {
                    self.values.insert(k.clone(), *v);
                }
            }
        }
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no counter exists.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            return write!(f, "(no counters)");
        }
        for (k, v) in &self.values {
            writeln!(f, "{k:40} {v:>16}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        c.inc("events");
        c.add("events", 2);
        c.add("bytes", 100);
        assert_eq!(c.get("events"), 3);
        assert_eq!(c.get("bytes"), 100);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn merge_preserves_borrowed_keys() {
        let mut a = Counters::new();
        a.add("static.key", 1);
        let mut b = Counters::new();
        b.add("static.key", 2);
        b.add("other.static", 3);
        b.add(format!("worker{}.items", 0), 4);
        a.merge(&b);
        assert_eq!(a.get("static.key"), 3);
        assert_eq!(a.get("other.static"), 3);
        assert_eq!(a.get("worker0.items"), 4);
        // Keys sourced from `&'static str` must stay borrowed through
        // the merge; only genuinely dynamic names own their storage.
        for key in a.values.keys() {
            match key {
                Cow::Borrowed(_) => assert_ne!(key.as_ref(), "worker0.items"),
                Cow::Owned(_) => assert_eq!(key.as_ref(), "worker0.items"),
            }
        }
    }

    #[test]
    fn display_not_empty() {
        let mut c = Counters::new();
        assert_eq!(c.to_string(), "(no counters)");
        c.inc("n");
        assert!(c.to_string().contains('n'));
    }
}
