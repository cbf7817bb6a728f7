//! Categorical histograms.
//!
//! The paper's bar figures (Fig. 6 NHF outcome breakdown, Fig. 15/16 root
//! cause percentages) are categorical counts; [`CategoricalHistogram`]
//! covers that shape.

use std::collections::BTreeMap;
use std::hash::Hash;

/// Counts per discrete category, with stable (ordered) iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalHistogram<K: Ord> {
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord> Default for CategoricalHistogram<K> {
    fn default() -> Self {
        CategoricalHistogram {
            counts: BTreeMap::new(),
            total: 0,
        }
    }
}

impl<K: Ord + Clone> CategoricalHistogram<K> {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation of `key`.
    pub fn add(&mut self, key: K) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The most frequent category and its count (ties broken by key order;
    /// `None` if empty). Fig. 4's *dominant failure reason per day* is
    /// exactly this query.
    pub fn mode(&self) -> Option<(&K, u64)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, v)| (k, *v))
    }

    /// Percentage share of the dominant category (0 if empty).
    pub fn dominant_share_percent(&self) -> f64 {
        match self.mode() {
            Some((_, c)) if self.total > 0 => 100.0 * c as f64 / self.total as f64,
            _ => 0.0,
        }
    }
}

impl<K: Ord + Clone + Hash> FromIterator<K> for CategoricalHistogram<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut h = CategoricalHistogram::new();
        for k in iter {
            h.add(k);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_counting() {
        let mut h = CategoricalHistogram::new();
        for k in ["a", "b", "a", "a", "c"] {
            h.add(k);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.mode(), Some((&"a", 3)));
    }

    #[test]
    fn mode_and_dominant_share() {
        let h: CategoricalHistogram<&str> = ["x", "y", "y", "z"].into_iter().collect();
        let (k, c) = h.mode().unwrap();
        assert_eq!((*k, c), ("y", 2));
        assert!((h.dominant_share_percent() - 50.0).abs() < 1e-12);
        let empty: CategoricalHistogram<&str> = CategoricalHistogram::new();
        assert_eq!(empty.mode(), None);
        assert_eq!(empty.dominant_share_percent(), 0.0);
    }

    #[test]
    fn mode_tie_breaks_by_key_order() {
        let h: CategoricalHistogram<&str> = ["b", "a"].into_iter().collect();
        // Equal counts: smaller key wins deterministically.
        assert_eq!(h.mode().unwrap().0, &"a");
    }
}
