//! Equivalence/antivalence classes over signals: a union-find with
//! polarity, whose class representatives are the topologically minimal
//! members (smallest signal index) — the `r_i` of Alg. 2.

use sbif_netlist::Sig;

/// A partition of signals into classes of pairwise equivalent or
/// antivalent signals (under the input constraint), as computed by
/// Alg. 1.
///
/// Each class is represented by its topologically minimal member; every
/// member carries a polarity relative to that representative (`false` =
/// equivalent, `true` = antivalent).
///
/// # Examples
///
/// ```
/// use sbif_core::sbif::EquivClasses;
/// use sbif_netlist::Sig;
///
/// let mut e = EquivClasses::new(4);
/// e.union(Sig(2), Sig(0), false); // 2 ≡ 0
/// e.union(Sig(3), Sig(2), true);  // 3 ≡ ¬2, hence 3 ≡ ¬0
/// assert_eq!(e.rep(Sig(3)), (Sig(0), true));
/// assert_eq!(e.rep(Sig(2)), (Sig(0), false));
/// assert_eq!(e.rep(Sig(1)), (Sig(1), false));
/// ```
#[derive(Debug, Clone)]
pub struct EquivClasses {
    parent: Vec<u32>,
    /// Polarity relative to the parent (`true` = antivalent).
    flip: Vec<bool>,
    merges: usize,
}

impl EquivClasses {
    /// Creates singleton classes for `n` signals.
    pub fn new(n: usize) -> Self {
        EquivClasses {
            parent: (0..n as u32).collect(),
            flip: vec![false; n],
            merges: 0,
        }
    }

    /// Number of signals covered.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if there are no signals.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of successful merges — the "#equiv" column of Table II.
    pub fn num_merges(&self) -> usize {
        self.merges
    }

    /// Finds the representative with path compression.
    fn find_mut(&mut self, s: u32) -> (u32, bool) {
        // First pass: locate the root and accumulate polarity.
        let mut root = s;
        let mut parity = false;
        while self.parent[root as usize] != root {
            parity ^= self.flip[root as usize];
            root = self.parent[root as usize];
        }
        // Second pass: compress.
        let mut cur = s;
        let mut cur_parity = parity;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            let next_parity = cur_parity ^ self.flip[cur as usize];
            self.parent[cur as usize] = root;
            self.flip[cur as usize] = cur_parity;
            cur = next;
            cur_parity = next_parity;
        }
        (root, parity)
    }

    /// The representative of `s` and the polarity of `s` relative to it
    /// (`true` = `s` is the *negation* of the representative).
    pub fn rep(&self, s: Sig) -> (Sig, bool) {
        let mut cur = s.0;
        let mut parity = false;
        while self.parent[cur as usize] != cur {
            parity ^= self.flip[cur as usize];
            cur = self.parent[cur as usize];
        }
        (Sig(cur), parity)
    }

    /// Whether `s` is a class representative (possibly of a singleton).
    pub fn is_rep(&self, s: Sig) -> bool {
        self.parent[s.0 as usize] == s.0
    }

    /// Records `a ≡ b` (or `a ≡ ¬b` when `antivalent`). The class
    /// representative of the merged class is the minimal signal index.
    /// Returns `false` if the two were already in the same class.
    pub fn union(&mut self, a: Sig, b: Sig, antivalent: bool) -> bool {
        let (ra, pa) = self.find_mut(a.0);
        let (rb, pb) = self.find_mut(b.0);
        if ra == rb {
            return false;
        }
        // value(ra) = value(rb) ^ rel
        let rel = pa ^ pb ^ antivalent;
        if ra < rb {
            self.parent[rb as usize] = ra;
            self.flip[rb as usize] = rel;
        } else {
            self.parent[ra as usize] = rb;
            self.flip[ra as usize] = rel;
        }
        self.merges += 1;
        true
    }

    /// Fully compresses all paths (so subsequent [`rep`](Self::rep) calls
    /// are O(1)).
    pub fn compress(&mut self) {
        for i in 0..self.parent.len() as u32 {
            let _ = self.find_mut(i);
        }
    }

    /// Histogram of non-singleton class sizes: `size → how many classes
    /// have that many members` (the representative counts as a member,
    /// so every listed size is ≥ 2). Deterministic: class structure only
    /// depends on the union sequence, which the SBIF scan makes in a
    /// fixed order.
    pub fn size_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut sizes: std::collections::BTreeMap<u32, usize> =
            std::collections::BTreeMap::new();
        for i in 0..self.parent.len() as u32 {
            let (r, _) = self.rep(Sig(i));
            *sizes.entry(r.0).or_insert(0) += 1;
        }
        let mut hist = std::collections::BTreeMap::new();
        for size in sizes.into_values().filter(|&s| s >= 2) {
            *hist.entry(size).or_insert(0) += 1;
        }
        hist
    }

    /// All non-singleton classes as `(representative, members)` where
    /// members carry their polarity relative to the representative
    /// (the representative itself is not listed as a member).
    pub fn classes(&self) -> Vec<(Sig, Vec<(Sig, bool)>)> {
        let mut map: std::collections::BTreeMap<u32, Vec<(Sig, bool)>> =
            std::collections::BTreeMap::new();
        for i in 0..self.parent.len() as u32 {
            let (r, p) = self.rep(Sig(i));
            if r.0 != i {
                map.entry(r.0).or_default().push((Sig(i), p));
            }
        }
        map.into_iter().map(|(r, v)| (Sig(r), v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let e = EquivClasses::new(3);
        for i in 0..3 {
            assert_eq!(e.rep(Sig(i)), (Sig(i), false));
            assert!(e.is_rep(Sig(i)));
        }
        assert_eq!(e.num_merges(), 0);
        assert!(e.classes().is_empty());
    }

    #[test]
    fn union_keeps_minimal_representative() {
        let mut e = EquivClasses::new(5);
        assert!(e.union(Sig(4), Sig(2), false));
        assert_eq!(e.rep(Sig(4)), (Sig(2), false));
        assert!(e.union(Sig(2), Sig(1), false));
        assert_eq!(e.rep(Sig(4)), (Sig(1), false));
        assert_eq!(e.rep(Sig(2)), (Sig(1), false));
        assert!(!e.union(Sig(4), Sig(1), false)); // already merged
        assert_eq!(e.num_merges(), 2);
    }

    #[test]
    fn polarity_propagates() {
        let mut e = EquivClasses::new(6);
        e.union(Sig(1), Sig(0), true); // 1 = ¬0
        e.union(Sig(2), Sig(1), true); // 2 = ¬1 = 0
        e.union(Sig(3), Sig(2), false); // 3 = 2 = 0
        assert_eq!(e.rep(Sig(1)), (Sig(0), true));
        assert_eq!(e.rep(Sig(2)), (Sig(0), false));
        assert_eq!(e.rep(Sig(3)), (Sig(0), false));
    }

    #[test]
    fn merging_two_classes_fixes_polarity() {
        let mut e = EquivClasses::new(8);
        e.union(Sig(5), Sig(4), true); // 5 = ¬4
        e.union(Sig(7), Sig(6), false); // 7 = 6
        // now merge the classes: 6 = ¬4
        e.union(Sig(6), Sig(4), true);
        assert_eq!(e.rep(Sig(7)), (Sig(4), true));
        assert_eq!(e.rep(Sig(5)), (Sig(4), true));
        assert_eq!(e.rep(Sig(6)), (Sig(4), true));
    }

    #[test]
    fn inconsistent_union_is_ignored() {
        // A second union of the same signals with opposite polarity is a
        // no-op (Alg. 1 never produces one because SAT checks precede
        // every merge).
        let mut e = EquivClasses::new(3);
        assert!(e.union(Sig(1), Sig(0), false));
        assert!(!e.union(Sig(1), Sig(0), true));
        assert_eq!(e.rep(Sig(1)), (Sig(0), false));
    }

    #[test]
    fn classes_listing() {
        let mut e = EquivClasses::new(6);
        e.union(Sig(3), Sig(1), true);
        e.union(Sig(5), Sig(1), false);
        let cls = e.classes();
        assert_eq!(cls.len(), 1);
        assert_eq!(cls[0].0, Sig(1));
        assert_eq!(cls[0].1, vec![(Sig(3), true), (Sig(5), false)]);
    }

    #[test]
    fn compress_preserves_reps() {
        let mut e = EquivClasses::new(64);
        for i in (1..64).rev() {
            e.union(Sig(i), Sig(i - 1), i % 2 == 1);
        }
        let before: Vec<_> = (0..64).map(|i| e.rep(Sig(i))).collect();
        e.compress();
        let after: Vec<_> = (0..64).map(|i| e.rep(Sig(i))).collect();
        assert_eq!(before, after);
    }
}
