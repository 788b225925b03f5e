//! Clustering pairwise match decisions into resolved entities.
//!
//! The final step of any ER workflow turns accepted match pairs into an
//! equivalence: the connected components of the match graph. The union–find
//! structure here is also the workhorse of iterative ER (merge tracking) and
//! of ground-truth construction.

use crate::entity::EntityId;
use crate::pair::Pair;
use std::collections::BTreeSet;

/// Disjoint-set (union–find) with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `{0}, {1}, …, {n−1}`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The canonical representative of `x`'s set, with path halving.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x;
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Materializes all sets as sorted member lists, ordered by smallest
    /// member. Singletons are included.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        self.grouped(|x| x)
    }

    /// The sets as lists of `id(x)`, in one pass over `x` ascending: the
    /// first member met of a set opens its list, sized to the set, so the
    /// lists come out ordered by smallest member, each holding its members
    /// in ascending order.
    fn grouped<T>(&mut self, id: impl Fn(usize) -> T) -> Vec<Vec<T>> {
        let n = self.parent.len();
        let mut slot_of_root = vec![usize::MAX; n];
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.components);
        for x in 0..n {
            let r = self.find(x);
            if slot_of_root[r] == usize::MAX {
                slot_of_root[r] = out.len();
                out.push(Vec::with_capacity(self.size[r]));
            }
            out[slot_of_root[r]].push(id(x));
        }
        out
    }
}

/// The connected components of a match-pair graph over `n` entities, as
/// clusters of [`EntityId`]s (singletons included).
pub fn components_from_matches(n: usize, matches: &[Pair]) -> Vec<Vec<EntityId>> {
    let mut uf = UnionFind::new(n);
    for p in matches {
        uf.union(p.first().index(), p.second().index());
    }
    uf.grouped(|i| EntityId(i as u32))
}

/// The transitive closure of a set of match pairs over `n` entities: every
/// within-component pair. This converts pairwise decisions into the full
/// equivalence for fair recall accounting.
pub fn transitive_closure(n: usize, matches: &[Pair]) -> BTreeSet<Pair> {
    let mut out = BTreeSet::new();
    for cluster in components_from_matches(n, matches) {
        for i in 0..cluster.len() {
            for j in (i + 1)..cluster.len() {
                out.insert(Pair::new(cluster[i], cluster[j]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.set_size(4), 1);
    }

    #[test]
    fn clusters_are_sorted_and_complete() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 1);
        uf.union(5, 3);
        let clusters = uf.clusters();
        assert_eq!(clusters, vec![vec![0], vec![1, 4], vec![2], vec![3, 5]]);
    }

    #[test]
    fn empty_union_find() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        assert!(uf.clusters().is_empty());
    }

    #[test]
    fn components_from_matches_builds_entity_clusters() {
        let matches = vec![Pair::new(id(0), id(1)), Pair::new(id(3), id(4))];
        let comps = components_from_matches(5, &matches);
        assert_eq!(
            comps,
            vec![vec![id(0), id(1)], vec![id(2)], vec![id(3), id(4)]]
        );
    }

    #[test]
    fn transitive_closure_adds_implied_pairs() {
        let matches = vec![Pair::new(id(0), id(1)), Pair::new(id(1), id(2))];
        let closed = transitive_closure(4, &matches);
        assert_eq!(closed.len(), 3);
        assert!(closed.contains(&Pair::new(id(0), id(2))));
    }

    #[test]
    fn transitive_closure_of_empty_is_empty() {
        assert!(transitive_closure(10, &[]).is_empty());
    }

    #[test]
    fn large_chain_compresses() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert_eq!(uf.set_size(0), n);
        assert!(uf.connected(0, n - 1));
    }

    /// The grouping `clusters` did before its one-pass form: members by
    /// root in a `BTreeMap`, each group sorted, groups by smallest member.
    fn clusters_by_map(uf: &mut UnionFind) -> Vec<Vec<usize>> {
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for x in 0..uf.len() {
            let r = uf.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.iter_mut().for_each(|c| c.sort_unstable());
        out.sort_by_key(|c| c[0]);
        out
    }

    proptest::proptest! {
        /// One pass over the union–find lists the sets the map grouping
        /// lists, in the same order, and `components_from_matches` is the
        /// same lists as entity ids.
        #[test]
        fn one_pass_clusters_equal_the_map_grouping(
            n in 1usize..80,
            unions in proptest::collection::vec((0usize..80, 0usize..80), 0..70),
        ) {
            let mut uf = UnionFind::new(n);
            let mut matches = Vec::new();
            for &(a, b) in &unions {
                let (a, b) = (a % n, b % n);
                uf.union(a, b);
                if a != b {
                    matches.push(Pair::new(id(a as u32), id(b as u32)));
                }
            }
            let want = clusters_by_map(&mut uf.clone());
            proptest::prop_assert_eq!(&uf.clusters(), &want);
            let ids: Vec<Vec<EntityId>> = want
                .iter()
                .map(|c| c.iter().map(|&x| id(x as u32)).collect())
                .collect();
            proptest::prop_assert_eq!(components_from_matches(n, &matches), ids);
        }
    }
}
