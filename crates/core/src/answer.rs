//! Partial answers: the unit of work of the merge-based parallel algorithms.
//!
//! The paper's Theorem 1/2 algorithms maintain a list of *answers*, each of
//! which is a fully-solved equivalence class sorting of a subset of the
//! elements: the subset is partitioned into classes that are known to be
//! pairwise different. Two answers are merged by comparing one representative
//! of every class of the first with one representative of every class of the
//! second — at most `k²` comparisons — and unioning the classes that match.
//!
//! [`Answers`] holds every answer of one merge level in flat buffers: the
//! class representatives, answer after answer, and the answers' boundaries.
//! Class membership lives in one union-find over the elements, so unioning
//! two classes is one `union` of their representatives and no member list is
//! ever copied. A merge writes the next level's representatives into spare
//! buffers and swaps them in; a whole sort therefore allocates a fixed set of
//! `O(n)` buffers plus their amortised growth.

use ecs_graph::UnionFind;

/// The answers of one merge level, stored flat.
///
/// Answer `i` has classes `0..reps(i).len()`; class `c` is represented by the
/// element `reps(i)[c]`, the first element the class ever had. Classes keep
/// their order through merges: a merged answer lists the left answer's
/// classes, then the right answer's unmatched classes.
pub struct Answers {
    /// Class representatives of every answer, answer after answer.
    reps: Vec<usize>,
    /// Answer `i` owns `reps[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Class membership: two elements share a class iff they share a set.
    members: UnionFind,
    /// The next level under construction, swapped in when a merge is done.
    next_reps: Vec<usize>,
    next_bounds: Vec<usize>,
    /// [`Answers::merge_groups`] scratch, indexed by set root: the group
    /// that last emitted a class for that root (allocated on first use).
    emitted_by: Vec<usize>,
    /// Groups merged so far; the stamp written into `emitted_by`.
    groups_merged: usize,
}

impl Answers {
    /// One singleton answer per element of `0..n`, in element order.
    pub fn singletons(n: usize) -> Self {
        Self {
            reps: (0..n).collect(),
            bounds: (0..=n).collect(),
            members: UnionFind::new(n),
            next_reps: Vec::with_capacity(n),
            next_bounds: Vec::with_capacity(n / 2 + 2),
            emitted_by: Vec::new(),
            groups_merged: 0,
        }
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The class representatives of answer `i`, in class order.
    pub fn reps(&self, i: usize) -> &[usize] {
        &self.reps[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Appends the comparisons that merge answers `2p` and `2p + 1` for every
    /// `p`: for each pair, every representative `a` of the left answer
    /// against every representative `b` of the right one, `a`-major (the
    /// `≤ k²` tests of the paper's merge step). An odd last answer has no
    /// partner and contributes nothing.
    pub fn pair_comparisons(&self, out: &mut Vec<(usize, usize)>) {
        for p in 0..self.len() / 2 {
            let (left, right) = (self.reps(2 * p), self.reps(2 * p + 1));
            for &a in left {
                out.extend(right.iter().map(|&b| (a, b)));
            }
        }
    }

    /// Merges answers `2p` and `2p + 1` for every `p`, given the answers to
    /// [`Answers::pair_comparisons`] in the same order. An odd last answer is
    /// carried over unchanged.
    ///
    /// Each class of the right answer matches at most one class of the left
    /// answer (classes within an answer are pairwise different); it joins
    /// that class, or is appended as a new class if it matched none.
    ///
    /// # Panics
    ///
    /// Panics if `results` has the wrong length or claims that one class of
    /// the right answer matches two classes of the left one (an inconsistent
    /// oracle).
    pub fn merge_pairs(&mut self, results: &[bool]) {
        let expected: usize = (0..self.len() / 2)
            .map(|p| self.reps(2 * p).len() * self.reps(2 * p + 1).len())
            .sum();
        assert_eq!(results.len(), expected, "merge results length mismatch");
        self.start_next_level();
        let mut offset = 0;
        for p in 0..self.len() / 2 {
            let (left, right) = (
                self.bounds[2 * p]..self.bounds[2 * p + 1],
                self.bounds[2 * p + 1]..self.bounds[2 * p + 2],
            );
            let (ka, kb) = (left.len(), right.len());
            self.next_reps.extend_from_slice(&self.reps[left.clone()]);
            for b in 0..kb {
                let mut target: Option<usize> = None;
                for a in 0..ka {
                    if results[offset + a * kb + b] {
                        assert!(
                            target.is_none(),
                            "oracle inconsistency: class matched two distinct classes"
                        );
                        target = Some(a);
                    }
                }
                let rep_b = self.reps[right.start + b];
                match target {
                    Some(a) => {
                        self.members.union(self.reps[left.start + a], rep_b);
                    }
                    None => self.next_reps.push(rep_b),
                }
            }
            offset += ka * kb;
            self.next_bounds.push(self.next_reps.len());
        }
        if self.len() % 2 == 1 {
            self.carry(self.len() - 1);
        }
        self.finish_next_level();
    }

    /// Appends the comparisons that merge consecutive groups of `group_size`
    /// answers: within each group, for every answer pair `i < j`, every
    /// representative of answer `i` against every representative of answer
    /// `j`, in `(i, j, a, b)` lexicographic order (the `C(c, 2)·k²` tests of
    /// Theorem 1's second phase). A final group of one answer contributes
    /// nothing.
    pub fn group_comparisons(&self, group_size: usize, out: &mut Vec<(usize, usize)>) {
        for_each_group_comparison(&self.reps, &self.bounds, group_size, |a, b| {
            out.push((a, b))
        });
    }

    /// Merges consecutive groups of `group_size` answers, given the answers
    /// to [`Answers::group_comparisons`] in the same order.
    ///
    /// Every matched pair of classes is unioned. Each resulting class is
    /// represented by the representative of its first member class in
    /// `(answer, class)` order, and a merged group lists its classes by
    /// ascending representative. A final group of one answer is carried over
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `group_size < 2` or `results` has the wrong length.
    pub fn merge_groups(&mut self, group_size: usize, results: &[bool]) {
        assert!(group_size >= 2, "groups must merge at least two answers");
        let mut matched = results.iter();
        let members = &mut self.members;
        for_each_group_comparison(&self.reps, &self.bounds, group_size, |a, b| {
            if *matched.next().expect("merge results length mismatch") {
                members.union(a, b);
            }
        });
        assert!(matched.next().is_none(), "merge results length mismatch");

        if self.emitted_by.is_empty() {
            self.emitted_by = vec![usize::MAX; self.members.len()];
        }
        self.start_next_level();
        let answers = self.len();
        for first in (0..answers).step_by(group_size) {
            let last = (first + group_size).min(answers);
            if last - first == 1 {
                self.carry(first);
                continue;
            }
            let stamp = self.groups_merged;
            self.groups_merged += 1;
            let start = self.next_reps.len();
            for &rep in &self.reps[self.bounds[first]..self.bounds[last]] {
                let root = self.members.find(rep);
                if self.emitted_by[root] != stamp {
                    self.emitted_by[root] = stamp;
                    self.next_reps.push(rep);
                }
            }
            self.next_reps[start..].sort_unstable();
            self.next_bounds.push(self.next_reps.len());
        }
        self.finish_next_level();
    }

    /// Per-element labels of the classes (dense, numbered by each class's
    /// smallest element).
    pub fn labels(&mut self) -> Vec<usize> {
        self.members.labels()
    }

    fn start_next_level(&mut self) {
        self.next_reps.clear();
        self.next_bounds.clear();
        self.next_bounds.push(0);
    }

    /// Copies answer `i` unchanged into the next level.
    fn carry(&mut self, i: usize) {
        self.next_reps
            .extend_from_slice(&self.reps[self.bounds[i]..self.bounds[i + 1]]);
        self.next_bounds.push(self.next_reps.len());
    }

    fn finish_next_level(&mut self) {
        std::mem::swap(&mut self.reps, &mut self.next_reps);
        std::mem::swap(&mut self.bounds, &mut self.next_bounds);
    }
}

/// Visits the comparisons of [`Answers::group_comparisons`] in order, for
/// answers laid out as in [`Answers`].
fn for_each_group_comparison(
    reps: &[usize],
    bounds: &[usize],
    group_size: usize,
    mut visit: impl FnMut(usize, usize),
) {
    let answers = bounds.len() - 1;
    let classes = |i: usize| &reps[bounds[i]..bounds[i + 1]];
    for first in (0..answers).step_by(group_size) {
        let last = (first + group_size).min(answers);
        for i in first..last {
            for j in (i + 1)..last {
                for &a in classes(i) {
                    for &b in classes(j) {
                        visit(a, b);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a level from explicit answers (each a list of classes, each a
    /// list of elements whose first element is the representative).
    fn level(n: usize, answers: &[Vec<Vec<usize>>]) -> Answers {
        let mut level = Answers::singletons(n);
        level.start_next_level();
        for answer in answers {
            for class in answer {
                level.next_reps.push(class[0]);
                for &e in &class[1..] {
                    level.members.union(class[0], e);
                }
            }
            level.next_bounds.push(level.next_reps.len());
        }
        level.finish_next_level();
        level
    }

    fn classes(level: &mut Answers) -> Vec<Vec<usize>> {
        let labels = level.labels();
        let mut classes = vec![Vec::new(); labels.iter().max().map_or(0, |&l| l + 1)];
        for (e, &l) in labels.iter().enumerate() {
            classes[l].push(e);
        }
        classes
    }

    #[test]
    fn singletons_are_one_class_each() {
        let mut level = Answers::singletons(3);
        assert_eq!(level.len(), 3);
        assert_eq!(level.reps(1), &[1]);
        assert_eq!(classes(&mut level), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(Answers::singletons(0).len(), 0);
    }

    #[test]
    fn pair_comparisons_are_cross_products_of_representatives() {
        let level = level(6, &[vec![vec![0, 1], vec![2]], vec![vec![3], vec![4, 5]]]);
        let mut pairs = Vec::new();
        level.pair_comparisons(&mut pairs);
        assert_eq!(pairs, vec![(0, 3), (0, 4), (2, 3), (2, 4)]);
    }

    #[test]
    fn merge_pairs_unions_matching_classes() {
        // Ground truth: {0,1,4,5} and {2,3}.
        let mut level = level(6, &[vec![vec![0, 1], vec![2]], vec![vec![3], vec![4, 5]]]);
        // results for pairs (0,3),(0,4),(2,3),(2,4)
        level.merge_pairs(&[false, true, true, false]);
        assert_eq!(level.len(), 1);
        assert_eq!(level.reps(0), &[0, 2]);
        assert_eq!(classes(&mut level), vec![vec![0, 1, 4, 5], vec![2, 3]]);
    }

    #[test]
    fn merge_pairs_appends_unmatched_classes_and_carries_the_odd_answer() {
        let mut level = level(3, &[vec![vec![1]], vec![vec![0]], vec![vec![2]]]);
        level.merge_pairs(&[false]);
        assert_eq!(level.len(), 2);
        assert_eq!(level.reps(0), &[1, 0]);
        assert_eq!(level.reps(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_pairs_with_wrong_result_count_panics() {
        let mut level = Answers::singletons(2);
        level.merge_pairs(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "inconsistency")]
    fn merge_pairs_with_inconsistent_oracle_panics() {
        let mut level = level(3, &[vec![vec![0], vec![1]], vec![vec![2]]]);
        // Claims 2 equals both 0 and 1, which are known different.
        level.merge_pairs(&[true, true]);
    }

    #[test]
    fn merge_groups_with_truth() {
        // Truth labels for elements 0..6.
        let truth = [0usize, 0, 1, 1, 2, 0];
        let mut level = level(
            6,
            &[
                vec![vec![0, 1], vec![2]],
                vec![vec![3], vec![4]],
                vec![vec![5]],
            ],
        );
        let mut pairs = Vec::new();
        level.group_comparisons(3, &mut pairs);
        assert_eq!(
            pairs,
            vec![
                (0, 3),
                (0, 4),
                (2, 3),
                (2, 4),
                (0, 5),
                (2, 5),
                (3, 5),
                (4, 5)
            ]
        );
        let results: Vec<bool> = pairs.iter().map(|&(a, b)| truth[a] == truth[b]).collect();
        level.merge_groups(3, &results);
        assert_eq!(level.len(), 1);
        assert_eq!(level.reps(0), &[0, 2, 4]);
        assert_eq!(
            classes(&mut level),
            vec![vec![0, 1, 5], vec![2, 3], vec![4]]
        );
    }

    #[test]
    fn merge_groups_sorts_merged_groups_and_carries_a_lone_answer() {
        // Groups {answer 0, answer 1} and {answer 2}; nothing matches.
        let mut level = level(4, &[vec![vec![3]], vec![vec![1]], vec![vec![2], vec![0]]]);
        level.merge_groups(2, &[false]);
        assert_eq!(level.len(), 2);
        assert_eq!(level.reps(0), &[1, 3]);
        assert_eq!(level.reps(1), &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_groups_with_wrong_result_count_panics() {
        let mut level = Answers::singletons(3);
        level.merge_groups(3, &[true]);
    }

    proptest! {
        #[test]
        fn pairwise_merge_matches_truth(
            labels in proptest::collection::vec(0u8..4, 2..40),
            split in 1usize..39,
        ) {
            // Split elements into two halves, build the true per-half answers,
            // merge them with truth-derived results, and check the result is
            // the true partition of the union.
            let n = labels.len();
            let split = split % (n - 1) + 1;
            let build = |range: std::ops::Range<usize>| {
                let mut by_label: std::collections::BTreeMap<u8, Vec<usize>> = Default::default();
                for e in range {
                    by_label.entry(labels[e]).or_default().push(e);
                }
                by_label.into_values().collect::<Vec<_>>()
            };
            let mut level = level(n, &[build(0..split), build(split..n)]);
            let mut pairs = Vec::new();
            level.pair_comparisons(&mut pairs);
            let results: Vec<bool> = pairs.iter().map(|&(x, y)| labels[x] == labels[y]).collect();
            level.merge_pairs(&results);
            prop_assert_eq!(level.len(), 1);
            let got = ecs_model::Partition::from_labels(&level.labels());
            let want = ecs_model::Partition::from_labels(&labels);
            prop_assert_eq!(got, want);
        }
    }
}
