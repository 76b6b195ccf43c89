//! The round-robin algorithm of Jayapaul et al., analysed in Sections 4–5.
//!
//! Every element keeps a cyclic cursor over the other elements; the algorithm
//! sweeps over the elements in rounds, and in each sweep every still-active
//! element initiates one equivalence test with the *next element whose
//! relationship to it is still unknown*. Knowledge is shared at the group
//! level: discovered equivalences contract groups (union-find), discovered
//! differences are recorded between groups, and a relationship is "known" as
//! soon as it can be inferred from the group structure.
//!
//! The lemma of Jayapaul et al. used by Theorem 7 states that this schedule
//! performs at most `2·min(Y_i, Y_j)` tests between any two classes of sizes
//! `Y_i` and `Y_j`; the property-based tests below check that bound (and the
//! resulting Theorem 7 stochastic dominance is exercised again in the
//! integration tests and the `theorem7_dominance` benchmark binary).

use crate::run::{EcsAlgorithm, EcsRun};
use ecs_graph::UnionFind;
use ecs_model::{ComparisonSession, EquivalenceOracle, ExecutionBackend, Partition, ReadMode};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// The round-robin sequential equivalence class sorter.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

/// A multiplicative hash for `u32` group ids (the FxHash step): one rotate,
/// xor and multiply instead of SipHash's rounds. The ids are element
/// indices chosen by the union-find, not by an attacker.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A set of group roots (element ids fit in `u32`: `UnionFind` caps `n`).
type RootSet = HashSet<u32, BuildHasherDefault<IdHasher>>;

/// Group-level knowledge: which group roots are known to be different.
///
/// `diff` is indexed by group root: `diff[r]` holds the roots of the groups
/// known to differ from group `r` (empty for non-roots), so a
/// "known different?" probe is one vector index plus one integer-hashed set
/// probe.
struct Knowledge {
    uf: UnionFind,
    /// For each group root, the set of other group roots known to differ.
    diff: Vec<RootSet>,
    /// Number of unordered known-different group pairs.
    known_pairs: usize,
}

impl Knowledge {
    fn new(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            diff: (0..n).map(|_| RootSet::default()).collect(),
            known_pairs: 0,
        }
    }

    fn root(&mut self, x: usize) -> usize {
        self.uf.find(x)
    }

    fn groups(&self) -> usize {
        self.uf.num_sets()
    }

    /// All pairwise relationships among current groups are known.
    fn complete(&self) -> bool {
        let g = self.groups();
        self.known_pairs == g * (g - 1) / 2
    }

    /// The relationship between `y` and the group whose root is `rx` is known.
    fn knows(&mut self, rx: usize, y: usize) -> bool {
        let ry = self.root(y);
        ry == rx || self.diff[rx].contains(&(ry as u32))
    }

    /// The group of `x` knows its relationship to every other current group.
    fn fully_informed(&mut self, x: usize) -> bool {
        let r = self.root(x);
        self.diff[r].len() == self.groups() - 1
    }

    /// Records a "different" answer between the groups of `a` and `b`.
    fn record_different(&mut self, a: usize, b: usize) {
        let ra = self.root(a);
        let rb = self.root(b);
        debug_assert_ne!(ra, rb, "consistent oracles never separate equal elements");
        if self.diff[ra].insert(rb as u32) {
            self.diff[rb].insert(ra as u32);
            self.known_pairs += 1;
        }
    }

    /// Records an "equal" answer: contracts the two groups and merges their
    /// difference knowledge.
    fn record_equal(&mut self, a: usize, b: usize) {
        let ra = self.root(a);
        let rb = self.root(b);
        if ra == rb {
            return;
        }
        debug_assert!(
            !self.diff[ra].contains(&(rb as u32)),
            "oracle inconsistency: groups known different answered equal"
        );
        self.uf.union(ra, rb);
        let new_root = self.uf.find(ra);
        let old_root = if new_root == ra { rb } else { ra };
        let old_set = std::mem::take(&mut self.diff[old_root]);
        for &z in &old_set {
            // Repoint z's knowledge from the vanished root to the surviving one.
            let set = &mut self.diff[z as usize];
            set.remove(&(old_root as u32));
            if !set.insert(new_root as u32) {
                // z already knew the surviving root: two known pairs collapse.
                self.known_pairs -= 1;
            }
        }
        self.diff[new_root].extend(old_set);
    }
}

impl EcsAlgorithm for RoundRobin {
    fn name(&self) -> String {
        "round-robin".to_string()
    }

    fn read_mode(&self) -> ReadMode {
        ReadMode::Exclusive
    }

    fn sort_with_backend<O: EquivalenceOracle>(
        &self,
        oracle: &O,
        backend: ExecutionBackend,
    ) -> EcsRun {
        let n = oracle.n();
        let mut session = ComparisonSession::with_backend(oracle, ReadMode::Exclusive, backend);
        if n == 0 {
            return EcsRun::new(Partition::from_labels::<u32>(&[]), session.into_metrics());
        }
        let mut knowledge = Knowledge::new(n);
        // cursor[x] is the next *offset* (1-based, cyclic) x will examine.
        let mut cursor: Vec<usize> = vec![1; n];
        let mut active: Vec<bool> = vec![true; n];

        while !knowledge.complete() {
            let mut progressed = false;
            for x in 0..n {
                if knowledge.complete() {
                    break;
                }
                if !active[x] {
                    continue;
                }
                if knowledge.fully_informed(x) {
                    // The group of x already knows every other group; it can
                    // learn nothing more, so x stops initiating tests.
                    active[x] = false;
                    continue;
                }
                // Advance the cursor to the next element with an unknown
                // relationship and test it. Nothing is recorded while the
                // cursor skips, so x's root stays fixed.
                let rx = knowledge.root(x);
                loop {
                    if cursor[x] >= n {
                        active[x] = false;
                        break;
                    }
                    let y = (x + cursor[x]) % n;
                    cursor[x] += 1;
                    if knowledge.knows(rx, y) {
                        continue;
                    }
                    progressed = true;
                    if session.compare(x, y) {
                        knowledge.record_equal(x, y);
                    } else {
                        knowledge.record_different(x, y);
                    }
                    break;
                }
            }
            assert!(
                progressed || knowledge.complete(),
                "round-robin stalled before completing (inconsistent oracle?)"
            );
        }

        EcsRun::new(
            Partition::from_labels(&knowledge.uf.labels()),
            session.into_metrics(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecs_model::{Instance, InstanceOracle};
    use ecs_rng::{EcsRng, SeedableEcsRng, Xoshiro256StarStar};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn classifies_small_and_degenerate_instances() {
        let mut r = rng(1);
        for &(n, k) in &[
            (1usize, 1usize),
            (2, 1),
            (2, 2),
            (3, 2),
            (50, 1),
            (50, 50),
            (60, 7),
        ] {
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            assert!(inst.verify(&run.partition), "failed for n={n}, k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_labels::<u32>(&[]);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(run.partition.is_empty());
        assert_eq!(run.metrics.comparisons(), 0);
    }

    #[test]
    fn two_classes_interleaved() {
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
    }

    #[test]
    fn uses_far_fewer_comparisons_than_all_pairs_on_few_classes() {
        let mut r = rng(2);
        let n = 600;
        let inst = Instance::balanced(n, 5, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let all_pairs = (n * (n - 1) / 2) as u64;
        assert!(
            run.metrics.comparisons() * 10 < all_pairs,
            "round-robin used {} comparisons, close to the {} of all-pairs",
            run.metrics.comparisons(),
            all_pairs
        );
    }

    /// Counts comparisons between each pair of true classes by re-running the
    /// algorithm against a counting oracle.
    fn per_class_pair_counts(labels: &[usize]) -> (HashMap<(usize, usize), usize>, Vec<usize>) {
        use std::sync::Mutex;

        struct CountingOracle<'a> {
            labels: &'a [usize],
            counts: Mutex<HashMap<(usize, usize), usize>>,
        }
        impl EquivalenceOracle for CountingOracle<'_> {
            fn n(&self) -> usize {
                self.labels.len()
            }
            fn same(&self, a: usize, b: usize) -> bool {
                let (la, lb) = (self.labels[a], self.labels[b]);
                let key = (la.min(lb), la.max(lb));
                *self.counts.lock().unwrap().entry(key).or_insert(0) += 1;
                la == lb
            }
        }

        let oracle = CountingOracle {
            labels,
            counts: Mutex::new(HashMap::new()),
        };
        let run = RoundRobin::new().sort(&oracle);
        let inst = Instance::from_labels(labels);
        assert!(inst.verify(&run.partition));
        let mut sizes = vec![0usize; labels.iter().max().map(|m| m + 1).unwrap_or(0)];
        for &l in labels {
            sizes[l] += 1;
        }
        (oracle.counts.into_inner().unwrap(), sizes)
    }

    #[test]
    fn per_class_pair_tests_respect_jayapaul_lemma() {
        // Lemma (Jayapaul et al., used by Theorem 7): at most 2·min(Y_i, Y_j)
        // tests between any two distinct classes.
        let mut r = rng(3);
        for trial in 0..20 {
            let n = 150 + trial * 10;
            let k = 2 + (trial % 7);
            let inst = Instance::balanced(n, k, &mut r);
            let labels: Vec<usize> = inst
                .ground_truth()
                .labels()
                .iter()
                .map(|&l| l as usize)
                .collect();
            let (counts, sizes) = per_class_pair_counts(&labels);
            for (&(i, j), &c) in &counts {
                if i == j {
                    continue;
                }
                let bound = 2 * sizes[i].min(sizes[j]);
                assert!(
                    c <= bound,
                    "trial {trial}: {c} tests between classes {i} and {j}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn within_class_tests_are_at_most_class_size() {
        // Equal answers always contract groups, so a class of size s needs at
        // most s − 1 "equal" answers... but "unknown" probes inside a class
        // are exactly the equal answers, so within-class tests ≤ s − 1 + 0.
        let mut r = rng(4);
        let inst = Instance::balanced(200, 4, &mut r);
        let labels: Vec<usize> = inst
            .ground_truth()
            .labels()
            .iter()
            .map(|&l| l as usize)
            .collect();
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i == j {
                assert!(
                    c <= sizes[i],
                    "class {i}: {c} internal tests for size {}",
                    sizes[i]
                );
            }
        }
    }

    #[test]
    fn skewed_class_sizes_are_cheap() {
        // One giant class plus a few tiny ones: the paper's distribution
        // analysis predicts close-to-linear total comparisons.
        let mut r = rng(5);
        let mut sizes = vec![900usize];
        sizes.extend(std::iter::repeat_n(10usize, 10));
        let inst = Instance::from_class_sizes(&sizes, &mut r);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        let n = inst.n() as u64;
        assert!(
            run.metrics.comparisons() < 40 * n,
            "expected near-linear comparisons, got {} for n = {n}",
            run.metrics.comparisons()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_ground_truth_on_random_instances(
            labels in proptest::collection::vec(0u8..6, 1..100)
        ) {
            let inst = Instance::from_labels(&labels);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
        }

        #[test]
        fn comparison_count_never_exceeds_all_pairs(
            seed in 0u64..200,
            n in 2usize..120,
            k in 1usize..10,
        ) {
            let k = k.min(n);
            let mut r = rng(seed);
            let inst = Instance::balanced(n, k, &mut r);
            let oracle = InstanceOracle::new(&inst);
            let run = RoundRobin::new().sort(&oracle);
            prop_assert!(inst.verify(&run.partition));
            prop_assert!(run.metrics.comparisons() <= (n * (n - 1) / 2) as u64);
        }
    }

    #[test]
    fn deterministic_given_identical_instances() {
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        let a = Instance::balanced(300, 6, &mut r1);
        let b = Instance::balanced(300, 6, &mut r2);
        let ra = RoundRobin::new().sort(&InstanceOracle::new(&a));
        let rb = RoundRobin::new().sort(&InstanceOracle::new(&b));
        assert_eq!(ra.metrics.comparisons(), rb.metrics.comparisons());
        assert_eq!(ra.partition, rb.partition);
    }

    #[test]
    fn handles_many_singleton_classes() {
        // Stress the knowledge bookkeeping: every element its own class.
        let labels: Vec<usize> = (0..80).collect();
        let inst = Instance::from_labels(&labels);
        let oracle = InstanceOracle::new(&inst);
        let run = RoundRobin::new().sort(&oracle);
        assert!(inst.verify(&run.partition));
        assert_eq!(run.metrics.comparisons(), (80 * 79 / 2) as u64);
    }

    #[test]
    fn random_seeded_shuffle_does_not_break_lemma() {
        let mut r = rng(11);
        let mut labels: Vec<usize> = Vec::new();
        for class in 0..6 {
            let size = 5 + r.below(40);
            labels.extend(std::iter::repeat_n(class, size));
        }
        r.shuffle(&mut labels);
        let (counts, sizes) = per_class_pair_counts(&labels);
        for (&(i, j), &c) in &counts {
            if i != j {
                assert!(c <= 2 * sizes[i].min(sizes[j]));
            }
        }
    }
}
