//! The pointer-based adversary core, retained as the reference
//! implementation for the packed substrate.
//!
//! [`LegacyCore`] is the pre-bitset [`crate::AdversaryCore`]: the
//! known-unequal relation as `HashMap<usize, HashSet<usize>>` adjacency sets,
//! marks as `Vec<Option<Mark>>`, and candidate filters recomputed as hash
//! sets per probe. It implements the same [`AdversaryState`] interface and
//! must answer **bit-identically** — the substrate-parity suite
//! (`tests/substrate_parity.rs`) pins packed against legacy pair by pair,
//! and the `adversary_scaling` benchmarks time the two side by side.
//!
//! Nothing in the production path constructs this type; keep it in sync only
//! through the parity suite (a behavioral divergence is a bug in the packed
//! port, not grounds to change this reference).

use crate::core_state::{AdversaryState, EpochTracker, Mark};
use crate::round_commit::RoundCommit;
use ecs_graph::UnionFind;
use ecs_model::PlanStats;
use ecs_model::{EquivalenceOracle, Partition};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// The adversary's mutable state on the pointer substrate (the pre-packed
/// representation, verbatim).
#[derive(Debug)]
pub struct LegacyCore {
    n: usize,
    degree_threshold: usize,
    color: Vec<usize>,
    members: Vec<Vec<usize>>,
    mark: Vec<Option<Mark>>,
    color_marked: Vec<bool>,
    protected_color: Option<usize>,
    uf: UnionFind,
    adj: HashMap<usize, HashSet<usize>>,
    comparisons: u64,
    marked_elements: usize,
    swaps: u64,
    epochs: EpochTracker,
}

impl LegacyCore {
    /// Creates the adversary with the given color class sizes (same contract
    /// as [`crate::AdversaryCore::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the sizes are empty, contain zero, or the threshold is zero.
    pub fn new(sizes: &[usize], degree_threshold: usize, protected_color: Option<usize>) -> Self {
        assert!(!sizes.is_empty(), "need at least one color class");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "color class sizes must be positive"
        );
        assert!(degree_threshold > 0, "degree threshold must be positive");
        if let Some(p) = protected_color {
            assert!(p < sizes.len(), "protected color out of range");
        }
        let n: usize = sizes.iter().sum();
        let mut color = Vec::with_capacity(n);
        let mut members = vec![Vec::new(); sizes.len()];
        for (c, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                members[c].push(color.len());
                color.push(c);
            }
        }
        Self {
            n,
            degree_threshold,
            color,
            members,
            mark: vec![None; n],
            color_marked: vec![false; sizes.len()],
            protected_color,
            uf: UnionFind::new(n),
            adj: HashMap::new(),
            comparisons: 0,
            marked_elements: 0,
            swaps: 0,
            epochs: EpochTracker::new(n),
        }
    }

    /// Number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of equivalence tests answered so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of elements that have been marked so far.
    pub fn marked_elements(&self) -> usize {
        self.marked_elements
    }

    /// Number of color swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Whether any element of the protected color has been marked.
    pub fn protected_color_touched(&self) -> bool {
        match self.protected_color {
            None => false,
            Some(p) => self.members[p].iter().any(|&e| self.mark[e].is_some()),
        }
    }

    /// The partition the adversary has committed to.
    pub fn partition(&self) -> Partition {
        Partition::from_labels(&self.color)
    }

    fn degree(&self, root: usize) -> usize {
        self.adj.get(&root).map(|s| s.len()).unwrap_or(0)
    }

    fn adjacent(&self, ra: usize, rb: usize) -> bool {
        self.adj.get(&ra).map(|s| s.contains(&rb)).unwrap_or(false)
    }

    fn add_edge(&mut self, ra: usize, rb: usize) {
        if ra == rb {
            return;
        }
        self.adj.entry(ra).or_default().insert(rb);
        self.adj.entry(rb).or_default().insert(ra);
    }

    fn contract(&mut self, ra: usize, rb: usize) {
        if ra == rb {
            return;
        }
        self.uf.union(ra, rb);
        let keep = self.uf.find(ra);
        let drop = if keep == ra { rb } else { ra };
        let dropped = self.adj.remove(&drop).unwrap_or_default();
        for z in dropped {
            if let Some(set) = self.adj.get_mut(&z) {
                set.remove(&drop);
                set.insert(keep);
            }
            self.adj.entry(keep).or_default().insert(z);
        }
    }

    fn set_mark(&mut self, element: usize, mark: Mark) {
        // Epoch parity with the packed core: the element is dirtied exactly
        // when the requested mark contributes a bit that was not already set.
        let changed = match self.mark[element] {
            None => true,
            Some(Mark::Both) => false,
            Some(existing) => existing != mark,
        };
        match self.mark[element] {
            None => {
                self.mark[element] = Some(mark);
                self.marked_elements += 1;
            }
            Some(existing) if existing != mark => {
                self.mark[element] = Some(Mark::Both);
            }
            _ => {}
        }
        if changed {
            self.epochs.touch(element);
        }
    }

    fn maybe_mark_high_degree(&mut self, element: usize) {
        if self.mark[element].is_some() {
            return;
        }
        let root = self.uf.find_immutable(element);
        if self.degree(root) < self.degree_threshold {
            return;
        }
        if Some(self.color[element]) == self.protected_color {
            if let Some(partner) = self.find_swap_partner(element, self.color[element]) {
                self.swap_colors(element, partner);
                return;
            }
        }
        self.set_mark(element, Mark::HighElementDegree);
    }

    fn find_swap_partner(&self, candidate: usize, avoid_color: usize) -> Option<usize> {
        let cand_root = self.uf.find_immutable(candidate);
        // Colors adjacent to the candidate, materialized as a hash set — the
        // per-probe allocation the packed port replaces with one row/mask
        // intersection.
        let colors_adjacent_to_candidate: HashSet<usize> = self
            .adj
            .get(&cand_root)
            .map(|set| {
                set.iter()
                    .map(|&r| self.color[self.representative_element(r)])
                    .collect()
            })
            .unwrap_or_default();
        for (c, members) in self.members.iter().enumerate() {
            if c == avoid_color || self.color_marked[c] {
                continue;
            }
            if colors_adjacent_to_candidate.contains(&c) {
                continue;
            }
            for &z in members {
                if self.mark[z].is_some() || self.color[z] != c {
                    continue;
                }
                let z_root = self.uf.find_immutable(z);
                let z_adjacent_to_avoid = self
                    .adj
                    .get(&z_root)
                    .map(|set| {
                        set.iter()
                            .any(|&r| self.color[self.representative_element(r)] == avoid_color)
                    })
                    .unwrap_or(false);
                if !z_adjacent_to_avoid {
                    return Some(z);
                }
            }
        }
        None
    }

    fn representative_element(&self, root: usize) -> usize {
        root
    }

    fn swap_colors(&mut self, a: usize, b: usize) {
        let ca = self.color[a];
        let cb = self.color[b];
        if ca == cb {
            return;
        }
        self.color[a] = cb;
        self.color[b] = ca;
        if let Some(pos) = self.members[ca].iter().position(|&e| e == a) {
            self.members[ca].swap_remove(pos);
        }
        if let Some(pos) = self.members[cb].iter().position(|&e| e == b) {
            self.members[cb].swap_remove(pos);
        }
        self.members[ca].push(b);
        self.members[cb].push(a);
        self.swaps += 1;
        self.epochs.touch(a);
        self.epochs.touch(b);
    }

    fn mark_whole_color(&mut self, color: usize) {
        if self.color_marked[color] {
            return;
        }
        self.color_marked[color] = true;
        let members = self.members[color].clone();
        for e in members {
            self.set_mark(e, Mark::HighColorDegree);
        }
    }

    fn answer(&mut self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "comparison out of range");
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return true;
        }
        if self.adjacent(ra, rb) {
            return false;
        }

        self.maybe_mark_high_degree(a);
        self.maybe_mark_high_degree(b);

        if self.color[a] == self.color[b] && (self.mark[a].is_none() || self.mark[b].is_none()) {
            let unmarked = if self.mark[a].is_none() { a } else { b };
            let common = self.color[a];
            match self.find_swap_partner(unmarked, common) {
                Some(partner) => self.swap_colors(unmarked, partner),
                None => self.mark_whole_color(common),
            }
        }

        let both_marked = self.mark[a].is_some() && self.mark[b].is_some();
        let same = if both_marked {
            self.color[a] == self.color[b]
        } else {
            debug_assert_ne!(
                self.color[a], self.color[b],
                "unmarked same-colored pair survived the swap/mark phase"
            );
            false
        };

        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if same {
            self.contract(ra, rb);
        } else {
            self.add_edge(ra, rb);
        }
        // Same dirty rule as the packed core: a new fact dirties its queried
        // endpoints; contraction-migrated neighbours keep their epochs.
        self.epochs.touch(a);
        self.epochs.touch(b);
        same
    }
}

impl AdversaryState for LegacyCore {
    fn n(&self) -> usize {
        LegacyCore::n(self)
    }

    fn answer(&mut self, a: usize, b: usize) -> bool {
        LegacyCore::answer(self, a, b)
    }

    fn record(&mut self, a: usize, b: usize, answer: bool) {
        let _ = (a, b, answer);
        self.comparisons += 1;
    }

    fn same_vertex(&self, a: usize, b: usize) -> bool {
        self.uf.find_immutable(a) == self.uf.find_immutable(b)
    }

    fn commit_epoch(&self) -> u64 {
        self.epochs.commit_epoch()
    }

    fn epoch_of(&self, elem: usize) -> u64 {
        self.epochs.epoch_of(elem)
    }

    fn commit_round(&mut self) -> &[usize] {
        self.epochs.commit()
    }
}

/// The pointer-substrate twin of [`crate::EqualSizeAdversary`] /
/// [`crate::SmallestClassAdversary`]: a [`LegacyCore`] behind the round
/// protocol with the hash-map plan, exposed as an oracle so parity tests and
/// benchmarks can run whole algorithms against it.
#[derive(Debug)]
pub struct LegacyAdversary {
    protocol: Mutex<RoundCommit<LegacyCore>>,
    n: usize,
}

impl LegacyAdversary {
    /// The pointer twin of [`crate::EqualSizeAdversary::new`] (same sizes
    /// and threshold).
    pub fn equal_size(n: usize, f: usize) -> Self {
        assert!(f > 0, "class size must be positive");
        assert!(n.is_multiple_of(f), "f = {f} must divide n = {n}");
        let sizes = vec![f; n / f];
        let threshold = (n / (4 * f)).max(1);
        Self {
            protocol: Mutex::new(RoundCommit::with_spill_plan(LegacyCore::new(
                &sizes, threshold, None,
            ))),
            n,
        }
    }

    /// The pointer twin of [`crate::SmallestClassAdversary::new`] (same
    /// class structure and threshold).
    pub fn smallest_class(n: usize, ell: usize) -> Self {
        assert!(ell > 0, "smallest class size must be positive");
        assert!(
            n > 2 * ell,
            "need n > 2*ell so that a strictly larger class exists (n = {n}, ell = {ell})"
        );
        let remaining = n - ell;
        let num_big = (remaining / (ell + 1)).max(1);
        let base = remaining / num_big;
        let extra = remaining % num_big;
        let mut sizes = vec![ell];
        sizes.extend((0..num_big).map(|c| base + usize::from(c < extra)));
        let threshold = (n / (4 * ell)).max(1);
        Self {
            protocol: Mutex::new(RoundCommit::with_spill_plan(LegacyCore::new(
                &sizes,
                threshold,
                Some(0),
            ))),
            n,
        }
    }

    /// Comparisons the algorithm has performed against this adversary.
    pub fn comparisons(&self) -> u64 {
        self.protocol.lock().core().comparisons()
    }

    /// Number of elements the adversary was forced to mark.
    pub fn marked_elements(&self) -> usize {
        self.protocol.lock().core().marked_elements()
    }

    /// Number of colour swaps the adversary used to stay non-committal.
    pub fn swaps(&self) -> u64 {
        self.protocol.lock().core().swaps()
    }

    /// Comparison rounds committed through the round protocol.
    pub fn rounds_committed(&self) -> u64 {
        self.protocol.lock().rounds_committed()
    }

    /// Disables the incremental plan cache: every round is eagerly
    /// re-planned in full, as in the pre-cache protocol (the baseline the
    /// replay-count witness and benches compare against).
    pub fn with_full_replan(self) -> Self {
        self.protocol.lock().force_full_replan();
        self
    }

    /// The incremental planner's replay-count witness.
    pub fn plan_stats(&self) -> PlanStats {
        self.protocol.lock().plan_stats()
    }

    /// Whether any protected-color element has been marked.
    pub fn protected_color_touched(&self) -> bool {
        self.protocol.lock().core().protected_color_touched()
    }

    /// The partition the adversary has committed to.
    pub fn partition(&self) -> Partition {
        self.protocol.lock().core().partition()
    }
}

impl EquivalenceOracle for LegacyAdversary {
    fn n(&self) -> usize {
        self.n
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.protocol.lock().query(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.protocol.lock().query_batch(pairs)
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        self.protocol.lock().begin_round(pairs);
    }

    fn round_closed(&self) {
        self.protocol.lock().end_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_state::AdversaryCore;

    /// Exhaustive pairwise interrogation: the packed core and the legacy core
    /// must walk through identical answers, swap counts, and partitions.
    #[test]
    fn packed_core_matches_legacy_core_pair_for_pair() {
        for (sizes, threshold, protected) in [
            (vec![4usize, 4, 4], 1usize, None),
            (vec![5, 5, 5, 5], 5, None),
            (vec![2, 6, 6, 6], 2, Some(0)),
            (vec![3, 7, 7, 7, 8], 2, Some(0)),
        ] {
            let n: usize = sizes.iter().sum();
            let mut packed = AdversaryCore::new(&sizes, threshold, protected);
            let mut legacy = LegacyCore::new(&sizes, threshold, protected);
            for a in 0..n {
                for b in (a + 1)..n {
                    let pa = packed.answer(a, b);
                    let la = legacy.answer(a, b);
                    assert_eq!(pa, la, "sizes {sizes:?}: answers diverged at ({a}, {b})");
                }
            }
            assert_eq!(packed.swaps(), legacy.swaps(), "sizes {sizes:?}");
            assert_eq!(
                packed.marked_elements(),
                legacy.marked_elements(),
                "sizes {sizes:?}"
            );
            assert_eq!(packed.partition(), legacy.partition(), "sizes {sizes:?}");
            assert_eq!(
                packed.protected_color_touched(),
                legacy.protected_color_touched(),
                "sizes {sizes:?}"
            );
        }
    }

    /// The epoch streams must match pair for pair too: the plan cache keys
    /// on them, so a divergence would let the substrates cache differently.
    #[test]
    fn epoch_streams_match_across_substrates() {
        let sizes = vec![3usize, 7, 7, 7, 8];
        let n: usize = sizes.iter().sum();
        let mut packed = AdversaryCore::new(&sizes, 2, Some(0));
        let mut legacy = LegacyCore::new(&sizes, 2, Some(0));
        for a in 0..n {
            for b in (a + 1)..n {
                let _ = AdversaryState::answer(&mut packed, a, b);
                let _ = AdversaryState::answer(&mut legacy, a, b);
                assert_eq!(
                    AdversaryState::commit_round(&mut packed),
                    AdversaryState::commit_round(&mut legacy),
                    "dirty sets diverged at ({a}, {b})"
                );
            }
        }
        assert_eq!(packed.commit_epoch(), legacy.commit_epoch());
        for e in 0..n {
            assert_eq!(
                AdversaryState::epoch_of(&packed, e),
                AdversaryState::epoch_of(&legacy, e),
                "element {e}"
            );
        }
    }

    #[test]
    fn legacy_adversary_serves_rounds() {
        let adversary = LegacyAdversary::equal_size(16, 4);
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 8)).collect();
        adversary.round_opened(&pairs);
        let answers: Vec<bool> = pairs.iter().map(|&(a, b)| adversary.same(a, b)).collect();
        adversary.round_closed();
        assert_eq!(answers.len(), pairs.len());
        assert_eq!(adversary.comparisons(), pairs.len() as u64);
        assert_eq!(adversary.rounds_committed(), 1);
    }
}
