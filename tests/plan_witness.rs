//! Pins the round planner's absolute witness on the `lower_bounds` roster.
//!
//! `incremental_planning.rs` compares the two plan modes with each other, so
//! a change to the packed plan store that shifted `PlanStats` in both modes
//! alike would pass there. Here every roster algorithm (representative-scan,
//! round-robin, er-merge) runs against both Section 3 adversaries at
//! n = 1024 (f = ℓ = 32), and every `search_variants()` entry runs the
//! Theorem 6 search, on the Sequential backend. Each row pins the forced
//! comparisons, marked elements, swaps, rounds committed, and the planner's
//! `replayed` / `cached` / `invalidated` counters.
//!
//! The rows were captured before the packed plan cache moved from
//! upper-triangular bitsets to a row-contiguous matrix; a change to the plan
//! store's layout must leave every row unchanged. On a mismatch the test
//! prints the observed rows ready to paste, for changes to the adversaries'
//! behaviour made on purpose.

use ecs_bench::runners::{search_variants, AdversaryAlgorithm};
use parallel_ecs::prelude::*;

const N: usize = 1024;
const PARAM: usize = 32;

/// `(case, [forced, marked, swaps, rounds, replayed, cached, invalidated])`.
type Row = (String, [u64; 7]);

fn witness<A: LowerBoundAdversary>(adversary: &A, rounds: u64, stats: PlanStats) -> [u64; 7] {
    [
        adversary.comparisons(),
        adversary.marked_elements() as u64,
        adversary.swaps(),
        rounds,
        stats.replayed,
        stats.cached,
        stats.invalidated,
    ]
}

fn observe() -> Vec<Row> {
    let backend = ExecutionBackend::Sequential;
    let mut rows = Vec::new();
    for algo in AdversaryAlgorithm::all() {
        let adversary = EqualSizeAdversary::new(N, PARAM);
        let run = algo.run(&adversary, backend);
        assert_eq!(run.partition, adversary.partition(), "{}", algo.name());
        rows.push((
            format!("{}/equal-size", algo.name()),
            witness(
                &adversary,
                adversary.rounds_committed(),
                adversary.plan_stats(),
            ),
        ));

        let adversary = SmallestClassAdversary::new(N, PARAM);
        let run = algo.run(&adversary, backend);
        assert_eq!(run.partition, adversary.partition(), "{}", algo.name());
        rows.push((
            format!("{}/smallest-class", algo.name()),
            witness(
                &adversary,
                adversary.rounds_committed(),
                adversary.plan_stats(),
            ),
        ));
    }
    for variant in search_variants() {
        let adversary = SmallestClassAdversary::new(N, PARAM);
        let mut search = SmallestClassSearch::new(variant.wave);
        if variant.audit {
            search = search.with_audit();
        }
        let report = search.run(&adversary, backend);
        assert_eq!(report.partition, adversary.partition(), "{}", variant.name);
        assert!(adversary.smallest_class_pinned(), "{}", variant.name);
        rows.push((
            format!("search-{}/smallest-class", variant.name),
            witness(
                &adversary,
                adversary.rounds_committed(),
                adversary.plan_stats(),
            ),
        ));
    }
    rows
}

const PINNED: &[(&str, [u64; 7])] = &[
    (
        "representative-scan/equal-size",
        [16864, 1024, 3721, 16864, 16864, 0, 16864],
    ),
    (
        "representative-scan/smallest-class",
        [16311, 1024, 5015, 16311, 16311, 0, 16311],
    ),
    (
        "round-robin/equal-size",
        [9305, 1024, 2444, 9305, 9305, 0, 9305],
    ),
    (
        "round-robin/smallest-class",
        [9566, 1024, 2506, 9566, 9566, 0, 9566],
    ),
    (
        "er-merge/equal-size",
        [18979, 1024, 2509, 151, 18979, 0, 18669],
    ),
    (
        "er-merge/smallest-class",
        [21395, 1024, 2308, 159, 21395, 0, 21048],
    ),
    (
        "search-block-16/smallest-class",
        [32192, 1024, 5948, 64, 32192, 0, 32192],
    ),
    (
        "search-block-64/smallest-class",
        [62016, 1024, 5009, 16, 62016, 0, 62016],
    ),
    (
        "search-block-64-audit/smallest-class",
        [303936, 1024, 5009, 16, 106798, 197138, 77034],
    ),
];

#[test]
fn plan_witness_is_pinned_on_the_lower_bounds_roster() {
    let observed = observe();
    let expected: Vec<Row> = PINNED
        .iter()
        .map(|&(name, values)| (name.to_string(), values))
        .collect();
    if observed != expected {
        let rows: String = observed
            .iter()
            .map(|(name, v)| format!("    ({name:?}, {v:?}),\n"))
            .collect();
        panic!("plan witness changed; observed rows:\n{rows}");
    }
}
