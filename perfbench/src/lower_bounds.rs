//! `lower-bounds`: one thread, Sequential backend, algorithms and the
//! Theorem 6 search driven against the Section 3 adversaries. The
//! adversaries' round-commit planner and the packed bitsets do the work;
//! `InstanceOracle` and the service are bypassed.
//!
//! The adversaries are deterministic, so the workload seed picks a
//! relabeling of the elements: the algorithm sees element `i` where the
//! adversary keeps element `perm[i]`.

use crate::inputs::item_seed;
use crate::report::{median, put_closed_loop, Report};
use crate::trace::{OracleStats, TracedOracle, Tracer};
use crate::host::{self, HostClock};
use crate::Opts;
use ecs_adversary::{
    EqualSizeAdversary, LowerBoundAdversary, SmallestClassAdversary, SmallestClassSearch,
};
use ecs_bench::runners::{search_variants, AdversaryAlgorithm, SearchVariant};
use ecs_model::{EquivalenceOracle, ExecutionBackend, Metrics, Partition, PlanStats};
use ecs_rng::{seq::shuffle, SeedableEcsRng, Xoshiro256StarStar};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shows the algorithm element `i` as the adversary's element `perm[i]`.
struct Relabeled<'a, O> {
    inner: &'a O,
    perm: &'a [usize],
}

impl<O: EquivalenceOracle> Relabeled<'_, O> {
    fn map(&self, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        pairs
            .iter()
            .map(|&(a, b)| (self.perm[a], self.perm[b]))
            .collect()
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for Relabeled<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.inner.same(self.perm[a], self.perm[b])
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.inner.same_batch(&self.map(pairs))
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        self.inner.round_opened(&self.map(pairs));
    }

    fn round_closed(&self) {
        self.inner.round_closed();
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Group {
    /// A roster algorithm against a packed-plan adversary (n = 4096).
    Packed,
    /// The Theorem 6 search (n = 4096).
    Search,
    /// `er-merge` against a spill-plan adversary (n = 10000).
    Spill,
}

/// What queries the adversary in a case.
#[derive(Clone, Copy)]
enum Interrogator {
    Algorithm(AdversaryAlgorithm),
    Search(SearchVariant),
}

#[derive(Clone, Copy)]
enum Kind {
    EqualSize,
    SmallestClass,
}

struct Case {
    name: String,
    group: Group,
    kind: Kind,
    n: usize,
    param: usize,
    interrogator: Interrogator,
    seed: u64,
}

/// The cases of pass `pass`: every pass draws fresh relabelings, so a
/// run's per-case medians average over several inputs of the seed.
fn slate(workload_seed: u64, pass: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push = |name: String, group, kind, n, param, interrogator| {
        let seed = item_seed(workload_seed, pass * 1000 + cases.len() as u64);
        cases.push(Case {
            name,
            group,
            kind,
            n,
            param,
            interrogator,
            seed,
        });
    };
    for (kind, label) in [
        (Kind::EqualSize, "equal-size:f64"),
        (Kind::SmallestClass, "smallest-class:l64"),
    ] {
        for algo in AdversaryAlgorithm::all() {
            push(
                format!("{}/{label}", algo.name()),
                Group::Packed,
                kind,
                4096,
                64,
                Interrogator::Algorithm(algo),
            );
        }
    }
    for variant in search_variants() {
        push(
            format!("search-{}/smallest-class:l64", variant.name),
            Group::Search,
            Kind::SmallestClass,
            4096,
            64,
            Interrogator::Search(variant),
        );
    }
    push(
        "er-merge/equal-size:f1000:spill".to_string(),
        Group::Spill,
        Kind::EqualSize,
        10_000,
        1000,
        Interrogator::Algorithm(AdversaryAlgorithm::ErMergeSort),
    );
    cases
}

enum Adversary {
    EqualSize(EqualSizeAdversary),
    SmallestClass(SmallestClassAdversary),
}

impl Adversary {
    fn as_bound(&self) -> &dyn LowerBoundAdversary {
        match self {
            Adversary::EqualSize(a) => a,
            Adversary::SmallestClass(a) => a,
        }
    }

    fn plan_stats(&self) -> PlanStats {
        match self {
            Adversary::EqualSize(a) => a.plan_stats(),
            Adversary::SmallestClass(a) => a.plan_stats(),
        }
    }
}

/// A case's inputs: the fresh adversary and the relabeling.
struct Prepared {
    adversary: Adversary,
    perm: Vec<usize>,
}

fn prepare(case: &Case) -> Prepared {
    let adversary = match case.kind {
        Kind::EqualSize => Adversary::EqualSize(EqualSizeAdversary::new(case.n, case.param)),
        Kind::SmallestClass => {
            Adversary::SmallestClass(SmallestClassAdversary::new(case.n, case.param))
        }
    };
    let mut perm: Vec<usize> = (0..case.n).collect();
    shuffle(&mut Xoshiro256StarStar::seed_from_u64(case.seed), &mut perm);
    Prepared { adversary, perm }
}

struct Outcome {
    /// Wall time of the case (host slices taken out).
    time: Duration,
    /// How much slower than nominal the host ran during it (1.0 on traced
    /// cases, which take no host slices).
    slowdown: f64,
    metrics: Metrics,
    forced: u64,
    marked: u64,
    swaps: u64,
    plan: PlanStats,
    ok: bool,
}

/// Lets the case's algorithm or search interrogate `oracle`.
fn drive<O: EquivalenceOracle>(interrogator: Interrogator, oracle: &O) -> (Partition, Metrics) {
    let backend = ExecutionBackend::Sequential;
    match interrogator {
        Interrogator::Algorithm(algo) => {
            let run = algo.run(oracle, backend);
            (run.partition, run.metrics)
        }
        Interrogator::Search(variant) => {
            let mut search = SmallestClassSearch::new(variant.wave);
            if variant.audit {
                search = search.with_audit();
            }
            let report = search.run(oracle, backend);
            (report.partition, report.metrics)
        }
    }
}

/// Drives one case to completion (timed against the host clock when one
/// is given) and checks it against the adversary.
fn run_case<O: EquivalenceOracle>(
    case: &Case,
    prepared: &Prepared,
    oracle: &O,
    clock: Option<&Mutex<HostClock>>,
) -> Outcome {
    let relabeled = Relabeled {
        inner: oracle,
        perm: &prepared.perm,
    };
    let ((partition, metrics), time, slowdown) = match clock {
        Some(clock) => host::measured(clock, &relabeled, |sampled| {
            drive(case.interrogator, sampled)
        }),
        None => {
            let start = Instant::now();
            let driven = drive(case.interrogator, &relabeled);
            (driven, start.elapsed(), 1.0)
        }
    };
    let adversary = prepared.adversary.as_bound();
    let committed = adversary.partition();
    let seen: Vec<u32> = prepared
        .perm
        .iter()
        .map(|&p| committed.labels()[p])
        .collect();
    let pinned = match (&prepared.adversary, case.interrogator) {
        (Adversary::SmallestClass(a), Interrogator::Search(_)) => a.smallest_class_pinned(),
        _ => true,
    };
    let forced = adversary.comparisons();
    Outcome {
        time,
        slowdown,
        metrics,
        forced,
        marked: adversary.marked_elements() as u64,
        swaps: adversary.swaps(),
        plan: prepared.adversary.plan_stats(),
        ok: partition == Partition::from_labels(&seen)
            && forced >= adversary.paper_lower_bound()
            && pinned,
    }
}

fn run_prepared(case: &Case, prepared: &Prepared, probe: Probe<'_>) -> Outcome {
    match (&prepared.adversary, probe) {
        (Adversary::EqualSize(a), Probe::Host(clock)) => run_case(case, prepared, a, Some(clock)),
        (Adversary::SmallestClass(a), Probe::Host(clock)) => {
            run_case(case, prepared, a, Some(clock))
        }
        (Adversary::EqualSize(a), Probe::Traced(stats)) => {
            run_case(case, prepared, &TracedOracle { inner: a, stats }, None)
        }
        (Adversary::SmallestClass(a), Probe::Traced(stats)) => {
            run_case(case, prepared, &TracedOracle { inner: a, stats }, None)
        }
    }
}

/// How a case is observed: timed against the host clock, or traced.
#[derive(Clone, Copy)]
enum Probe<'a> {
    Host(&'a Mutex<HostClock>),
    Traced(&'a OracleStats),
}

/// Builds every case's adversary (the workload's set-up), timed.
fn setup(cases: &[Case], tracer: &mut Tracer) -> (Vec<Prepared>, Duration) {
    tracer.enter("setup");
    let start = Instant::now();
    let prepared = cases
        .iter()
        .map(|case| {
            tracer.enter("adversary.new");
            let p = prepare(case);
            tracer.exit();
            p
        })
        .collect();
    let took = start.elapsed();
    tracer.exit();
    (prepared, took)
}

fn record(report: &mut Report, case: &Case, outcome: &Outcome) {
    report.job(outcome.ok, || {
        format!(
            "{} seed {}: partition or bound check failed (forced {})",
            case.name, case.seed, outcome.forced
        )
    });
}

/// One pass over the cases: per-case outcomes, and the adversaries' set-up
/// time with the host's slowdown meanwhile (1.0 on a traced pass).
struct Pass {
    outcomes: Vec<Outcome>,
    setup: Duration,
    setup_slowdown: f64,
}

fn pass(cases: &[Case], report: &mut Report, tracer: &mut Tracer, probe: Probe<'_>) -> Pass {
    let ((prepared, _), setup, setup_slowdown) = match probe {
        Probe::Host(clock) => host::timed(clock, || setup(cases, tracer)),
        Probe::Traced(_) => {
            let (prepared, took) = setup(cases, tracer);
            ((prepared, took), took, 1.0)
        }
    };
    let outcomes = cases
        .iter()
        .zip(&prepared)
        .map(|(case, prepared)| {
            tracer.enter(format!("run:{}", case.name));
            let outcome = run_prepared(case, prepared, probe);
            tracer.exit();
            record(report, case, &outcome);
            outcome
        })
        .collect();
    Pass {
        outcomes,
        setup,
        setup_slowdown,
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    if opts.trace {
        traced(opts, &mut report);
        return report;
    }
    let clock = Mutex::new(HostClock::new());
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut case_times: Vec<Vec<f64>> = Vec::new();
    let mut sizes = Vec::new();
    let mut timed = 0.0;
    let mut weighted_slowdown = 0.0;
    // Every time is scaled to the nominal host.
    while timed < opts.seconds || setups.is_empty() {
        let cases = slate(opts.seed, setups.len() as u64);
        sizes = cases.iter().map(|c| c.n).collect();
        case_times.resize(cases.len(), Vec::new());
        let pass = pass(&cases, &mut report, &mut off, Probe::Host(&clock));
        setups.push(pass.setup.as_secs_f64() / pass.setup_slowdown);
        for (c, outcome) in pass.outcomes.iter().enumerate() {
            let secs = outcome.time.as_secs_f64();
            timed += secs;
            weighted_slowdown += secs * outcome.slowdown;
            case_times[c].push(secs / outcome.slowdown);
        }
    }
    eprintln!(
        "lower-bounds: {} passes of {} cases, host slowdown {:.3}",
        setups.len(),
        case_times.len(),
        weighted_slowdown / timed
    );
    report.put("setup_s", median(&setups), "s");
    put_closed_loop(&mut report, &sizes, &case_times);
    report
}

fn traced(opts: &Opts, report: &mut Report) {
    let cases = &slate(opts.seed, 0);
    let clock = Mutex::new(HostClock::new());
    let plain = pass(cases, report, &mut Tracer::new(false), Probe::Host(&clock)).outcomes;

    let mut tracer = Tracer::new(true);
    let stats = OracleStats::default();
    tracer.enter("pass");
    let traced_outcomes = pass(cases, report, &mut tracer, Probe::Traced(&stats)).outcomes;
    tracer.exit();

    let counters = |o: &Outcome| {
        (
            o.metrics.comparisons(),
            o.metrics.rounds(),
            o.forced,
            o.marked,
            o.swaps,
            o.plan,
        )
    };
    for ((case, a), b) in cases.iter().zip(&plain).zip(&traced_outcomes) {
        report.check(counters(a) == counters(b), || {
            format!("{}: counters differ between passes", case.name)
        });
    }
    let mut second = Report::default();
    pass(
        &slate(opts.seed.wrapping_add(1), 0),
        &mut second,
        &mut Tracer::new(false),
        Probe::Host(&clock),
    );
    report.check(second.correct(), || "second seed failed".to_string());

    let per_forced = |group: Group| {
        let of = || {
            cases
                .iter()
                .zip(&plain)
                .filter(move |(c, _)| c.group == group)
        };
        let ns: f64 = of().map(|(_, o)| o.time.as_nanos() as f64).sum();
        let forced: u64 = of().map(|(_, o)| o.forced).sum();
        ns / forced.max(1) as f64
    };
    report.put(
        "adversary.packed.ns_per_forced",
        per_forced(Group::Packed),
        "ns",
    );
    report.put(
        "adversary.spill.ns_per_forced",
        per_forced(Group::Spill),
        "ns",
    );
    report.put("search.ns_per_forced", per_forced(Group::Search), "ns");

    let plain_s: f64 = plain.iter().map(|o| o.time.as_secs_f64()).sum();
    let traced_s: f64 = traced_outcomes.iter().map(|o| o.time.as_secs_f64()).sum();
    let frac = |counter| OracleStats::get(counter) as f64 / 1e9 / traced_s;
    let (plan, query, commit) = (
        frac(&stats.open_ns),
        frac(&stats.query_ns),
        frac(&stats.close_ns),
    );
    report.put("adversary.plan_frac", plan, "ratio");
    report.put("adversary.query_frac", query, "ratio");
    report.put("adversary.commit_frac", commit, "ratio");
    report.put("oracle.busy_frac", plan + query + commit, "ratio");
    report.put(
        "oracle.pairs_per_call",
        OracleStats::get(&stats.pairs) as f64 / OracleStats::get(&stats.calls).max(1) as f64,
        "pairs/call",
    );

    let sum = |f: fn(&Outcome) -> u64| plain.iter().map(f).sum::<u64>() as f64;
    let (replayed, cached) = (sum(|o| o.plan.replayed), sum(|o| o.plan.cached));
    report.put("plan.replayed", replayed, "count");
    report.put("plan.cached", cached, "count");
    report.put("plan.invalidated", sum(|o| o.plan.invalidated), "count");
    report.put(
        "plan.hit_ratio",
        cached / (cached + replayed).max(1.0),
        "ratio",
    );
    report.put("adversary.forced", sum(|o| o.forced), "count");
    report.put("adversary.marked", sum(|o| o.marked), "count");
    report.put("adversary.swaps", sum(|o| o.swaps), "count");
    let comparisons = sum(|o| o.metrics.comparisons());
    report.put("model.comparisons", comparisons, "count");
    report.put("model.rounds", sum(|o| o.metrics.rounds()), "count");
    report.put("model.comparisons_per_s", comparisons / plain_s, "1/s");
    report.put("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
    report.put(
        "host.slowdown",
        host::mean_slowdown(plain.iter().map(|o| (o.time, o.slowdown))),
        "ratio",
    );
    crate::finish_trace(opts, "lower-bounds", &tracer);
}
