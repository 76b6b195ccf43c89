//! `sort-100k`: one thread, closed loop, in-process library calls on the
//! library default backend at n = 100 000. The algorithms' bookkeeping, the
//! session checks and `InstanceOracle` do the work; the service, `auto` and
//! the adversaries are bypassed.

use crate::inputs::{build_instance, item_seed, sort};
use crate::report::{median, put_closed_loop, Report};
use crate::trace::{OracleStats, TracedOracle, Tracer};
use crate::host::{self, HostClock};
use crate::{alloc, Opts};
use ecs_model::{Instance, InstanceOracle};
use ecs_service::{AlgoSpec, DistSpec};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const N: usize = 100_000;

/// The algorithms the slate runs, in reporting order.
pub const ALGOS: [AlgoSpec; 5] = [
    AlgoSpec::RepresentativeScan,
    AlgoSpec::ErMerge,
    AlgoSpec::CrCompound,
    AlgoSpec::ErConstant,
    AlgoSpec::RoundRobin,
];

struct Cell {
    algo: AlgoSpec,
    dist: DistSpec,
    seed: u64,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.algo, self.dist)
    }
}

/// The cells of pass `pass`: every pass sorts fresh instances, so a run's
/// per-cell medians average over several inputs of the seed.
fn slate(workload_seed: u64, pass: u64) -> Vec<Cell> {
    let four = [
        DistSpec::Uniform(5),
        DistSpec::Balanced(8),
        DistSpec::Poisson(4.0),
        DistSpec::Zeta(2.5),
    ];
    let mut pairs = Vec::new();
    for algo in [
        AlgoSpec::RepresentativeScan,
        AlgoSpec::ErMerge,
        AlgoSpec::CrCompound,
    ] {
        pairs.extend(four.iter().map(|&dist| (algo, dist)));
    }
    pairs.push((AlgoSpec::ErConstant, DistSpec::Uniform(5)));
    pairs.push((AlgoSpec::ErConstant, DistSpec::Balanced(8)));
    pairs.push((AlgoSpec::RoundRobin, DistSpec::Uniform(5)));
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (algo, dist))| Cell {
            algo,
            dist,
            seed: item_seed(workload_seed, pass * 1000 + i as u64),
        })
        .collect()
}

/// What one sort of one cell produced.
struct Outcome {
    /// Wall time of the sort (host slices taken out).
    time: Duration,
    /// How much slower than nominal the host ran during it (1.0 on traced
    /// sorts, which take no host slices).
    slowdown: f64,
    comparisons: u64,
    rounds: u64,
    allocs: u64,
    ok: bool,
}

/// Builds the pass's instances (the workload's set-up), timed.
fn setup(cells: &[Cell], tracer: &mut Tracer) -> (Vec<Instance>, Duration) {
    tracer.enter("setup");
    let start = Instant::now();
    let instances = cells
        .iter()
        .map(|cell| {
            tracer.enter("instance.build");
            let instance = build_instance(cell.dist, N, cell.seed);
            tracer.exit();
            instance
        })
        .collect();
    let took = start.elapsed();
    tracer.exit();
    (instances, took)
}

/// How a sort is observed: timed against the host clock, or traced.
enum Probe<'a> {
    Host(&'a Mutex<HostClock>),
    Traced(&'a OracleStats),
}

/// Sorts one cell and checks the partition.
fn run_cell(cell: &Cell, instance: &Instance, probe: Probe<'_>) -> Outcome {
    let k = instance.num_classes().max(1);
    let oracle = InstanceOracle::new(instance);
    let allocs = alloc::count();
    let (run, time, slowdown) = match probe {
        Probe::Host(clock) => host::measured(clock, &oracle, |sampled| {
            sort(cell.algo, k, cell.seed, sampled)
        }),
        Probe::Traced(stats) => {
            let start = Instant::now();
            let traced = TracedOracle {
                inner: &oracle,
                stats,
            };
            let run = sort(cell.algo, k, cell.seed, &traced);
            (run, start.elapsed(), 1.0)
        }
    };
    let allocs = alloc::count() - allocs;
    Outcome {
        time,
        slowdown,
        comparisons: run.metrics.comparisons(),
        rounds: run.metrics.rounds(),
        allocs,
        ok: instance.verify(&run.partition),
    }
}

fn record(report: &mut Report, cell: &Cell, outcome: &Outcome) {
    report.job(outcome.ok, || {
        format!("{} seed {}: wrong partition", cell.label(), cell.seed)
    });
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    if opts.trace {
        traced(opts, &mut report);
        return report;
    }
    let clock = Mutex::new(HostClock::new());
    let mut setups = Vec::new();
    let mut cell_times: Vec<Vec<f64>> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut weighted_slowdown = 0.0;
    // Whole passes until the budget is spent, so every cell is sampled
    // equally often. Every time is scaled to the nominal host.
    while timed.as_secs_f64() < opts.seconds || setups.is_empty() {
        let cells = slate(opts.seed, setups.len() as u64);
        cell_times.resize(cells.len(), Vec::new());
        let pass = plain_pass(&cells, &clock, &mut report);
        setups.push(pass.setup.as_secs_f64() / pass.setup_slowdown);
        for (times, outcome) in cell_times.iter_mut().zip(&pass.outcomes) {
            timed += outcome.time;
            weighted_slowdown += outcome.time.as_secs_f64() * outcome.slowdown;
            times.push(outcome.time.as_secs_f64() / outcome.slowdown);
        }
    }
    eprintln!(
        "sort-100k: {} passes of {} cells, host slowdown {:.3}",
        setups.len(),
        cell_times.len(),
        weighted_slowdown / timed.as_secs_f64()
    );
    report.put("setup_s", median(&setups), "s");
    put_closed_loop(&mut report, &vec![N; cell_times.len()], &cell_times);
    report
}

/// One untraced pass: per-cell outcomes, and the instance build time with
/// the host's slowdown meanwhile.
struct Pass {
    outcomes: Vec<Outcome>,
    setup: Duration,
    setup_slowdown: f64,
}

fn plain_pass(cells: &[Cell], clock: &Mutex<HostClock>, report: &mut Report) -> Pass {
    let ((instances, _), setup, setup_slowdown) =
        host::timed(clock, || setup(cells, &mut Tracer::new(false)));
    let outcomes = cells
        .iter()
        .zip(&instances)
        .map(|(cell, instance)| {
            let outcome = run_cell(cell, instance, Probe::Host(clock));
            record(report, cell, &outcome);
            outcome
        })
        .collect();
    Pass {
        outcomes,
        setup,
        setup_slowdown,
    }
}

fn traced(opts: &Opts, report: &mut Report) {
    let cells = &slate(opts.seed, 0);
    let clock = Mutex::new(HostClock::new());
    // Untraced reference pass: the base of every per-call ratio and of the
    // tracing overhead.
    let Pass {
        outcomes: plain,
        setup: build,
        ..
    } = plain_pass(cells, &clock, report);

    // Traced pass: spans at pass / cell / call boundaries, the forwarding
    // oracle and the allocation counter.
    alloc::enable();
    let mut tracer = Tracer::new(true);
    let stats = OracleStats::default();
    tracer.enter("pass");
    let (instances, _) = setup(cells, &mut tracer);
    let mut traced_outcomes = Vec::new();
    for (cell, instance) in cells.iter().zip(&instances) {
        tracer.enter(format!("sort:{}", cell.label()));
        let outcome = run_cell(cell, instance, Probe::Traced(&stats));
        tracer.exit();
        record(report, cell, &outcome);
        traced_outcomes.push(outcome);
    }
    tracer.exit();

    // Exact counters must repeat between the two passes of this seed.
    for ((cell, a), b) in cells.iter().zip(&plain).zip(&traced_outcomes) {
        report.check(
            (a.comparisons, a.rounds) == (b.comparisons, b.rounds),
            || format!("{}: counters differ between passes", cell.label()),
        );
    }
    // A second seed must run clean.
    let other = slate(opts.seed.wrapping_add(1), 0);
    let mut second = Report::default();
    plain_pass(&other, &clock, &mut second);
    report.check(second.correct(), || "second seed failed".to_string());

    let plain_s: f64 = plain.iter().map(|o| o.time.as_secs_f64()).sum();
    let traced_s: f64 = traced_outcomes.iter().map(|o| o.time.as_secs_f64()).sum();
    let comparisons: u64 = plain.iter().map(|o| o.comparisons).sum();
    let rounds: u64 = plain.iter().map(|o| o.rounds).sum();
    report.put("instance.build_s", build.as_secs_f64(), "s");
    for algo in ALGOS {
        let of_algo = || {
            cells
                .iter()
                .zip(&plain)
                .filter(move |(c, _)| c.algo == algo)
        };
        let time_ns: f64 = of_algo().map(|(_, o)| o.time.as_nanos() as f64).sum();
        let cmps: u64 = of_algo().map(|(_, o)| o.comparisons).sum();
        let allocs: u64 = cells
            .iter()
            .zip(&traced_outcomes)
            .filter(|(c, _)| c.algo == algo)
            .map(|(_, o)| o.allocs)
            .sum();
        report.put(
            format!("core.{algo}.ns_per_cmp"),
            time_ns / cmps.max(1) as f64,
            "ns",
        );
        report.put(format!("core.{algo}.allocs"), allocs as f64, "count");
    }
    let calls = OracleStats::get(&stats.calls);
    report.put(
        "oracle.busy_frac",
        OracleStats::get(&stats.query_ns) as f64 / 1e9 / traced_s,
        "ratio",
    );
    report.put(
        "oracle.pairs_per_call",
        OracleStats::get(&stats.pairs) as f64 / calls.max(1) as f64,
        "pairs/call",
    );
    report.put(
        "model.comparisons_per_s",
        comparisons as f64 / plain_s,
        "1/s",
    );
    report.put("model.comparisons", comparisons as f64, "count");
    report.put("model.rounds", rounds as f64, "count");
    report.put("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio");
    report.put("host.slowdown", host::mean_slowdown(plain.iter().map(|o| (o.time, o.slowdown))), "ratio");
    crate::finish_trace(opts, "sort-100k", &tracer);
}
