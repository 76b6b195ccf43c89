//! The repository benchmark: end-to-end metrics of three workloads (timed
//! runs) and per-layer metrics (traced runs), with every output checked.
//!
//! ```text
//! ecs_perfbench --workload sort-100k|daemon-mixed|lower-bounds
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Traced runs also write their spans
//! to `target/perfbench-traces/trace-<workload>-<seed>.jsonl` under the
//! working directory.

mod alloc;
mod daemon_mixed;
mod host;
mod inputs;
mod lower_bounds;
mod report;
mod sort100k;
mod trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports its metrics as 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("instance.build_s", "s"),
    ("core.representative-scan.ns_per_cmp", "ns"),
    ("core.representative-scan.allocs", "count"),
    ("core.er-merge.ns_per_cmp", "ns"),
    ("core.er-merge.allocs", "count"),
    ("core.cr-compound.ns_per_cmp", "ns"),
    ("core.cr-compound.allocs", "count"),
    ("core.er-constant.ns_per_cmp", "ns"),
    ("core.er-constant.allocs", "count"),
    ("core.round-robin.ns_per_cmp", "ns"),
    ("core.round-robin.allocs", "count"),
    ("oracle.busy_frac", "ratio"),
    ("oracle.pairs_per_call", "pairs/call"),
    ("model.comparisons_per_s", "1/s"),
    ("model.comparisons", "count"),
    ("model.rounds", "count"),
    ("backend.auto_over_seq", "ratio"),
    ("job.compute_p50_ms", "ms"),
    ("job.compute_p95_ms", "ms"),
    ("service.admit_p50_ms", "ms"),
    ("service.overhead_p50_ms", "ms"),
    ("service.overhead_p95_ms", "ms"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("protocol.result_bytes", "bytes"),
    ("protocol.parse_us", "us"),
    ("adversary.packed.ns_per_forced", "ns"),
    ("adversary.spill.ns_per_forced", "ns"),
    ("search.ns_per_forced", "ns"),
    ("adversary.plan_frac", "ratio"),
    ("adversary.query_frac", "ratio"),
    ("adversary.commit_frac", "ratio"),
    ("plan.replayed", "count"),
    ("plan.cached", "count"),
    ("plan.invalidated", "count"),
    ("plan.hit_ratio", "ratio"),
    ("adversary.forced", "count"),
    ("adversary.marked", "count"),
    ("adversary.swaps", "count"),
    ("gen.late_max_ms", "ms"),
    ("host.slowdown", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: ecs_perfbench --workload sort-100k|daemon-mixed|lower-bounds \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value `{value}` for {flag}")))
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = parse_value(&flag, &value),
            "--seconds" => opts.seconds = parse_value(&flag, &value),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value `{value}` for {flag}")),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    opts
}

/// Writes a traced run's spans and prints their per-name totals.
pub fn finish_trace(opts: &Opts, workload: &str, tracer: &trace::Tracer) {
    let path = std::path::PathBuf::from(format!(
        "target/perfbench-traces/trace-{workload}-{}.jsonl",
        opts.seed
    ));
    match tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    eprintln!(
        "{:<48} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in tracer.summary() {
        eprintln!(
            "{name:<48} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn main() {
    let opts = parse_args();
    let mut report = match opts.workload.as_str() {
        "sort-100k" => sort100k::run(&opts),
        "daemon-mixed" => daemon_mixed::run(&opts),
        "lower-bounds" => lower_bounds::run(&opts),
        other => usage(&format!("unknown workload `{other}`")),
    };
    if opts.trace {
        report.put("failed_frac", report.failed_frac(), "ratio");
        for &(name, unit) in LAYER_METRICS {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.put(name, 0.0, unit);
            }
        }
        report
            .metrics
            .retain(|m| LAYER_METRICS.iter().any(|&(name, _)| name == m.name));
    } else {
        report.put("peak_rss_mb", report::peak_rss_mib(), "MiB");
    }
    println!(
        "{} seed {} ({} attempted, {} failed):",
        opts.workload, opts.seed, report.attempted, report.failed
    );
    print!("{}", report.table());
    println!("{}", report.json());
}
