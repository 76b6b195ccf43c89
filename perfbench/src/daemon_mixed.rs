//! `daemon-mixed`: the daemon runs in-process behind
//! `Daemon::bind("127.0.0.1:0", DaemonConfig::default())`; an open loop
//! submits n = 1000 jobs over one TCP connection on an evenly spaced
//! schedule while a second thread reads the responses. Submits omit
//! `backend=`, so the daemon default applies. The service layers, the
//! per-job fixed costs (instance build, `auto` calibration) and the heavy
//! `er-constant` jobs do the work here.

use crate::host::HostClock;
use crate::inputs::{build_instance, item_seed};
use crate::report::{median, quantile, Report};
use crate::trace::Tracer;
use crate::Opts;
use ecs_model::Partition;
use ecs_service::protocol::{render_result, run_job_traced};
use ecs_service::{
    AlgoSpec, BackendSpec, Client, Daemon, DaemonConfig, DaemonHandle, DistSpec, JobSpec, Request,
    Response,
};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const N: usize = 1000;
/// Offered load of the open loop, in jobs per second.
pub const RATE: f64 = 20.0;
const TENANTS: usize = 3;
const DISTS: [DistSpec; 5] = [
    DistSpec::Uniform(5),
    DistSpec::Geometric(0.3),
    DistSpec::Poisson(4.0),
    DistSpec::Zeta(2.5),
    DistSpec::Balanced(7),
];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long after the last scheduled send the receiver waits for stragglers.
const GRACE: Duration = Duration::from_secs(60);
/// Linger handed to `run_job_traced` for the serial reference (only
/// `coalesced:W` jobs read it, and the slate has none).
const LINGER: Duration = Duration::from_micros(200);
/// Specs (four slate cycles) also evaluated under `seq` for
/// `backend.auto_over_seq`.
const SEQ_REFERENCE_JOBS: usize = 120;

/// Job `i` of the slate: 6 algorithms × 5 distributions (coprime cycles, so
/// every 30 consecutive jobs cover all 30 pairs), spread over 3 tenants.
fn spec(workload_seed: u64, i: usize) -> JobSpec {
    JobSpec {
        id: format!("j{i:05}"),
        tenant: format!("t{}", i % TENANTS),
        weight: 1,
        dist: DISTS[i % DISTS.len()],
        n: N,
        seed: item_seed(workload_seed, i as u64),
        algo: AlgoSpec::ALL[i % AlgoSpec::ALL.len()],
        backend: BackendSpec::Auto,
    }
}

/// The submit line as a client that leaves the backend to the daemon
/// writes it: no `backend=` field.
fn submit_line(spec: &JobSpec) -> String {
    format!(
        "submit id={} tenant={} dist={} n={} seed={} algo={}\n",
        spec.id, spec.tenant, spec.dist, spec.n, spec.seed, spec.algo
    )
}

fn index_of(id: &str) -> Option<usize> {
    id.strip_prefix('j')?.parse().ok()
}

/// Reads responses until `want` arrives; `None` on EOF or error.
fn recv_until(client: &mut Client, want: impl Fn(&Response) -> bool) -> Option<Response> {
    while let Ok(Some(response)) = client.recv() {
        if want(&response) {
            return Some(response);
        }
    }
    None
}

/// Binds a daemon, waits for its first `status` answer and runs one
/// warm-up job (which pays the `auto` probe on the first set-up).
fn start_daemon(warm: &JobSpec) -> std::io::Result<(DaemonHandle, String, Duration)> {
    let start = Instant::now();
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default())?;
    let addr = daemon
        .local_addr()
        .expect("a TCP daemon has an address")
        .to_string();
    let stream = TcpStream::connect(&addr)?;
    let mut raw = stream.try_clone()?;
    let mut client = Client::new(BufReader::new(stream.try_clone()?), stream);
    client.send(&Request::Status)?;
    let status = recv_until(&mut client, |r| matches!(r, Response::Status { .. }));
    raw.write_all(submit_line(warm).as_bytes())?;
    let done = recv_until(&mut client, |r| {
        matches!(
            r,
            Response::Result { .. } | Response::Failed { .. } | Response::Rejected { .. }
        )
    });
    let took = start.elapsed();
    if status.is_none() || !matches!(done, Some(Response::Result { .. })) {
        return Err(std::io::Error::other("daemon set-up did not complete"));
    }
    Ok((daemon, addr, took))
}

fn stop(daemon: DaemonHandle) {
    daemon.stop();
    daemon.join();
}

/// What the client saw of one job.
#[derive(Clone, Default)]
struct Seen {
    sent: Option<Instant>,
    accepted: Option<Instant>,
    done: Option<Instant>,
    /// The `result` line, or `None` for a failed / rejected / cancelled /
    /// missing job.
    result: Option<String>,
    /// The terminal verb when it was not `result`.
    other: Option<&'static str>,
}

/// The open-loop run against a started daemon.
struct Live {
    t0: Instant,
    dues: Vec<Instant>,
    seen: Vec<Seen>,
    late_max: Duration,
    /// How much slower than nominal the host ran during the live run.
    slowdown: f64,
    end: Instant,
}

fn live_run(addr: &str, specs: &[JobSpec]) -> std::io::Result<Live> {
    let stream = TcpStream::connect(addr)?;
    let mut sender = stream.try_clone()?;
    let mut receiver = Client::new(BufReader::new(stream.try_clone()?), std::io::sink());
    let jobs = specs.len();
    let t0 = Instant::now() + Duration::from_millis(20);
    let dues: Vec<Instant> = (0..jobs)
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / RATE))
        .collect();
    let lines: Vec<String> = specs.iter().map(submit_line).collect();
    let (done_tx, done_rx) = mpsc::channel();

    let (sent, late_max, slowdown, seen) = std::thread::scope(|scope| {
        let dues = &dues;
        let send = scope.spawn(move || {
            let mut sent = Vec::with_capacity(jobs);
            let mut late_max = Duration::ZERO;
            let mut clock = HostClock::new();
            for (due, line) in dues.iter().zip(&lines) {
                let now = Instant::now();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                let at = Instant::now();
                late_max = late_max.max(at - *due);
                if sender.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent.push(at);
                // Between sends this thread is idle: time a host slice by
                // its CPU clock, so the daemon's threads cannot inflate it.
                clock.cpu_slice();
            }
            (sent, late_max, clock.take())
        });
        let recv = scope.spawn(move || {
            let mut seen = vec![Seen::default(); jobs];
            let mut open = jobs;
            while open > 0 {
                let Ok(Some(response)) = receiver.recv() else {
                    break;
                };
                let now = Instant::now();
                let (id, verb) = match &response {
                    Response::Accepted { id } => (id, "accepted"),
                    Response::Result { id, .. } => (id, "result"),
                    Response::Failed { id, .. } => (id, "failed"),
                    Response::Rejected { id, .. } => (id, "rejected"),
                    Response::Cancelled { id } => (id, "cancelled"),
                    _ => continue,
                };
                let Some(slot) = index_of(id).and_then(|i| seen.get_mut(i)) else {
                    continue;
                };
                match (verb, response) {
                    ("accepted", _) => slot.accepted = Some(now),
                    (_, Response::Result { line, .. }) => {
                        slot.result = Some(line);
                        slot.done = Some(now);
                        open -= 1;
                    }
                    (verb, _) => {
                        slot.other = Some(verb);
                        slot.done = Some(now);
                        open -= 1;
                    }
                }
            }
            let _ = done_tx.send(());
            seen
        });
        // Stragglers past the grace period count as missing: closing the
        // socket ends the receiver.
        let deadline = dues.last().copied().unwrap_or(t0) + GRACE;
        let wait = deadline.saturating_duration_since(Instant::now());
        if done_rx.recv_timeout(wait).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let (sent, late_max, slowdown) = send.join().expect("sender thread panicked");
        let seen = recv.join().expect("receiver thread panicked");
        (sent, late_max, slowdown, seen)
    });
    let _ = stream.shutdown(Shutdown::Both);
    let mut seen = seen;
    for (slot, at) in seen.iter_mut().zip(sent) {
        slot.sent = Some(at);
    }
    let end = seen.iter().filter_map(|s| s.done).max().unwrap_or(t0);
    Ok(Live {
        t0,
        dues,
        seen,
        late_max,
        slowdown,
        end,
    })
}

/// Checks one result line against the instance rebuilt from its spec.
fn result_ok(spec: &JobSpec, line: &str) -> bool {
    let header = format!(
        "result id={} algo={} dist={} n={} seed={} ",
        spec.id, spec.algo, spec.dist, spec.n, spec.seed
    );
    let labels = line
        .split_ascii_whitespace()
        .find_map(|token| token.strip_prefix("labels="))
        .map(|list| {
            list.split(',')
                .map(str::parse::<u32>)
                .collect::<Result<Vec<u32>, _>>()
        });
    match labels {
        Some(Ok(labels)) if line.starts_with(&header) && labels.len() == spec.n => {
            build_instance(spec.dist, spec.n, spec.seed).verify(&Partition::from_labels(&labels))
        }
        _ => false,
    }
}

fn field(line: &str, key: &str) -> u64 {
    line.split_ascii_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Set-up (several times, median reported) and the live run, with every
/// job checked. Returns the live run and its specs.
fn measured(opts: &Opts, report: &mut Report, tracer: &mut Tracer) -> Option<(Live, Vec<JobSpec>)> {
    let jobs = ((opts.seconds * RATE).round() as usize).max(1);
    let specs: Vec<JobSpec> = (0..jobs).map(|i| spec(opts.seed, i)).collect();
    let warm = JobSpec {
        id: "warmup".to_string(),
        ..spec(opts.seed ^ 0x5741_524d, 3)
    };
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = daemon.take() {
            stop(old);
        }
        tracer.enter("setup:bind+status+warmup");
        let started = start_daemon(&warm);
        tracer.exit();
        match started {
            Ok((handle, addr, took)) => {
                setups.push(took.as_secs_f64());
                daemon = Some((handle, addr));
            }
            Err(error) => {
                report.check(false, || format!("daemon set-up failed: {error}"));
                return None;
            }
        }
    }
    let (handle, addr) = daemon.expect("at least one set-up ran");
    let live = live_run(&addr, &specs);
    stop(handle);
    let live = match live {
        Ok(live) => live,
        Err(error) => {
            report.check(false, || format!("live run failed: {error}"));
            return None;
        }
    };
    for (spec, seen) in specs.iter().zip(&live.seen) {
        let ok = seen
            .result
            .as_deref()
            .is_some_and(|line| result_ok(spec, line));
        report.job(ok, || {
            format!(
                "{}: {}",
                spec.id,
                seen.other.unwrap_or(if seen.result.is_some() {
                    "wrong labels"
                } else {
                    "no terminal line"
                })
            )
        });
    }
    report.put("setup_s", median(&setups), "s");
    Some((live, specs))
}

/// Client latency per job, from its scheduled send to its terminal line. A
/// job without a checked result counts as answered at the receiver's
/// deadline, later than any job that completed.
fn latencies_ms(live: &Live, specs: &[JobSpec]) -> Vec<f64> {
    let deadline = live.dues.last().copied().unwrap_or(live.t0) + GRACE;
    live.seen
        .iter()
        .zip(&live.dues)
        .zip(specs)
        .map(|((seen, due), spec)| {
            let done = match (&seen.result, seen.done) {
                (Some(line), Some(done)) if result_ok(spec, line) => done,
                _ => deadline,
            };
            (done - *due).as_secs_f64() * 1e3
        })
        .collect()
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(opts.trace);
    let Some((live, specs)) = measured(opts, &mut report, &mut tracer) else {
        return report;
    };
    let latency = latencies_ms(&live, &specs);
    eprintln!(
        "daemon-mixed: {} jobs at {RATE} jobs/s, generator late by at most {:.3} ms, \
         host slowdown {:.3}",
        specs.len(),
        live.late_max.as_secs_f64() * 1e3,
        live.slowdown
    );
    // The offered rate holds only if the generator kept its schedule: a
    // stall of more than ten send intervals turns the open loop into bursts.
    report.check(live.late_max.as_secs_f64() < 10.0 / RATE, || {
        format!(
            "generator fell {:.3} ms behind schedule",
            live.late_max.as_secs_f64() * 1e3
        )
    });
    if opts.trace {
        traced(opts, &live, &specs, &latency, &mut report, tracer);
        return report;
    }
    let verified = (report.attempted - report.failed) as f64;
    report.put(
        "elements_per_s",
        verified * N as f64 / (live.end - live.t0).as_secs_f64(),
        "elements/s",
    );
    // The median waits mostly on the socket writer's timing (the 50 ms send
    // grid), which no CPU speed changes; the tail is the heavy jobs'
    // compute, so it is scaled to the nominal host.
    report.put("job_p50_ms", median(&latency), "ms");
    report.put(
        "job_p95_ms",
        quantile(&latency, 0.95) / live.slowdown,
        "ms",
    );
    report
}

fn traced(
    opts: &Opts,
    live: &Live,
    specs: &[JobSpec],
    latency: &[f64],
    report: &mut Report,
    mut tracer: Tracer,
) {
    let trace_start = Instant::now();
    let root = tracer.record("live", live.t0, live.end, None);
    for ((spec, seen), due) in specs.iter().zip(&live.seen).zip(&live.dues) {
        let (Some(sent), Some(done)) = (seen.sent, seen.done) else {
            continue;
        };
        let job = tracer.record(format!("job:{}/{}", spec.algo, spec.dist), *due, done, root);
        tracer.record("gen.late", *due, sent, job);
        if let Some(accepted) = seen.accepted {
            tracer.record("service.admit", sent, accepted, job);
            tracer.record("service.queue_compute_write", accepted, done, job);
        }
    }
    let trace_cost = trace_start.elapsed();

    // Serial reference: every spec under the daemon default (and the first
    // ones under `seq`), one at a time on this thread.
    let mut default_ms = Vec::new();
    let (mut default_s, mut seq_s, mut build_s) = (0.0, 0.0, 0.0);
    tracer.enter("serial");
    for (index, (spec, seen)) in specs.iter().zip(&live.seen).enumerate() {
        tracer.enter(format!("run_job.default:{}", spec.algo));
        let start = Instant::now();
        let run = run_job_traced(spec, LINGER, None).run;
        let took = start.elapsed().as_secs_f64();
        tracer.exit();
        default_ms.push(took * 1e3);
        let rendered = render_result(spec, &run);
        report.check(seen.result.as_deref() == Some(rendered.as_str()), || {
            format!(
                "{}: daemon result line differs from the serial one",
                spec.id
            )
        });
        if index < SEQ_REFERENCE_JOBS {
            let seq = JobSpec {
                backend: BackendSpec::Seq,
                ..spec.clone()
            };
            tracer.enter(format!("run_job.seq:{}", spec.algo));
            let start = Instant::now();
            let run = run_job_traced(&seq, LINGER, None).run;
            seq_s += start.elapsed().as_secs_f64();
            default_s += took;
            tracer.exit();
            report.check(render_result(spec, &run) == rendered, || {
                format!("{}: seq and default backends disagree", spec.id)
            });
        }
        tracer.enter("instance.build");
        let start = Instant::now();
        std::hint::black_box(build_instance(spec.dist, spec.n, spec.seed));
        build_s += start.elapsed().as_secs_f64();
        tracer.exit();
    }
    tracer.exit();
    // The submit line must mean the spec (backend left to the default).
    report.check(
        Request::parse(&submit_line(&specs[0])) == Ok(Request::Submit(specs[0].clone())),
        || "submit line does not parse back to its spec".to_string(),
    );
    // A second seed must run clean (serially, one slate cycle).
    for i in 0..AlgoSpec::ALL.len() * DISTS.len() {
        let other = spec(opts.seed.wrapping_add(1), i);
        let line = render_result(&other, &run_job_traced(&other, LINGER, None).run);
        report.check(result_ok(&other, &line), || {
            format!("second seed: {} failed", other.id)
        });
    }

    let lines: Vec<&str> = live
        .seen
        .iter()
        .filter_map(|s| s.result.as_deref())
        .collect();
    let parse_start = Instant::now();
    for line in &lines {
        report.check(Response::parse(line).is_ok(), || {
            "result line does not parse".to_string()
        });
    }
    let parse_us = parse_start.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    let admit: Vec<f64> = live
        .seen
        .iter()
        .filter_map(|s| Some((s.accepted? - s.sent?).as_secs_f64() * 1e3))
        .collect();
    let overhead: Vec<f64> = latency
        .iter()
        .zip(&default_ms)
        .map(|(l, c)| l - c)
        .collect();
    let count = |verb| live.seen.iter().filter(|s| s.other == Some(verb)).count() as f64;

    report.put("instance.build_s", build_s, "s");
    report.put("backend.auto_over_seq", default_s / seq_s, "ratio");
    report.put("job.compute_p50_ms", median(&default_ms), "ms");
    report.put("job.compute_p95_ms", quantile(&default_ms, 0.95), "ms");
    report.put(
        "service.admit_p50_ms",
        if admit.is_empty() {
            0.0
        } else {
            median(&admit)
        },
        "ms",
    );
    report.put("service.overhead_p50_ms", median(&overhead), "ms");
    report.put("service.overhead_p95_ms", quantile(&overhead, 0.95), "ms");
    report.put("service.rejected", count("rejected"), "count");
    report.put(
        "service.failed",
        count("failed") + count("cancelled"),
        "count",
    );
    report.put(
        "protocol.result_bytes",
        lines.iter().map(|l| l.len()).sum::<usize>() as f64 / lines.len().max(1) as f64,
        "bytes",
    );
    report.put("protocol.parse_us", parse_us, "us");
    report.put(
        "model.comparisons",
        lines.iter().map(|l| field(l, "comparisons")).sum::<u64>() as f64,
        "count",
    );
    report.put(
        "model.rounds",
        lines.iter().map(|l| field(l, "rounds")).sum::<u64>() as f64,
        "count",
    );
    report.put("gen.late_max_ms", live.late_max.as_secs_f64() * 1e3, "ms");
    report.put("host.slowdown", live.slowdown, "ratio");
    report.put(
        "trace.overhead_frac",
        trace_cost.as_secs_f64() / (live.end - live.t0).as_secs_f64(),
        "ratio",
    );
    crate::finish_trace(opts, "daemon-mixed", &tracer);
}
