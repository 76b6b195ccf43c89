//! Host speed: a fixed reference kernel that calls nothing of the program,
//! timed between and inside the benchmark's calls into the program.
//!
//! On a shared host the same code runs up to 1.6× slower for a fraction of
//! a second up to minutes at a time, because other tenants load the physical
//! core under each virtual CPU (the two CPUs of the tuning host slowed
//! independently of each other). A run reports each measured time scaled by
//! how fast the reference kernel ran on the same thread meanwhile, so the
//! host's state cancels while a change of the program shows in full: the
//! kernel's work never changes, whatever the program does.

use ecs_model::EquivalenceOracle;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Words in the kernel's table: 1 MiB, past L1 and within a core's L2.
const TABLE_WORDS: usize = 1 << 18;
/// Words of the table's hot head: 16 KiB, resident in L1.
const HOT_WORDS: usize = 1 << 12;
/// Steps per kernel slice (0.25–0.4 ms on the tuning host).
const STEPS: usize = 1 << 13;
/// The slice time on the tuning host in its fast periods. Scaled times are
/// times on a host where a slice takes this long, so they read close to the
/// raw ones when the host is not contended.
const NOMINAL_SLICE_S: f64 = 250e-6;
/// How often a [`Sampled`] oracle takes a slice inside a call.
const SLICE_EVERY: Duration = Duration::from_millis(20);
/// Oracle calls between two reads of the clock inside a call.
const CALLS_PER_CHECK: u32 = 64;

/// One slice of the reference kernel: a fixed amount of work that calls
/// nothing of the program. Each step makes a data-dependent load, store and
/// branch in the L1-resident head of the table and another anywhere in the
/// L2-sized table: the program's bookkeeping mixes both, and contention
/// slows the two differently (a kernel of either kind alone tracked the
/// program's slowdowns less closely on one workload or the other).
fn kernel(table: &mut [u32]) {
    let mut x: u32 = 0x9e37_79b9;
    let mut acc: u32 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        for slot in [x as usize % HOT_WORDS, (x >> 7) as usize % TABLE_WORDS] {
            let v = table[slot];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
                table[slot] = v.wrapping_add(x) | 1;
            } else {
                acc ^= v.rotate_left(7);
                table[slot] = v >> 1;
            }
        }
    }
    black_box(acc);
}

/// CPU time of the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The reference kernel with its table, and the slices it timed.
pub struct HostClock {
    table: Vec<u32>,
    slices: Vec<f64>,
    /// Wall time the slices took, so callers can take it out of their own.
    spent: Duration,
}

impl HostClock {
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_WORDS as u32).collect();
        // Warm the table into the caches; not a sample.
        kernel(&mut table);
        Self {
            table,
            slices: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Times one slice by the wall clock (for a thread that has a CPU to
    /// itself).
    fn slice(&mut self) {
        let start = Instant::now();
        kernel(&mut self.table);
        let took = start.elapsed();
        self.spent += took;
        self.slices.push(took.as_secs_f64());
    }

    /// Times one slice by the thread's CPU clock (for a thread that shares
    /// the CPUs with others: time spent waiting for a CPU does not count).
    pub fn cpu_slice(&mut self) {
        let start = Instant::now();
        let cpu = thread_cpu_s();
        kernel(&mut self.table);
        self.slices.push(thread_cpu_s() - cpu);
        self.spent += start.elapsed();
    }

    /// Wall time all slices so far took.
    fn spent(&self) -> Duration {
        self.spent
    }

    /// How much slower than nominal the host ran over the slices since the
    /// last call: their mean time ÷ [`NOMINAL_SLICE_S`]. Starts the next
    /// window.
    pub fn take(&mut self) -> f64 {
        assert!(!self.slices.is_empty(), "a host window without slices");
        let mean = self.slices.iter().sum::<f64>() / self.slices.len() as f64;
        self.slices.clear();
        mean / NOMINAL_SLICE_S
    }
}

/// Forwards every query to `inner` and takes a host slice every
/// [`SLICE_EVERY`] while a call into the program runs, so a long sort is
/// scaled by the host's state during it, not only at its ends.
pub struct Sampled<'a, O> {
    inner: &'a O,
    clock: &'a Mutex<HostClock>,
    calls: AtomicU32,
    due: Mutex<Instant>,
}

impl<'a, O> Sampled<'a, O> {
    fn new(inner: &'a O, clock: &'a Mutex<HostClock>) -> Self {
        Self {
            inner,
            clock,
            calls: AtomicU32::new(0),
            due: Mutex::new(Instant::now() + SLICE_EVERY),
        }
    }

    #[inline]
    fn tick(&self) {
        // One thread drives the sort (Sequential backend), so a plain load
        // and store suffice; a lost count would only delay a slice.
        let calls = self.calls.load(Ordering::Relaxed).wrapping_add(1);
        self.calls.store(calls, Ordering::Relaxed);
        if calls.is_multiple_of(CALLS_PER_CHECK) {
            self.check();
        }
    }

    #[cold]
    fn check(&self) {
        let now = Instant::now();
        let mut due = self.due.lock().expect("host sampler poisoned");
        if now >= *due {
            self.clock.lock().expect("host clock poisoned").slice();
            *due = Instant::now() + SLICE_EVERY;
        }
    }
}

impl<O: EquivalenceOracle> EquivalenceOracle for Sampled<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.tick();
        self.inner.same(a, b)
    }

    fn same_batch(&self, pairs: &[(usize, usize)]) -> Vec<bool> {
        self.tick();
        self.inner.same_batch(pairs)
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        self.tick();
        self.inner.round_opened(pairs);
    }

    fn round_closed(&self) {
        self.inner.round_closed();
    }
}

/// Runs `call` between two host slices and returns its result, its wall
/// time without the slices taken inside it, and the host's slowdown over
/// the window's slices (see [`HostClock::take`]).
pub fn timed<R>(clock: &Mutex<HostClock>, call: impl FnOnce() -> R) -> (R, Duration, f64) {
    let lock = || clock.lock().expect("host clock poisoned");
    let before = {
        let mut clock = lock();
        clock.slice();
        clock.spent()
    };
    let start = Instant::now();
    let result = call();
    let elapsed = start.elapsed();
    let mut clock = lock();
    let inside = clock.spent() - before;
    clock.slice();
    (result, elapsed.saturating_sub(inside), clock.take())
}

/// [`timed`] for a call into the program through an oracle: `call` gets the
/// oracle wrapped in [`Sampled`], so a long call also takes slices inside.
pub fn measured<O, R>(
    clock: &Mutex<HostClock>,
    oracle: &O,
    call: impl FnOnce(&Sampled<'_, O>) -> R,
) -> (R, Duration, f64) {
    let sampled = Sampled::new(oracle, clock);
    timed(clock, || call(&sampled))
}

/// The time-weighted mean slowdown of several measured calls, given as
/// (wall time, slowdown) pairs.
pub fn mean_slowdown(calls: impl Iterator<Item = (Duration, f64)>) -> f64 {
    let (weighted, total) = calls.fold((0.0, 0.0), |(w, t), (time, slowdown)| {
        let secs = time.as_secs_f64();
        (w + secs * slowdown, t + secs)
    });
    weighted / total
}
