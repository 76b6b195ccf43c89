//! Pins the exact comparison *sequence*, not just its totals.
//!
//! `metrics_regression.rs` pins comparison and round counts; two schedules
//! with equal counts can still ask different pairs, or the same pairs in a
//! different order, and an order-adaptive oracle (the Section 3 adversaries)
//! would answer them differently. Here a recording oracle folds every
//! `round_opened` pair list and every scalar `same` call, in call order, into
//! a 64-bit FNV-1a digest. Each pinned row is
//! `(algorithm, distribution, digest, comparisons, rounds)` on a fixed-seed
//! n = 2000 instance built the way `ecs_service::protocol::run_job` builds
//! it.
//!
//! A bookkeeping change (hashing, buffer layout, moves instead of clones)
//! must leave every row unchanged. If a change to the algorithms' schedules
//! is intended, regenerate the table by printing `digest_run` for each row.

use parallel_ecs::prelude::*;
use std::sync::Mutex;

const N: usize = 2000;
const ALGORITHM_SEED: u64 = 7;

/// FNV-1a over the little-endian bytes of a stream of `u64` words.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// One pair as one word: `a` in the high half, `b` in the low half
    /// (element ids here are far below 2³²).
    fn pair(&mut self, a: usize, b: usize) {
        self.word(((a as u64) << 32) | b as u64);
    }
}

/// Marks that keep a round header apart from a scalar call in the stream.
const ROUND_OPENED: u64 = 0x5255;
const SCALAR_SAME: u64 = 0x5353;

/// Forwards to an [`InstanceOracle`] and digests every call in order.
///
/// A round's pairs are digested once, from `round_opened`; the scalar calls
/// that evaluate an open round are not digested again.
struct DigestOracle<'a> {
    inner: InstanceOracle<'a>,
    /// The running digest, and whether a round is open.
    state: Mutex<(Fnv64, bool)>,
}

impl EquivalenceOracle for DigestOracle<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn same(&self, a: usize, b: usize) -> bool {
        let (digest, in_round) = &mut *self.state.lock().unwrap();
        if !*in_round {
            digest.word(SCALAR_SAME);
            digest.pair(a, b);
        }
        self.inner.same(a, b)
    }

    fn round_opened(&self, pairs: &[(usize, usize)]) {
        let (digest, in_round) = &mut *self.state.lock().unwrap();
        *in_round = true;
        digest.word(ROUND_OPENED);
        digest.word(pairs.len() as u64);
        for &(a, b) in pairs {
            digest.pair(a, b);
        }
    }

    fn round_closed(&self) {
        self.state.lock().unwrap().1 = false;
    }
}

fn instance(dist: &str) -> Instance {
    let (distribution, seed) = match dist {
        "uniform:5" => (AnyDistribution::uniform(5), 11),
        "zeta:2.5" => (AnyDistribution::zeta(2.5), 12),
        "geometric:0.3" => (AnyDistribution::geometric(0.3), 13),
        other => panic!("no pinned instance for {other}"),
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Instance::from_distribution(&distribution, N, &mut rng)
}

/// Runs `algo` on the pinned instance for `dist` and returns
/// `(digest, comparisons, rounds)`.
fn digest_run(algo: &str, dist: &str) -> (u64, u64, u64) {
    let instance = instance(dist);
    let oracle = DigestOracle {
        inner: InstanceOracle::new(&instance),
        state: Mutex::new((Fnv64(Fnv64::OFFSET), false)),
    };
    let k = instance.ground_truth().num_classes().max(1);
    let backend = ExecutionBackend::Sequential;
    let run = match algo {
        "round-robin" => RoundRobin::new().sort_with_backend(&oracle, backend),
        "er-merge" => ErMergeSort::new().sort_with_backend(&oracle, backend),
        "cr-compound" => CrCompoundMerge::new(k).sort_with_backend(&oracle, backend),
        "er-constant" => {
            ErConstantRound::adaptive(ALGORITHM_SEED).sort_with_backend(&oracle, backend)
        }
        other => panic!("no pinned algorithm {other}"),
    };
    assert!(
        instance.verify(&run.partition),
        "{algo} on {dist}: wrong partition"
    );
    let digest = oracle.state.into_inner().unwrap().0 .0;
    (digest, run.metrics.comparisons(), run.metrics.rounds())
}

fn check(rows: &[(&str, &str, u64, u64, u64)]) {
    let mut mismatches = Vec::new();
    for &(algo, dist, digest, comparisons, rounds) in rows {
        let got = digest_run(algo, dist);
        if got != (digest, comparisons, rounds) {
            mismatches.push(format!(
                "(\"{algo}\", \"{dist}\", {:#018x}, {}, {}), // pinned {digest:#018x}, {comparisons}, {rounds}",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "comparison sequence changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn uniform_5_pair_order() {
    check(&[
        (
            "round-robin",
            "uniform:5",
            0xc42b_ec19_d1db_fe99,
            6_124,
            6_124,
        ),
        ("er-merge", "uniform:5", 0x55c4_db3a_a485_fa57, 10_105, 47),
        (
            "cr-compound",
            "uniform:5",
            0x243b_472c_28cd_74da,
            10_630,
            11,
        ),
        (
            "er-constant",
            "uniform:5",
            0x0dd3_68d0_3126_f572,
            47_932,
            54,
        ),
    ]);
}

#[test]
fn zeta_2_5_pair_order() {
    check(&[
        (
            "round-robin",
            "zeta:2.5",
            0x394d_4061_9481_a8d8,
            3_966,
            3_966,
        ),
        ("er-merge", "zeta:2.5", 0xb93d_ad75_6ee1_5367, 7_644, 96),
        ("cr-compound", "zeta:2.5", 0x5c39_7a8e_2164_dfac, 7_644, 11),
        (
            "er-constant",
            "zeta:2.5",
            0x727c_8872_0f45_d19e,
            15_251_527,
            15_480,
        ),
    ]);
}

#[test]
fn geometric_0_3_pair_order() {
    check(&[
        (
            "round-robin",
            "geometric:0.3",
            0x976e_cc81_74fe_65b1,
            3_333,
            3_333,
        ),
        (
            "er-merge",
            "geometric:0.3",
            0x4b51_d713_7d28_f88a,
            5_489,
            50,
        ),
        (
            "cr-compound",
            "geometric:0.3",
            0x9995_8edb_6ddb_e13d,
            5_668,
            10,
        ),
        (
            "er-constant",
            "geometric:0.3",
            0x9eab_5b11_66aa_2ecb,
            15_250_341,
            15_277,
        ),
    ]);
}
