//! Input construction shared by the workloads: instances seeded exactly as
//! `ecs_service::protocol::run_job` seeds them, and the algorithm dispatch
//! on the library default backend.

use ecs_core::{
    CrCompoundMerge, EcsAlgorithm, EcsRun, ErConstantRound, ErMergeSort, NaiveAllPairs,
    RepresentativeScan, RoundRobin,
};
use ecs_distributions::class_distribution::AnyDistribution;
use ecs_model::{EquivalenceOracle, ExecutionBackend, Instance};
use ecs_rng::{SeedableEcsRng, Xoshiro256StarStar};
use ecs_service::{AlgoSpec, DistSpec};

/// The instance `run_job` builds for `(dist, n, seed)`.
pub fn build_instance(dist: DistSpec, n: usize, seed: u64) -> Instance {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let n = n.max(1);
    match dist {
        DistSpec::Uniform(k) => {
            Instance::from_distribution(&AnyDistribution::uniform(k.max(1)), n, &mut rng)
        }
        DistSpec::Geometric(p) => {
            Instance::from_distribution(&AnyDistribution::geometric(p), n, &mut rng)
        }
        DistSpec::Poisson(lambda) => {
            Instance::from_distribution(&AnyDistribution::poisson(lambda), n, &mut rng)
        }
        DistSpec::Zeta(s) => Instance::from_distribution(&AnyDistribution::zeta(s), n, &mut rng),
        DistSpec::Balanced(k) => Instance::balanced(n, k.clamp(1, n), &mut rng),
    }
}

/// Sorts `oracle` with `algo` on [`ExecutionBackend::Sequential`],
/// configured as `run_job` configures it (`k` from the ground truth, the job
/// seed for `er-constant`).
pub fn sort<O: EquivalenceOracle>(algo: AlgoSpec, k: usize, seed: u64, oracle: &O) -> EcsRun {
    let backend = ExecutionBackend::Sequential;
    match algo {
        AlgoSpec::Naive => NaiveAllPairs::new().sort_with_backend(oracle, backend),
        AlgoSpec::RoundRobin => RoundRobin::new().sort_with_backend(oracle, backend),
        AlgoSpec::RepresentativeScan => {
            RepresentativeScan::new().sort_with_backend(oracle, backend)
        }
        AlgoSpec::ErMerge => ErMergeSort::new().sort_with_backend(oracle, backend),
        AlgoSpec::ErConstant => ErConstantRound::adaptive(seed).sort_with_backend(oracle, backend),
        AlgoSpec::CrCompound => CrCompoundMerge::new(k).sort_with_backend(oracle, backend),
    }
}

/// Derives the seed of item `index` from the workload seed (SplitMix64
/// finalizer, so neighbouring indices give unrelated seeds).
pub fn item_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z =
        workload_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
