//! The shard executor: the one place experiments fan out over rayon.
//!
//! Every experiment in this crate — figure sweeps, seed campaigns,
//! resilience and chaos campaigns — and the scenario runner's direct and
//! agreement engines are (topology × scheme × seed) cross products. A
//! runner enumerates its shards (a pure function of its configuration),
//! hands them to [`execute`], and reduces the outcomes, which come back in
//! shard order whatever the worker count.
//!
//! [`execute`] gives every worker one [`Scratch`]. The scratch holds a
//! [`ReplayEngine`] over the run's trace, built once per worker, and the
//! current shard's machine: its topology and a [`NetworkSim`]. The machine
//! is rebuilt only when a shard names a different topology; otherwise the
//! simulator is reclaimed with [`NetworkSim::reset`], which is pinned
//! byte-identical to a fresh build. Chunking is static — each worker takes
//! one contiguous run of shards — so a worker's shards mostly share a
//! topology and the scratch is rebuilt a handful of times per run.
//!
//! Three helpers cover what the runners share besides the fan-out:
//! [`scheme_draws`] (seeded vs deterministic shard enumeration),
//! [`PristineTables`] (compile-once tables for deterministic schemes on a
//! fixed machine) and [`group_points`] (the order-preserving point
//! reducer).

use crate::slowdown::run_reusing_sim;
use crate::sweep::AlgorithmSpec;
use rayon::prelude::*;
use xgft_core::{CompiledRouteTable, RouteSource};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_patterns::Pattern;
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::{ReplayEngine, ReplayResult, Trace};

/// Run `run` once per shard, in parallel, and return the outcomes in shard
/// order — so every aggregate is identical for any worker count. Each
/// worker threads one [`Scratch`] through all of its shards; `trace`, when
/// given, is what [`Machine::replay`] replays.
pub fn execute<'t, S: Sync, O: Send>(
    shards: &[S],
    network: &'t NetworkConfig,
    trace: Option<&'t Trace>,
    run: impl Fn(&mut Scratch<'t>, &S) -> O + Sync,
) -> Vec<O> {
    shards
        .par_iter()
        .map_init(
            || Scratch {
                network,
                engine: trace.map(ReplayEngine::new),
                machine: None,
            },
            run,
        )
        .collect()
}

/// The state one worker keeps between the shards it runs.
pub struct Scratch<'t> {
    network: &'t NetworkConfig,
    engine: Option<ReplayEngine<'t>>,
    machine: Option<(Xgft, NetworkSim)>,
}

impl<'t> Scratch<'t> {
    /// The machine for `spec`. Topology and simulator are rebuilt only when
    /// `spec` differs from the previous shard's; otherwise both are reused
    /// as that shard left them, so every run on the simulator must start
    /// with [`NetworkSim::reset`] ([`Machine::replay`] does).
    pub fn machine(&mut self, spec: &XgftSpec) -> Machine<'_, 't> {
        if !matches!(&self.machine, Some((xgft, _)) if xgft.spec() == spec) {
            let xgft = Xgft::new(spec.clone()).expect("a valid XgftSpec always builds");
            let sim = NetworkSim::new(&xgft, self.network.clone());
            self.machine = Some((xgft, sim));
        }
        let (xgft, sim) = self.machine.as_mut().expect("built above");
        Machine {
            xgft,
            sim,
            engine: self.engine.as_mut(),
        }
    }
}

/// One shard's view of its worker's [`Scratch`].
pub struct Machine<'s, 't> {
    /// The shard's topology.
    pub xgft: &'s Xgft,
    /// The worker's simulator for that topology.
    pub sim: &'s mut NetworkSim,
    engine: Option<&'s mut ReplayEngine<'t>>,
}

impl Machine<'_, '_> {
    /// Replay the executor's trace through `source` on the reset simulator.
    /// Panics if the executor was given no trace, or if the replay
    /// deadlocks (it cannot when every pair of the trace is routed).
    pub fn replay<R: RouteSource>(&mut self, source: R) -> ReplayResult {
        let engine = self
            .engine
            .as_deref_mut()
            .expect("replay needs an executor given a trace");
        run_reusing_sim(engine, self.sim, source).expect("a fully routed replay cannot deadlock")
    }
}

/// The `(algorithm, index, seed)` draws of a scheme list, in list order: a
/// seeded scheme draws `seeds_per_point` seeds from `seed_of(algorithm,
/// index)`, a deterministic one runs once with index 0 and seed 0.
pub fn scheme_draws(
    algorithms: &[AlgorithmSpec],
    seeds_per_point: usize,
    seed_of: impl Fn(AlgorithmSpec, usize) -> u64,
) -> Vec<(AlgorithmSpec, usize, u64)> {
    let mut draws = Vec::new();
    for &algorithm in algorithms {
        if algorithm.is_seeded() {
            draws.extend(
                (0..seeds_per_point).map(|index| (algorithm, index, seed_of(algorithm, index))),
            );
        } else {
            draws.push((algorithm, 0, 0));
        }
    }
    draws
}

/// Pristine compiled tables of one machine and one pair set. Deterministic
/// schemes compile once, up front, and every shard gets a clone; seeded
/// schemes route differently per seed, so they compile per shard.
pub struct PristineTables<'a> {
    xgft: &'a Xgft,
    pattern: &'a Pattern,
    pairs: Vec<(usize, usize)>,
    deterministic: Vec<(AlgorithmSpec, CompiledRouteTable)>,
}

impl<'a> PristineTables<'a> {
    /// Compile the deterministic schemes of `algorithms` over `pairs`.
    pub fn new(
        xgft: &'a Xgft,
        pattern: &'a Pattern,
        algorithms: &[AlgorithmSpec],
        pairs: Vec<(usize, usize)>,
    ) -> Self {
        let deterministic = algorithms
            .iter()
            .filter(|a| !a.is_seeded())
            .map(|&a| (a, a.compile(xgft, pattern, 0, pairs.iter().copied())))
            .collect();
        PristineTables {
            xgft,
            pattern,
            pairs,
            deterministic,
        }
    }

    /// The pristine table of `algorithm` under `seed`: a clone of the cached
    /// table for a deterministic scheme, a fresh compile for a seeded one.
    pub fn table(&self, algorithm: AlgorithmSpec, seed: u64) -> CompiledRouteTable {
        match self.deterministic.iter().find(|(a, _)| *a == algorithm) {
            Some((_, table)) => table.clone(),
            None => algorithm.compile(self.xgft, self.pattern, seed, self.pairs.iter().copied()),
        }
    }
}

/// Group per-shard outcomes (in shard order) by their shard's point `key`:
/// points in order of first appearance, outcomes in shard order within a
/// point.
pub fn group_points<S, K: PartialEq, O>(
    shards: &[S],
    outcomes: impl IntoIterator<Item = O>,
    key: impl Fn(&S) -> K,
) -> Vec<(K, Vec<O>)> {
    let mut points: Vec<(K, Vec<O>)> = Vec::new();
    for (shard, outcome) in shards.iter().zip(outcomes) {
        let k = key(shard);
        match points.iter_mut().rev().find(|(p, _)| *p == k) {
            Some((_, values)) => values.push(outcome),
            None => points.push((k, vec![outcome])),
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_draws_seed_only_seeded_schemes() {
        let draws = scheme_draws(&[AlgorithmSpec::DModK, AlgorithmSpec::Random], 3, |_, i| {
            10 + i as u64
        });
        assert_eq!(
            draws,
            vec![
                (AlgorithmSpec::DModK, 0, 0),
                (AlgorithmSpec::Random, 0, 10),
                (AlgorithmSpec::Random, 1, 11),
                (AlgorithmSpec::Random, 2, 12),
            ]
        );
        assert_eq!(scheme_draws(&[AlgorithmSpec::Random], 0, |_, _| 1), vec![]);
    }

    #[test]
    fn group_points_merges_by_key_in_first_appearance_order() {
        let shards = [1, 2, 1, 3, 2];
        let grouped = group_points(&shards, ["a", "b", "c", "d", "e"], |&s| s);
        assert_eq!(
            grouped,
            vec![(1, vec!["a", "c"]), (2, vec!["b", "e"]), (3, vec!["d"])]
        );
    }
}
