//! `campaign_wrf1024`: a Fig. 2/5-style seed campaign through tracesim on
//! compiled route tables — XGFT(2;32,32;1,w2), w2 ∈ {32,16,8,1}, a 32×32
//! WRF mesh-exchange trace at 16 KiB, all five oblivious schemes, 4 seeds
//! per seeded point: 56 shards. One operation is one shard.

use crate::check::{check_digest, percentile, Checker, Digest};
use crate::tracer::{Tracer, NONE};
use crate::{LayerMetrics, Workload, DEFAULT_SEED};
use xgft_analysis::{AlgorithmSpec, CampaignConfig, CampaignResult, SweepShard};
use xgft_core::CompiledRouteTable;
use xgft_netsim::sim::Completion;
use xgft_netsim::{CrossbarSim, MessageId, NetworkConfig, NetworkSim, SimReport};
use xgft_obs::MetricsSnapshot;
use xgft_patterns::{generators, Pattern};
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::network::NetworkError;
use xgft_tracesim::{workloads, Network, ReplayEngine, ReplayResult, RoutedNetwork, Trace};

const K: usize = 32;
const W2_VALUES: [usize; 4] = [32, 16, 8, 1];
const SEEDS_PER_POINT: usize = 4;
const MESSAGE_BYTES: u64 = 16 * 1024;
/// Digest of the per-shard `completion_ps` and `crossbar_ps` at
/// [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0x51a7_e80b_0d18_71b0;

pub struct Campaign {
    seed: u64,
    pattern: Pattern,
    trace: Trace,
    config: CampaignConfig,
    shards: Vec<SweepShard>,
    crossbar_ps: u64,
    /// The untraced serial replica's pass, the reference every end-to-end
    /// run is checked against (the runner reports slowdowns only).
    reference: Option<Replica>,
}

/// What the serial replica observed for one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    completion_ps: u64,
    events: u64,
    delivered: u64,
    dropped: u64,
    event_queue_hwm: u64,
    routes: u64,
    hops: u64,
    route_state_bytes: u64,
}

#[derive(Debug, Clone)]
pub struct Replica {
    crossbar_ps: u64,
    crossbar_events: u64,
    shards: Vec<ShardRun>,
    network_calls: u64,
}

impl Replica {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u64(self.crossbar_ps);
        for s in &self.shards {
            d.u64(s.completion_ps);
        }
        d.value()
    }

    fn events(&self) -> u64 {
        self.crossbar_events + self.shards.iter().map(|s| s.events).sum::<u64>()
    }
}

impl Workload for Campaign {
    type Output = CampaignResult;
    type Replica = Replica;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let pattern = t.span("patterns.generate", NONE, |_| {
            generators::wrf_mesh_exchange(K, K, MESSAGE_BYTES)
        });
        let trace = t.span("tracesim.trace", NONE, |_| {
            workloads::trace_from_pattern(&pattern, 0)
        });
        let config = CampaignConfig {
            name: "repobench-campaign".to_string(),
            k: K,
            w2_values: W2_VALUES.to_vec(),
            algorithms: oblivious_schemes(),
            seeds_per_point: SEEDS_PER_POINT,
            base_seed: seed,
            network: NetworkConfig::default(),
        };
        Campaign {
            seed,
            pattern,
            trace,
            shards: config.shards(),
            config,
            crossbar_ps: 0,
            reference: None,
        }
    }

    fn ops_per_run(&self) -> u64 {
        self.shards.len() as u64
    }

    fn prepare_checks(&mut self, checker: &mut Checker) {
        // The crossbar reference straight through the engine, without the
        // replica's timing adapter.
        let net = CrossbarSim::new(self.trace.num_ranks(), self.config.network.clone());
        match ReplayEngine::new(&self.trace).run(net) {
            Ok(r) => self.crossbar_ps = r.completion_ps,
            Err(e) => checker.failed_ops(self.ops_per_run(), format!("crossbar reference: {e}")),
        }
        match self.replicate(&mut Tracer::new(false)) {
            Ok(replica) => {
                self.check_replica(&replica, checker);
                self.reference = Some(replica);
            }
            Err(e) => checker.failed_ops(self.ops_per_run(), format!("reference pass: {e}")),
        }
    }

    fn run(&self) -> Result<CampaignResult, String> {
        Ok(self.config.run_trace(&self.pattern, &self.trace))
    }

    fn check(&self, out: &CampaignResult, obs: &MetricsSnapshot, checker: &mut Checker) -> u64 {
        let Some(reference) = &self.reference else {
            checker.failed_ops(self.ops_per_run(), "no reference pass".into());
            return 0;
        };
        self.check_against(out, reference, checker);
        // The runner's xgft-obs counters must count the work the reference
        // pass counted.
        let routes: u64 = reference.shards.iter().map(|s| s.routes).sum();
        let hops: u64 = reference.shards.iter().map(|s| s.hops).sum();
        check_counter(checker, obs, "core.compile.routes", routes);
        check_counter(checker, obs, "core.compile.hops", hops);
        check_counter(checker, obs, "analysis.shards", self.shards.len() as u64);
        reference.events()
    }

    fn replicate(&self, t: &mut Tracer) -> Result<Replica, String> {
        let network = &self.config.network;
        let pairs = self.trace.communication_pairs();
        let (crossbar, crossbar_calls) = t.span("analysis.crossbar", NONE, |t| {
            let mut engine = t.span("tracesim.plan", NONE, |_| ReplayEngine::new(&self.trace));
            let net = CrossbarSim::new(self.trace.num_ranks(), network.clone());
            replay(t, &mut engine, net)
        })?;
        let mut replica = Replica {
            crossbar_ps: crossbar.completion_ps,
            crossbar_events: crossbar.network_report.events_processed,
            shards: Vec::with_capacity(self.shards.len()),
            network_calls: crossbar_calls,
        };
        // One group per (w2, scheme) point, as the runner groups them: one
        // topology, replay plan and simulator per group, reused by its seeds.
        let mut first = 0;
        while first < self.shards.len() {
            let head = self.shards[first];
            let len = self.shards[first..]
                .iter()
                .take_while(|s| s.w2 == head.w2 && s.algorithm == head.algorithm)
                .count();
            let group = first as u64;
            let xgft = t.span("topo.build", group, |_| topology(head.w2));
            let mut engine = t.span("tracesim.plan", group, |_| ReplayEngine::new(&self.trace));
            let mut sim = t.span("netsim.build", group, |_| {
                NetworkSim::new(&xgft, network.clone())
            });
            for (index, shard) in self.shards[first..first + len].iter().enumerate() {
                let id = (first + index) as u64;
                let run = t.span("analysis.shard", id, |t| {
                    let table = t.span("core.compile", id, |_| {
                        let algo = shard
                            .algorithm
                            .instantiate(&xgft, &self.pattern, shard.seed);
                        CompiledRouteTable::compile(
                            &xgft,
                            algo.as_ref(),
                            self.trace.communication_pairs(),
                        )
                    });
                    t.span("netsim.reset", id, |_| sim.reset());
                    let net = RoutedNetwork::with_source(&mut sim, &table);
                    let (result, calls) = replay(t, &mut engine, net)?;
                    let report = &result.network_report;
                    let hops: usize = pairs
                        .iter()
                        .filter_map(|&(s, d)| table.path(s, d))
                        .map(<[u32]>::len)
                        .sum();
                    Ok::<_, String>((
                        ShardRun {
                            completion_ps: result.completion_ps,
                            events: report.events_processed,
                            delivered: report.completed_messages as u64,
                            dropped: report.dropped_messages as u64,
                            event_queue_hwm: report.event_queue_hwm as u64,
                            routes: table.len() as u64,
                            hops: hops as u64,
                            route_state_bytes: table.storage_bytes() as u64,
                        },
                        calls,
                    ))
                })?;
                replica.shards.push(run.0);
                replica.network_calls += run.1;
            }
            first += len;
        }
        Ok(replica)
    }

    fn compare(
        &self,
        e2e: &CampaignResult,
        traced: &Replica,
        traced_obs: &MetricsSnapshot,
        untraced: &Replica,
        checker: &mut Checker,
    ) {
        self.check_replica(traced, checker);
        self.check_against(e2e, traced, checker);
        checker.require(
            traced.shards == untraced.shards && traced.crossbar_ps == untraced.crossbar_ps,
            || "traced replica's shard counters differ from the untraced pass".to_string(),
        );
        let routes: u64 = traced.shards.iter().map(|s| s.routes).sum();
        let hops: u64 = traced.shards.iter().map(|s| s.hops).sum();
        check_counter(checker, traced_obs, "core.compile.routes", routes);
        check_counter(checker, traced_obs, "core.compile.hops", hops);
        // One replay per shard plus the crossbar reference.
        check_counter(
            checker,
            traced_obs,
            "tracesim.replay.calls",
            traced.shards.len() as u64 + 1,
        );
    }

    fn layer_metrics(&self, d: &Replica, t: &Tracer, m: &mut LayerMetrics) {
        let events = d.events();
        let busy = t.layer_self_s().get("netsim").copied().unwrap_or(0.0);
        let sum = |f: fn(&ShardRun) -> u64| d.shards.iter().map(f).sum::<u64>() as f64;
        let max = |f: fn(&ShardRun) -> u64| d.shards.iter().map(f).max().unwrap_or(0) as f64;
        let shard_s = t.durations_s("analysis.shard");
        m.insert("tracesim.plan_s", t.total_s("tracesim.plan"));
        m.insert("tracesim.replay_self_s", t.self_s("tracesim.replay"));
        m.insert("tracesim.network_calls", d.network_calls as f64);
        m.insert("netsim.busy_s", busy);
        m.insert("netsim.events", events as f64);
        m.insert("netsim.ns_per_event", busy * 1e9 / events.max(1) as f64);
        m.insert("netsim.delivered", sum(|s| s.delivered));
        m.insert("netsim.dropped", sum(|s| s.dropped));
        m.insert("netsim.event_queue_hwm", max(|s| s.event_queue_hwm));
        m.insert("core.compile_s", t.total_s("core.compile"));
        m.insert("core.compile.routes", sum(|s| s.routes));
        m.insert("core.compile.hops", sum(|s| s.hops));
        m.insert("core.route_state_bytes", max(|s| s.route_state_bytes));
        m.insert("analysis.shard_s.p50", percentile(&shard_s, 50.0));
        m.insert("analysis.shard_s.p80", percentile(&shard_s, 80.0));
    }
}

impl Campaign {
    /// Invariants and (at the default seed) the pinned digest of one
    /// replica pass. The operations are counted where a runner result is
    /// checked against the pass ([`Campaign::check_against`]).
    fn check_replica(&self, d: &Replica, checker: &mut Checker) {
        checker.require(d.crossbar_ps == self.crossbar_ps, || {
            format!(
                "crossbar {} ps != reference {} ps",
                d.crossbar_ps, self.crossbar_ps
            )
        });
        for (shard, run) in self.shards.iter().zip(&d.shards) {
            let mut bad = Vec::new();
            if run.completion_ps < d.crossbar_ps {
                bad.push(format!(
                    "{}: completion {} ps < crossbar {} ps",
                    label(shard),
                    run.completion_ps,
                    d.crossbar_ps
                ));
            }
            if run.dropped != 0 {
                bad.push(format!(
                    "{}: {} messages dropped",
                    label(shard),
                    run.dropped
                ));
            }
            checker.require(bad.is_empty(), || bad.join("; "));
        }
        checker.require(d.shards.len() == self.shards.len(), || {
            format!(
                "{} shards replica, {} expected",
                d.shards.len(),
                self.shards.len()
            )
        });
        let pinned = (self.seed == DEFAULT_SEED).then_some(PINNED_DIGEST);
        check_digest(checker, "campaign_wrf1024", d.digest(), pinned);
    }

    /// An end-to-end result against a replica pass: same shards, and every
    /// slowdown bit-identical to completion / crossbar. One operation per
    /// shard.
    fn check_against(&self, out: &CampaignResult, d: &Replica, checker: &mut Checker) {
        checker.require(out.crossbar_ps == d.crossbar_ps, || {
            format!(
                "runner crossbar {} ps != replica {} ps",
                out.crossbar_ps, d.crossbar_ps
            )
        });
        checker.require(out.shards.len() == self.shards.len(), || {
            format!("runner returned {} shards", out.shards.len())
        });
        for ((got, shard), run) in out.shards.iter().zip(&self.shards).zip(&d.shards) {
            let mut bad = Vec::new();
            let expected = run.completion_ps as f64 / d.crossbar_ps as f64;
            if got.w2 != shard.w2
                || got.algorithm != shard.algorithm.name()
                || got.seed != shard.seed
            {
                bad.push(format!("{}: runner shard order differs", label(shard)));
            } else if got.slowdown.to_bits() != expected.to_bits() {
                bad.push(format!(
                    "{}: runner slowdown {} != replica {}",
                    label(shard),
                    got.slowdown,
                    expected
                ));
            }
            if got.slowdown < 1.0 {
                bad.push(format!("{}: slowdown {} < 1", label(shard), got.slowdown));
            }
            checker.op(bad);
        }
    }
}

fn label(shard: &SweepShard) -> String {
    format!(
        "w2={} {} seed={:#x}",
        shard.w2,
        shard.algorithm.name(),
        shard.seed
    )
}

pub(crate) fn oblivious_schemes() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::SModK,
        AlgorithmSpec::DModK,
        AlgorithmSpec::RandomNcaUp,
        AlgorithmSpec::RandomNcaDown,
        AlgorithmSpec::Random,
    ]
}

pub(crate) fn topology(w2: usize) -> Xgft {
    Xgft::new(XgftSpec::slimmed_two_level(K, w2).expect("valid slimmed spec"))
        .expect("valid topology")
}

pub(crate) fn check_counter(checker: &mut Checker, obs: &MetricsSnapshot, name: &str, want: u64) {
    let got = obs.counter(name).unwrap_or(0);
    checker.require(got == want, || {
        format!("xgft-obs counter {name} moved by {got}, the harness counted {want}")
    });
}

/// Replay through the timing adapter inside a `tracesim.replay` span;
/// returns the result and the number of `Network` calls the replay made.
fn replay<N: Network>(
    t: &mut Tracer,
    engine: &mut ReplayEngine<'_>,
    net: N,
) -> Result<(ReplayResult, u64), String> {
    t.span("tracesim.replay", NONE, |t| {
        let mut timed = TimedNetwork {
            inner: net,
            timing: t.enabled(),
            ns: 0,
            calls: 0,
        };
        let result = engine.run(&mut timed).map_err(|e| e.to_string());
        t.add_net_ns(timed.ns);
        result.map(|r| (r, timed.calls))
    })
}

/// A `Network` adapter that counts the replay's calls into the network
/// and, when timing, the host time spent inside them.
struct TimedNetwork<N> {
    inner: N,
    timing: bool,
    ns: u64,
    calls: u64,
}

impl<N> TimedNetwork<N> {
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce(&mut N) -> R) -> R {
        self.calls += 1;
        if !self.timing {
            return f(&mut self.inner);
        }
        let start = std::time::Instant::now();
        let out = f(&mut self.inner);
        self.ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

impl<N: Network> Network for TimedNetwork<N> {
    fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MessageId, NetworkError> {
        self.call(|n| n.schedule_message(at_ps, src, dst, bytes))
    }

    fn run_until_next_completion(&mut self) -> Option<Completion> {
        self.call(|n| n.run_until_next_completion())
    }

    fn now_ps(&self) -> u64 {
        self.inner.now_ps()
    }

    fn report(&self) -> SimReport {
        self.inner.report()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set-up inputs with a fabricated crossbar reference: these tests
    /// exercise the checks, not the simulator.
    fn workload(seed: u64) -> Campaign {
        let mut w = Campaign::setup(seed, &mut Tracer::new(false));
        w.crossbar_ps = 1_000_000;
        w
    }

    fn fabricated(w: &Campaign) -> Replica {
        let run = ShardRun {
            completion_ps: w.crossbar_ps + 1_000,
            events: 10,
            delivered: 4,
            dropped: 0,
            event_queue_hwm: 3,
            routes: 4,
            hops: 16,
            route_state_bytes: 64,
        };
        Replica {
            crossbar_ps: w.crossbar_ps,
            crossbar_events: 5,
            shards: vec![run; w.shards.len()],
            network_calls: 0,
        }
    }

    #[test]
    fn a_shard_faster_than_the_crossbar_is_caught() {
        let w = workload(7);
        assert_eq!(w.shards.len(), 56);
        let mut replica = fabricated(&w);
        let mut ok = Checker::default();
        w.check_replica(&replica, &mut ok);
        assert_eq!(ok.failed, 0, "{:?}", ok.violations);

        replica.shards[9].completion_ps = w.crossbar_ps - 1;
        let mut bad = Checker::default();
        w.check_replica(&replica, &mut bad);
        assert_eq!(bad.failed, 1);
        assert!(
            bad.violations[0].contains("< crossbar"),
            "{:?}",
            bad.violations
        );
    }

    #[test]
    fn the_default_seed_pins_the_completion_digest() {
        let w = workload(DEFAULT_SEED);
        let mut checker = Checker::default();
        w.check_replica(&fabricated(&w), &mut checker);
        assert_eq!(checker.failed, 1);
        assert!(
            checker.violations[0].contains("digest"),
            "{:?}",
            checker.violations
        );
    }
}
