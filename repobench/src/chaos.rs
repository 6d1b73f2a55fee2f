//! `chaos_wrf256`: the chaos lab through direct netsim injection —
//! XGFT(2;16,16;1,16), a WRF-256 burst at 16 KiB, 48 epochs of 40 µs with
//! link / switch-kill / cable-cut rates of 120/300/300‰ repaired after one
//! epoch, all five oblivious schemes with 4 seeds per seeded scheme: 14
//! shards × 48 epochs. One operation is one shard-epoch.

use crate::campaign::{check_counter, oblivious_schemes};
use crate::check::{check_digest, percentile, Checker, Digest};
use crate::tracer::{Tracer, NONE};
use crate::{LayerMetrics, Workload, DEFAULT_SEED};
use xgft_analysis::{ChaosConfig, ChaosIncident, ChaosResult, SlaEpoch};
use xgft_core::{CompiledRouteTable, PatchStats, UndoableTable};
use xgft_netsim::{FailurePolicy, InjectionBatch, NetworkConfig, NetworkSim};
use xgft_obs::MetricsSnapshot;
use xgft_patterns::{generators, Flow, Pattern};
use xgft_topo::{FaultSet, Xgft, XgftSpec};

const K: usize = 16;
const EPOCHS: usize = 48;
const EPOCH_PS: u64 = 40_000_000;
const SEEDS_PER_POINT: usize = 4;
const MESSAGE_BYTES: u64 = 16 * 1024;
/// Digest of every shard's per-epoch SLA rows at [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0xc0cb_b6de_43d0_15f1;

pub struct Chaos {
    seed: u64,
    pattern: Pattern,
    config: ChaosConfig,
    /// Offered messages per epoch.
    offered: usize,
    /// Routes in every pristine table: what each patch must account for.
    pairs: u64,
}

/// Counters of one replica pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    events: u64,
    delivered: u64,
    dropped: u64,
    event_queue_hwm: u64,
    routes: u64,
    hops: u64,
    route_state_bytes: u64,
    patches: Vec<(u64, u64, u64)>,
}

#[derive(Debug, Clone)]
pub struct Replica {
    /// Per shard, its per-epoch SLA rows.
    rows: Vec<Vec<SlaEpoch>>,
    counts: Counts,
}

impl Workload for Chaos {
    type Output = ChaosResult;
    type Replica = Replica;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let pattern = t.span("patterns.generate", NONE, |_| {
            generators::wrf_mesh_exchange(K, K, MESSAGE_BYTES)
        });
        let config = ChaosConfig {
            name: "repobench-chaos".to_string(),
            k: K,
            w2: K,
            algorithms: oblivious_schemes(),
            epochs: EPOCHS,
            epoch_ps: EPOCH_PS,
            link_fail_permille: 120,
            switch_kill_permille: 300,
            cable_cut_permille: 300,
            repair_epochs: 1,
            seeds_per_point: SEEDS_PER_POINT,
            base_seed: seed,
            network: NetworkConfig::default(),
        };
        Chaos {
            seed,
            pattern,
            config,
            offered: 0,
            pairs: 0,
        }
    }

    fn prepare_checks(&mut self, _checker: &mut Checker) {
        let flows: Vec<Flow> = self.pattern.combined().network_flows().collect();
        self.offered = flows.len();
        // Every pristine table the runner compiles routes the same pairs;
        // that count is what every patch must account for.
        let xgft = topology();
        let algorithm = self.config.algorithms.iter().find(|a| !a.is_seeded());
        let algo = algorithm
            .expect("a deterministic scheme")
            .instantiate(&xgft, &self.pattern, 0);
        let table =
            CompiledRouteTable::compile(&xgft, algo.as_ref(), flows.iter().map(|f| (f.src, f.dst)));
        self.pairs = table.len() as u64;
    }

    fn ops_per_run(&self) -> u64 {
        (self.config.shards().len() * EPOCHS) as u64
    }

    fn run(&self) -> Result<ChaosResult, String> {
        Ok(self.config.run(&self.pattern))
    }

    fn check(&self, out: &ChaosResult, obs: &MetricsSnapshot, checker: &mut Checker) -> u64 {
        let rows: Vec<Vec<SlaEpoch>> = out.shards.iter().map(|s| s.epochs.clone()).collect();
        let shards = self.config.shards();
        checker.require(out.shards.len() == shards.len(), || {
            format!(
                "runner returned {} shards, {} expected",
                out.shards.len(),
                shards.len()
            )
        });
        for (got, want) in out.shards.iter().zip(&shards) {
            checker.require(
                got.algorithm == want.algorithm.name()
                    && got.index == want.index
                    && got.algo_seed == want.algo_seed,
                || format!("runner shard {} #{} out of order", got.algorithm, got.index),
            );
        }
        self.check_rows(&rows, None, checker);
        // Every repatch accounts for every compiled pair:
        // untouched + rerouted + unroutable = pairs, summed over patches.
        let patched = [
            "core.patch.untouched",
            "core.patch.rerouted",
            "core.patch.unroutable",
        ]
        .iter()
        .map(|n| obs.counter(n).unwrap_or(0))
        .sum::<u64>();
        let repatches = obs.counter("analysis.chaos.repatches").unwrap_or(0);
        checker.require(patched == repatches * self.pairs, || {
            format!(
                "patches accounted {patched} pairs over {repatches} repatches of {} pairs",
                self.pairs
            )
        });
        let sum = |f: fn(&SlaEpoch) -> usize| rows.iter().flatten().map(|e| f(e) as u64).sum();
        check_counter(checker, obs, "netsim.delivered", sum(|e| e.delivered));
        check_counter(checker, obs, "netsim.dropped", sum(|e| e.dropped));
        obs.counter("netsim.events").unwrap_or(0)
    }

    fn replicate(&self, t: &mut Tracer) -> Result<Replica, String> {
        let config = &self.config;
        let xgft = t.span("topo.build", NONE, |_| topology());
        let flows: Vec<Flow> = t.span("patterns.flows", NONE, |_| {
            self.pattern.combined().network_flows().collect()
        });
        let timeline = t.span("analysis.timeline", NONE, |_| config.timeline(&xgft));
        let mut counts = Counts::default();
        let compile =
            |t: &mut Tracer, algorithm: xgft_analysis::AlgorithmSpec, seed, counts: &mut Counts| {
                let table = t.span("core.compile", NONE, |_| {
                    let algo = algorithm.instantiate(&xgft, &self.pattern, seed);
                    CompiledRouteTable::compile(
                        &xgft,
                        algo.as_ref(),
                        flows.iter().map(|f| (f.src, f.dst)),
                    )
                });
                counts.routes += table.len() as u64;
                counts.hops += table.iter_paths().map(|(_, p)| p.len() as u64).sum::<u64>();
                counts.route_state_bytes =
                    counts.route_state_bytes.max(table.storage_bytes() as u64);
                table
            };
        let pristine: Vec<Option<CompiledRouteTable>> = config
            .algorithms
            .iter()
            .map(|&a| (!a.is_seeded()).then(|| compile(t, a, 0, &mut counts)))
            .collect();
        let mut rows = Vec::new();
        for (index, shard) in config.shards().iter().enumerate() {
            let cached = config
                .algorithms
                .iter()
                .position(|&a| a == shard.algorithm)
                .and_then(|i| pristine[i].as_ref());
            let id = index as u64;
            let shard_rows = t.span("analysis.shard", id, |t| {
                let base = match cached {
                    Some(table) => t.span("core.clone", id, |_| table.clone()),
                    None => compile(t, shard.algorithm, shard.algo_seed, &mut counts),
                };
                let mut working = t.span("core.clone", id, |_| UndoableTable::new(base));
                let mut sim = t.span("netsim.build", id, |_| {
                    NetworkSim::new(&xgft, config.network.clone())
                });
                let mut epochs = ShardEpochs {
                    xgft: &xgft,
                    flows: &flows,
                    timeline: &timeline,
                    working: &mut working,
                    sim: &mut sim,
                    batch: InjectionBatch::new(),
                    active: Vec::new(),
                    last_patch: PatchStats::default(),
                    counts: &mut counts,
                };
                (0..EPOCHS)
                    .map(|epoch| {
                        let id = id * EPOCHS as u64 + epoch as u64;
                        t.span("analysis.epoch", id, |t| epochs.epoch(t, epoch, config))
                    })
                    .collect::<Vec<SlaEpoch>>()
            });
            rows.push(shard_rows);
        }
        Ok(Replica { rows, counts })
    }

    fn compare(
        &self,
        e2e: &ChaosResult,
        traced: &Replica,
        traced_obs: &MetricsSnapshot,
        untraced: &Replica,
        checker: &mut Checker,
    ) {
        let runner_rows: Vec<Vec<SlaEpoch>> = e2e.shards.iter().map(|s| s.epochs.clone()).collect();
        checker.require(traced.rows.len() == runner_rows.len(), || {
            format!(
                "replica ran {} shards, the runner {}",
                traced.rows.len(),
                runner_rows.len()
            )
        });
        self.check_rows(&traced.rows, Some(&runner_rows), checker);
        checker.require(
            traced.rows == untraced.rows && traced.counts == untraced.counts,
            || "traced replica's counters differ from the untraced pass".to_string(),
        );
        let c = &traced.counts;
        for &(untouched, rerouted, unroutable) in &c.patches {
            checker.require(untouched + rerouted + unroutable == self.pairs, || {
                format!(
                    "patch accounted {untouched}+{rerouted}+{unroutable} pairs of {}",
                    self.pairs
                )
            });
        }
        let patch_sum = |f: fn(&(u64, u64, u64)) -> u64| c.patches.iter().map(f).sum::<u64>();
        check_counter(checker, traced_obs, "netsim.events", c.events);
        check_counter(checker, traced_obs, "netsim.delivered", c.delivered);
        check_counter(checker, traced_obs, "netsim.dropped", c.dropped);
        check_counter(checker, traced_obs, "core.compile.routes", c.routes);
        check_counter(checker, traced_obs, "core.compile.hops", c.hops);
        check_counter(
            checker,
            traced_obs,
            "core.patch.untouched",
            patch_sum(|p| p.0),
        );
        check_counter(
            checker,
            traced_obs,
            "core.patch.rerouted",
            patch_sum(|p| p.1),
        );
        check_counter(
            checker,
            traced_obs,
            "core.patch.unroutable",
            patch_sum(|p| p.2),
        );
    }

    fn layer_metrics(&self, d: &Replica, t: &Tracer, m: &mut LayerMetrics) {
        let c = &d.counts;
        let busy = t.layer_self_s().get("netsim").copied().unwrap_or(0.0);
        let patch_sum =
            |f: fn(&(u64, u64, u64)) -> u64| c.patches.iter().map(f).sum::<u64>() as f64;
        let epoch_s = t.durations_s("analysis.epoch");
        m.insert("netsim.busy_s", busy);
        m.insert("netsim.events", c.events as f64);
        m.insert("netsim.ns_per_event", busy * 1e9 / c.events.max(1) as f64);
        m.insert("netsim.lower_s", t.total_s("netsim.lower"));
        m.insert("netsim.schedule_s", t.total_s("netsim.schedule"));
        m.insert("netsim.delivered", c.delivered as f64);
        m.insert("netsim.dropped", c.dropped as f64);
        m.insert("netsim.event_queue_hwm", c.event_queue_hwm as f64);
        m.insert("core.compile_s", t.total_s("core.compile"));
        m.insert("core.compile.routes", c.routes as f64);
        m.insert("core.compile.hops", c.hops as f64);
        m.insert("core.route_state_bytes", c.route_state_bytes as f64);
        m.insert("core.patch_s", t.total_s("core.patch"));
        m.insert("core.patch.calls", c.patches.len() as f64);
        m.insert("core.patch.untouched", patch_sum(|p| p.0));
        m.insert("core.patch.rerouted", patch_sum(|p| p.1));
        m.insert("core.patch.unroutable", patch_sum(|p| p.2));
        m.insert(
            "analysis.shard_s.p50",
            percentile(&t.durations_s("analysis.shard"), 50.0),
        );
        m.insert(
            "analysis.shard_s.p80",
            percentile(&t.durations_s("analysis.shard"), 80.0),
        );
        m.insert("analysis.epoch_s.p50", percentile(&epoch_s, 50.0));
        m.insert("analysis.epoch_s.p90", percentile(&epoch_s, 90.0));
    }
}

impl Chaos {
    /// Per-row invariants, equality with `reference` rows when given, and
    /// (at the default seed) the pinned digest. One operation per
    /// shard-epoch.
    fn check_rows(
        &self,
        rows: &[Vec<SlaEpoch>],
        reference: Option<&[Vec<SlaEpoch>]>,
        checker: &mut Checker,
    ) {
        let mut digest = Digest::default();
        for (shard, epochs) in rows.iter().enumerate() {
            checker.require(epochs.len() == EPOCHS, || {
                format!("shard {shard}: {} epochs, {EPOCHS} expected", epochs.len())
            });
            for e in epochs {
                let mut bad = Vec::new();
                if e.offered != e.delivered + e.dropped + e.unroutable {
                    bad.push(format!(
                        "shard {shard} epoch {}: offered {} != delivered {} + dropped {} + unroutable {}",
                        e.epoch, e.offered, e.delivered, e.dropped, e.unroutable
                    ));
                }
                if e.offered != self.offered {
                    bad.push(format!(
                        "shard {shard} epoch {}: offered {} != {}",
                        e.epoch, e.offered, self.offered
                    ));
                }
                if let Some(reference) = reference {
                    let want = reference.get(shard).and_then(|r| r.get(e.epoch));
                    if want != Some(e) {
                        bad.push(format!(
                            "shard {shard} epoch {}: replica row {e:?} != runner row {want:?}",
                            e.epoch
                        ));
                    }
                }
                checker.op(bad);
                for v in [
                    e.epoch,
                    e.active_failed_channels,
                    e.mid_epoch_failed_channels,
                    e.rerouted,
                    e.unroutable_pairs,
                    e.offered,
                    e.delivered,
                    e.dropped,
                    e.unroutable,
                ] {
                    digest.u64(v as u64);
                }
                for v in [
                    e.p50_latency_ps,
                    e.p99_latency_ps,
                    e.dropped_ppm,
                    e.unroutable_ppm,
                    e.time_to_reroute_ps,
                ] {
                    digest.u64(v);
                }
            }
        }
        let pinned = (self.seed == DEFAULT_SEED).then_some(PINNED_DIGEST);
        check_digest(checker, "chaos_wrf256", digest.value(), pinned);
    }
}

/// One shard's recycled state while it walks the timeline — the same
/// steps, in the same order, as the chaos runner's shard loop.
struct ShardEpochs<'a> {
    xgft: &'a Xgft,
    flows: &'a [Flow],
    timeline: &'a [ChaosIncident],
    working: &'a mut UndoableTable,
    sim: &'a mut NetworkSim,
    batch: InjectionBatch,
    active: Vec<usize>,
    last_patch: PatchStats,
    counts: &'a mut Counts,
}

impl ShardEpochs<'_> {
    fn epoch(&mut self, t: &mut Tracer, epoch: usize, config: &ChaosConfig) -> SlaEpoch {
        let (xgft, timeline) = (self.xgft, self.timeline);
        let known: Vec<usize> = timeline
            .iter()
            .enumerate()
            .filter(|(_, i)| i.epoch < epoch && epoch < i.repair_epoch)
            .map(|(idx, _)| idx)
            .collect();
        let cumulative = t.span("topo.faults", NONE, |_| {
            let mut cumulative = FaultSet::none(xgft);
            for &idx in &known {
                cumulative.merge(&timeline[idx].faults);
            }
            cumulative
        });
        if known != self.active {
            let stats = t.span("core.patch", NONE, |_| {
                self.working.patch(xgft, &cumulative)
            });
            self.counts.patches.push((
                stats.untouched as u64,
                stats.rerouted as u64,
                stats.unroutable as u64,
            ));
            self.last_patch = stats;
            self.active = known;
        }
        t.span("netsim.reset", NONE, |_| self.sim.reset());
        let (mid_epoch_failed, earliest_strike) = t.span("netsim.fail", NONE, |_| {
            let mut failed = 0usize;
            let mut earliest = None::<u64>;
            for incident in timeline.iter().filter(|i| i.epoch == epoch) {
                for dense in incident.faults.iter_failed() {
                    if !cumulative.is_failed(dense) && !self.sim.channel_is_failed(dense) {
                        self.sim
                            .fail_channel(incident.strike_ps, dense, FailurePolicy::Drop);
                        failed += 1;
                    }
                }
                earliest =
                    Some(earliest.map_or(incident.strike_ps, |e: u64| e.min(incident.strike_ps)));
            }
            (failed, earliest)
        });
        let time_to_reroute_ps = earliest_strike.map_or(0, |s| config.epoch_ps - s);
        let unroutable = t.span("netsim.lower", NONE, |_| {
            let mut unroutable = 0usize;
            self.batch.clear();
            for flow in self.flows {
                match self.working.path(flow.src, flow.dst) {
                    Some(path) => self.batch.push(0, flow.src, flow.dst, flow.bytes, path),
                    None => unroutable += 1,
                }
            }
            unroutable
        });
        t.span("netsim.schedule", NONE, |_| {
            self.sim.schedule_batch(&self.batch)
        });
        let report = t.span("netsim.run", NONE, |_| self.sim.run_to_completion());
        let c = &mut *self.counts;
        c.events += report.events_processed;
        c.delivered += report.completed_messages as u64;
        c.dropped += report.dropped_messages as u64;
        c.event_queue_hwm = c.event_queue_hwm.max(report.event_queue_hwm as u64);
        let offered = self.flows.len();
        let ppm = |part: usize| {
            if offered == 0 {
                0
            } else {
                (part as u64).saturating_mul(1_000_000) / offered as u64
            }
        };
        SlaEpoch {
            epoch,
            active_failed_channels: cumulative.num_failed_channels(),
            mid_epoch_failed_channels: mid_epoch_failed,
            rerouted: self.last_patch.rerouted,
            unroutable_pairs: self.last_patch.unroutable,
            offered,
            delivered: report.completed_messages,
            dropped: report.dropped_messages,
            unroutable,
            p50_latency_ps: report.p50_latency_ps(),
            p99_latency_ps: report.p99_latency_ps(),
            dropped_ppm: ppm(report.dropped_messages),
            unroutable_ppm: ppm(unroutable),
            time_to_reroute_ps,
        }
    }
}

fn topology() -> Xgft {
    Xgft::new(XgftSpec::slimmed_two_level(K, K).expect("valid slimmed spec"))
        .expect("valid topology")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seed: u64) -> Chaos {
        let mut w = Chaos::setup(seed, &mut Tracer::new(false));
        w.prepare_checks(&mut Checker::default());
        w
    }

    /// Rows that satisfy every invariant: 3 messages lost per epoch.
    fn clean_rows(w: &Chaos) -> Vec<Vec<SlaEpoch>> {
        let row = |epoch| SlaEpoch {
            epoch,
            active_failed_channels: 0,
            mid_epoch_failed_channels: 0,
            rerouted: 0,
            unroutable_pairs: 0,
            offered: w.offered,
            delivered: w.offered - 3,
            dropped: 2,
            unroutable: 1,
            p50_latency_ps: 10,
            p99_latency_ps: 20,
            dropped_ppm: 0,
            unroutable_ppm: 0,
            time_to_reroute_ps: 0,
        };
        let shards = w.config.shards().len();
        (0..shards)
            .map(|_| (0..EPOCHS).map(row).collect())
            .collect()
    }

    #[test]
    fn fabricated_conservation_violation_is_caught() {
        let w = workload(7);
        let mut rows = clean_rows(&w);
        let mut ok = Checker::default();
        w.check_rows(&rows, None, &mut ok);
        assert_eq!(
            (ok.attempted, ok.failed),
            (14 * 48, 0),
            "{:?}",
            ok.violations
        );

        rows[3][17].delivered += 1;
        let mut bad = Checker::default();
        w.check_rows(&rows, None, &mut bad);
        assert_eq!(bad.failed, 1);
        assert!(
            bad.violations[0].contains("offered"),
            "{:?}",
            bad.violations
        );
    }

    #[test]
    fn a_replica_row_that_differs_from_the_runner_is_caught() {
        let w = workload(7);
        let runner = clean_rows(&w);
        let mut replica = runner.clone();
        replica[0][5].p99_latency_ps += 1;
        let mut bad = Checker::default();
        w.check_rows(&replica, Some(&runner), &mut bad);
        assert_eq!(bad.failed, 1);
        assert!(
            bad.violations[0].contains("epoch 5"),
            "{:?}",
            bad.violations
        );
    }

    #[test]
    fn the_default_seed_pins_the_row_digest() {
        // Fabricated rows are not the simulated ones: only the digest fails.
        let w = workload(DEFAULT_SEED);
        let mut checker = Checker::default();
        w.check_rows(&clean_rows(&w), None, &mut checker);
        assert_eq!(checker.failed, 1);
        assert!(
            checker.violations[0].contains("digest"),
            "{:?}",
            checker.violations
        );
    }
}
