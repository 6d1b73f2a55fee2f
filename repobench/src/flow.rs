//! `flow_scale`: the analytical flow engine with no event simulation.
//!
//! (a) `FlowSweepConfig::slimming_family(k = 32, w2 ∈ {32,16,8,1}, the five
//! oblivious schemes, Uniform)`: 20 points, of which the 8 mod-k points take
//! the O(n²) pair enumeration. (b) `run_scenario` on a 1,048,576-leaf
//! shift-by-1024 `Flow` spec with the compact representation (4 points;
//! the seed is the instance seed of its seeded schemes). One operation is
//! one (topology, scheme) point.

use crate::check::{check_digest, close, Checker, Digest};
use crate::tracer::{Tracer, NONE};
use crate::{LayerMetrics, Workload, DEFAULT_SEED};
use xgft_core::CompactRoutes;
use xgft_flow::{
    tree_cut_lower_bound, DegradedLoads, ExpectedLoads, FlowPoint, FlowScheme, FlowSweepConfig,
    FlowSweepResult, TrafficMatrix, TrafficSpec,
};
use xgft_obs::MetricsSnapshot;
use xgft_scenario::runner::CompactFlowResult;
use xgft_scenario::{
    run_scenario, EngineSpec, RepresentationSpec, ResultPayload, RunOptions, ScenarioSpec,
    SchemeSpec, SeedSpec, TopologySpec, WorkloadSpec,
};
use xgft_topo::Xgft;

const SWEEP_K: usize = 32;
const SWEEP_W2: [usize; 4] = [32, 16, 8, 1];
const MILLION_K: usize = 1024;
const MILLION_W2: usize = 4;
const SHIFT: f64 = 1024.0;
const MESSAGE_BYTES: u64 = 16 * 1024;
/// Digest of every point's MCL, ratio and route-state bytes at
/// [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0x048d_5471_3f36_2914;

pub struct FlowScale {
    seed: u64,
    sweep: FlowSweepConfig,
    spec: ScenarioSpec,
    /// Demand pairs each sweep point accounts (n(n−1), uniform traffic).
    sweep_pairs: Vec<u64>,
    /// Demand pairs of the million-leaf instance.
    instance_flows: u64,
    /// Offered demand of the million-leaf instance.
    instance_demand: f64,
    compact_points: usize,
}

/// The canonical simulated outputs of one point, compared bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointKey {
    label: String,
    words: Vec<u64>,
}

#[derive(Debug, Clone)]
pub struct Replica {
    points: Vec<PointKey>,
    pair_enum_points: u64,
    compact_bytes_max: u64,
    instance_flows: u64,
    compact_engines: u64,
}

fn sweep_key(p: &FlowPoint) -> PointKey {
    PointKey {
        label: format!("{} {}", p.topology, p.scheme),
        words: [p.mcl, p.network_mcl, p.lower_bound, p.ratio]
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    }
}

fn compact_keys(r: &CompactFlowResult) -> Vec<PointKey> {
    r.points
        .iter()
        .map(|p| PointKey {
            label: format!("{} {} seed={}", p.topology, p.scheme, p.seed),
            words: [
                p.mcl,
                p.network_mcl,
                p.lower_bound,
                p.ratio,
                p.routed_demand,
                p.unroutable_demand,
            ]
            .iter()
            .map(|v| v.to_bits())
            .chain([p.route_state_bytes as u64])
            .collect(),
        })
        .collect()
}

fn keys(out: &(FlowSweepResult, CompactFlowResult)) -> Vec<PointKey> {
    let mut keys: Vec<PointKey> = out.0.points.iter().map(sweep_key).collect();
    keys.extend(compact_keys(&out.1));
    keys
}

impl Workload for FlowScale {
    type Output = (FlowSweepResult, CompactFlowResult);
    type Replica = Replica;

    fn setup(seed: u64, _t: &mut Tracer) -> Self {
        let sweep = FlowSweepConfig::slimming_family(
            SWEEP_K,
            &SWEEP_W2,
            FlowScheme::oblivious_set(),
            TrafficSpec::Uniform,
        );
        let spec = million_spec(seed);
        FlowScale {
            seed,
            sweep,
            compact_points: jobs(&spec).len(),
            spec,
            sweep_pairs: Vec::new(),
            instance_flows: 0,
            instance_demand: 0.0,
        }
    }

    fn prepare_checks(&mut self, checker: &mut Checker) {
        self.sweep_pairs = self
            .sweep
            .specs
            .iter()
            .map(|spec| {
                let n = Xgft::new(spec.clone())
                    .expect("valid sweep topology")
                    .num_leaves() as u64;
                n * (n - 1)
            })
            .collect();
        let pattern = match self.spec.validated_pattern() {
            Ok(pattern) => pattern,
            Err(e) => {
                checker.failed_ops(self.ops_per_run(), format!("million-leaf spec: {e}"));
                return;
            }
        };
        let topologies = self.spec.topologies().expect("a validated spec");
        let xgft = Xgft::new(topologies[0].clone()).expect("valid million-leaf topology");
        let traffic = TrafficMatrix::from_pattern(&pattern, xgft.num_leaves());
        self.instance_flows = traffic.flows().map_or(0, |f| f.len() as u64);
        self.instance_demand = traffic.total_weight();
    }

    fn ops_per_run(&self) -> u64 {
        (self.sweep.specs.len() * self.sweep.schemes.len() + self.compact_points) as u64
    }

    fn run(&self) -> Result<Self::Output, String> {
        let sweep = self.sweep.run();
        let options = RunOptions {
            quick: false,
            telemetry: false,
        };
        let result = run_scenario(&self.spec, &options).map_err(|e| e.to_string())?;
        match result.payload {
            ResultPayload::CompactFlow(compact) => Ok((sweep, compact)),
            _ => Err("the compact Flow spec returned another payload".to_string()),
        }
    }

    fn check(&self, out: &Self::Output, _obs: &MetricsSnapshot, checker: &mut Checker) -> u64 {
        let (sweep, compact) = out;
        for p in &sweep.points {
            let mut bad = Vec::new();
            if p.mcl < p.lower_bound * (1.0 - 1e-12) {
                bad.push(format!(
                    "{} {}: MCL {} < tree-cut bound {}",
                    p.topology, p.scheme, p.mcl, p.lower_bound
                ));
            }
            checker.op(bad);
        }
        for p in &compact.points {
            let mut bad = Vec::new();
            if p.mcl < p.lower_bound * (1.0 - 1e-12) {
                bad.push(format!(
                    "{} {}: MCL {} < tree-cut bound {}",
                    p.topology, p.scheme, p.mcl, p.lower_bound
                ));
            }
            if !close(
                p.routed_demand + p.unroutable_demand,
                self.instance_demand,
                1e-9,
            ) {
                bad.push(format!(
                    "{} {}: routed {} + unroutable {} != offered {}",
                    p.topology,
                    p.scheme,
                    p.routed_demand,
                    p.unroutable_demand,
                    self.instance_demand
                ));
            }
            checker.op(bad);
        }
        let expected = self.ops_per_run() as usize;
        checker.require(
            sweep.points.len() + compact.points.len() == expected,
            || {
                format!(
                    "{} points returned, {expected} expected",
                    sweep.points.len() + compact.points.len()
                )
            },
        );
        self.check_digest(&keys(out), checker);
        let per_scheme = self.sweep.schemes.len() as u64;
        self.sweep_pairs.iter().map(|p| p * per_scheme).sum::<u64>()
            + self.instance_flows * compact.points.len() as u64
    }

    fn replicate(&self, t: &mut Tracer) -> Result<Replica, String> {
        let mut replica = Replica {
            points: Vec::new(),
            pair_enum_points: 0,
            compact_bytes_max: 0,
            instance_flows: 0,
            compact_engines: 0,
        };
        // (a) The sweep: per spec a topology, traffic matrix and cut bound,
        // shared by that spec's scheme points — the runner's structure.
        let traffic = &self.sweep.traffic;
        let mut id = 0u64;
        for spec in &self.sweep.specs {
            let xgft = t.span("topo.build", id, |_| {
                Xgft::new(spec.clone()).map_err(|e| e.to_string())
            })?;
            let matrix = t.span("flow.traffic", id, |_| traffic.matrix(xgft.num_leaves()));
            let bound = t.span("flow.bound", id, |_| {
                tree_cut_lower_bound(&xgft, &matrix).bound
            });
            for scheme in &self.sweep.schemes {
                let (algo, closed_form) = t.span("core.instantiate", id, |_| {
                    let algo = scheme.instantiate(&xgft, traffic);
                    let closed_form = algo.pair_invariant_levels(&xgft).is_some();
                    (algo, closed_form)
                });
                if matrix.uniform_weight().is_some() && !closed_form {
                    replica.pair_enum_points += 1;
                }
                let (mcl, network_mcl) = t.span("flow.loads", id, |_| {
                    let loads = ExpectedLoads::compute(&xgft, algo.as_ref(), &matrix);
                    (loads.mcl(), loads.network_mcl(&xgft))
                });
                replica.points.push(sweep_key(&FlowPoint {
                    topology: spec.to_string(),
                    num_leaves: spec.num_leaves(),
                    w_top: spec.w(spec.height()),
                    scheme: scheme.name().to_string(),
                    mcl,
                    network_mcl,
                    lower_bound: bound,
                    ratio: if bound > 0.0 { mcl / bound } else { 1.0 },
                }));
                id += 1;
            }
        }
        // (b) The million-leaf compact run, as `run_scenario` lowers it.
        let pattern = t.span("scenario.validate", NONE, |_| {
            self.spec.validated_pattern().map_err(|e| e.to_string())
        })?;
        let mut compact = CompactFlowResult {
            name: self.spec.name.clone(),
            workload: pattern.name().to_string(),
            points: Vec::new(),
        };
        for topo_spec in self.spec.topologies().map_err(|e| e.to_string())? {
            let xgft = t.span("topo.build", NONE, |_| {
                Xgft::new(topo_spec.clone()).map_err(|e| e.to_string())
            })?;
            let traffic = t.span("flow.traffic", NONE, |_| {
                TrafficMatrix::from_pattern(&pattern, xgft.num_leaves())
            });
            let bound = t.span("flow.bound", NONE, |_| {
                tree_cut_lower_bound(&xgft, &traffic).bound
            });
            for (scheme, seed) in jobs(&self.spec) {
                let routes = t.span("core.compact", id, |_| {
                    let closed_form = scheme
                        .0
                        .compact_scheme(&xgft, seed)
                        .ok_or("colored has no compact form")?;
                    Ok::<_, String>(CompactRoutes::all_pairs(&xgft, closed_form))
                })?;
                let loads = t.span("flow.loads.instance", id, |_| {
                    DegradedLoads::from_source(&xgft, &routes, &traffic)
                });
                let mcl = loads.mcl();
                replica.compact_engines += 1;
                replica.instance_flows += traffic.flows().map_or(0, |f| f.len() as u64);
                replica.compact_bytes_max =
                    replica.compact_bytes_max.max(routes.storage_bytes() as u64);
                compact
                    .points
                    .push(xgft_scenario::runner::CompactFlowPoint {
                        topology: topo_spec.to_string(),
                        num_leaves: xgft.num_leaves(),
                        w_top: topo_spec.w(topo_spec.height()),
                        scheme: scheme.name().to_string(),
                        seed,
                        mcl,
                        network_mcl: loads.network_mcl(&xgft),
                        lower_bound: bound,
                        ratio: if bound > 0.0 {
                            mcl / bound
                        } else {
                            f64::INFINITY
                        },
                        routed_demand: loads.routed_demand(),
                        unroutable_demand: loads.unroutable_demand(),
                        route_state_bytes: routes.storage_bytes(),
                    });
                id += 1;
            }
        }
        replica.points.extend(compact_keys(&compact));
        Ok(replica)
    }

    fn compare(
        &self,
        e2e: &Self::Output,
        traced: &Replica,
        traced_obs: &MetricsSnapshot,
        untraced: &Replica,
        checker: &mut Checker,
    ) {
        let expected = keys(e2e);
        checker.require(traced.points.len() == expected.len(), || {
            format!(
                "replica produced {} points, the runner {}",
                traced.points.len(),
                expected.len()
            )
        });
        for (got, want) in traced.points.iter().zip(&expected) {
            let bad = if got == want {
                vec![]
            } else {
                vec![format!(
                    "{}: replica outputs {:?} != runner {:?}",
                    got.label, got.words, want.words
                )]
            };
            checker.op(bad);
        }
        checker.require(traced.points == untraced.points, || {
            "traced replica's points differ from the untraced pass".to_string()
        });
        self.check_digest(&traced.points, checker);
        crate::campaign::check_counter(
            checker,
            traced_obs,
            "core.compact.engines",
            traced.compact_engines,
        );
        crate::campaign::check_counter(
            checker,
            traced_obs,
            "flow.loads.calls",
            (traced.points.len()) as u64,
        );
    }

    fn layer_metrics(&self, d: &Replica, t: &Tracer, m: &mut LayerMetrics) {
        m.insert("core.compact.build_s", t.total_s("core.compact"));
        m.insert("core.compact.route_state_bytes", d.compact_bytes_max as f64);
        m.insert("flow.expected_loads_s", t.total_s("flow.loads"));
        m.insert("flow.pair_enum_points", d.pair_enum_points as f64);
        m.insert("flow.bound_s", t.total_s("flow.bound"));
        m.insert("flow.instance_loads_s", t.total_s("flow.loads.instance"));
        m.insert("flow.instance_flows", d.instance_flows as f64);
    }
}

impl FlowScale {
    fn check_digest(&self, points: &[PointKey], checker: &mut Checker) {
        let mut digest = Digest::default();
        for p in points {
            digest.str(&p.label);
            for &w in &p.words {
                digest.u64(w);
            }
        }
        let pinned = (self.seed == DEFAULT_SEED).then_some(PINNED_DIGEST);
        check_digest(checker, "flow_scale", digest.value(), pinned);
    }
}

/// The million-leaf shift-by-1024 `Flow` spec under the compact
/// representation; `seed` seeds its randomised schemes.
fn million_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::basic(
        "repobench-flow-million",
        TopologySpec::SlimmedTwoLevel {
            k: MILLION_K,
            w2: MILLION_W2,
        },
        WorkloadSpec::new("shift", MILLION_K * MILLION_K, MESSAGE_BYTES)
            .with_param("offset", SHIFT),
        ["d-mod-k", "s-mod-k", "random", "r-NCA-u"]
            .iter()
            .map(|s| SchemeSpec::parse(s).expect("known scheme"))
            .collect(),
    );
    spec.engine = EngineSpec::Flow;
    spec.representation = RepresentationSpec::Compact;
    spec.seeds = SeedSpec::List { seeds: vec![seed] };
    spec
}

/// The (scheme, seed) jobs of a spec, as the runner enumerates them:
/// deterministic schemes once with seed 0, seeded ones once per seed.
fn jobs(spec: &ScenarioSpec) -> Vec<(SchemeSpec, u64)> {
    let seeds = spec
        .seeds
        .as_list()
        .map(<[u64]>::to_vec)
        .unwrap_or_default();
    let mut jobs = Vec::new();
    for &scheme in &spec.schemes {
        if scheme.0.is_seeded() {
            jobs.extend(seeds.iter().map(|&s| (scheme, s)));
        } else {
            jobs.push((scheme, 0));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_scenario::runner::CompactFlowPoint;

    /// A workload shell with a small offered demand; nothing is simulated.
    fn shell(seed: u64) -> FlowScale {
        let sweep = FlowSweepConfig::slimming_family(
            4,
            &[4],
            vec![FlowScheme::DModK],
            TrafficSpec::Uniform,
        );
        FlowScale {
            seed,
            sweep,
            spec: million_spec(seed),
            sweep_pairs: vec![12],
            instance_flows: 4,
            instance_demand: 100.0,
            compact_points: 1,
        }
    }

    fn output(mcl: f64, routed: f64) -> (FlowSweepResult, CompactFlowResult) {
        let sweep = FlowSweepResult {
            traffic: "uniform".into(),
            points: vec![FlowPoint {
                topology: "XGFT(2;4,4;1,4)".into(),
                num_leaves: 16,
                w_top: 4,
                scheme: "d-mod-k".into(),
                mcl,
                network_mcl: mcl,
                lower_bound: 2.0,
                ratio: mcl / 2.0,
            }],
        };
        let compact = CompactFlowResult {
            name: "shell".into(),
            workload: "shift-1".into(),
            points: vec![CompactFlowPoint {
                topology: "XGFT(2;4,4;1,4)".into(),
                num_leaves: 16,
                w_top: 4,
                scheme: "d-mod-k".into(),
                seed: 0,
                mcl: 3.0,
                network_mcl: 3.0,
                lower_bound: 2.0,
                ratio: 1.5,
                routed_demand: routed,
                unroutable_demand: 0.0,
                route_state_bytes: 0,
            }],
        };
        (sweep, compact)
    }

    #[test]
    fn fabricated_bound_and_demand_violations_are_caught() {
        let w = shell(7);
        let obs = MetricsSnapshot::default();
        let mut ok = Checker::default();
        let pairs = w.check(&output(2.5, 100.0), &obs, &mut ok);
        assert_eq!((ok.attempted, ok.failed), (2, 0), "{:?}", ok.violations);
        assert_eq!(pairs, 12 + 4);

        // An MCL under the tree-cut bound, and demand that went missing.
        let mut bad = Checker::default();
        w.check(&output(1.5, 90.0), &obs, &mut bad);
        assert_eq!((bad.attempted, bad.failed), (2, 2));
        assert!(
            bad.violations[0].contains("tree-cut bound"),
            "{:?}",
            bad.violations
        );
        assert!(bad.violations[1].contains("routed"), "{:?}", bad.violations);
    }

    #[test]
    fn a_perturbed_point_breaks_the_pinned_digest() {
        let w = shell(DEFAULT_SEED);
        let mut checker = Checker::default();
        w.check(
            &output(2.5, 100.0),
            &MetricsSnapshot::default(),
            &mut checker,
        );
        assert_eq!(checker.failed, 1);
        assert!(
            checker.violations[0].contains("digest"),
            "{:?}",
            checker.violations
        );
    }

    #[test]
    fn jobs_enumerate_like_the_runner() {
        let jobs = jobs(&million_spec(9));
        let named: Vec<(&str, u64)> = jobs.iter().map(|(s, seed)| (s.name(), *seed)).collect();
        assert_eq!(
            named,
            vec![
                ("d-mod-k", 0),
                ("s-mod-k", 0),
                ("random", 9),
                ("r-NCA-u", 9)
            ]
        );
    }
}
