//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path repobench/Cargo.toml -- \
//!     --workload campaign_wrf1024 --seed 2009 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it builds the runner's
//! inputs several times (the median is `setup_s`), computes the references
//! the output checks need, runs the crate's own runner once to warm up,
//! then repeats it for `--seconds`, checking every run's simulated output.
//! Its times are scaled to a reference core speed by the passes of a fixed
//! kernel run alongside (see `candle.rs`).
//! `--trace 1` runs a serial replica that repeats the runner's structure
//! through public calls, once with spans off and once with spans on, and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` beside this file.

mod campaign;
mod candle;
mod chaos;
mod check;
mod flow;
mod host;
mod tracer;

use check::{median, Checker};
use host::HostFacts;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tracer::{Tracer, NONE};
use xgft_obs::MetricsSnapshot;

/// The seed whose output digests are pinned; every other seed is held out
/// and runs the invariant checks only.
pub const DEFAULT_SEED: u64 = 2009;
/// Set-up samples per `--trace 0` run: at least the first count, repeated
/// until they total `SETUP_BUDGET_S` or reach the second count. Each sample
/// times a batch of back-to-back set-ups lasting at least `SETUP_SAMPLE_S`,
/// so that micro-second set-ups are not lost in timer overhead; `setup_s`
/// is the median over samples of the time per set-up.
const SETUP_SAMPLES: (usize, usize) = (5, 200);
const SETUP_SAMPLE_S: f64 = 0.005;
const SETUP_BUDGET_S: f64 = 1.0;
/// Timed runs per `--trace 0` run, at least, whatever `--seconds` says.
const MIN_TIMED_RUNS: usize = 3;
/// Candle passes after each timed run take at least this share of its
/// time; set-up takes one pass per this many samples.
const CANDLE_SHARE: f64 = 0.1;
const SETUP_SAMPLES_PER_CANDLE: usize = 10;
/// The rayon width of every end-to-end run; fewer cores than this is
/// refused rather than oversubscribed.
const WORKERS: usize = 2;

/// The end-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
/// A layer a workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tracesim.plan_s", "s"),
    ("tracesim.replay_self_s", "s"),
    ("tracesim.network_calls", "count"),
    ("netsim.busy_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.lower_s", "s"),
    ("netsim.schedule_s", "s"),
    ("netsim.delivered", "count"),
    ("netsim.dropped", "count"),
    ("netsim.event_queue_hwm", "count"),
    ("core.compile_s", "s"),
    ("core.compile.routes", "count"),
    ("core.compile.hops", "count"),
    ("core.route_state_bytes", "bytes"),
    ("core.patch_s", "s"),
    ("core.patch.calls", "count"),
    ("core.patch.untouched", "count"),
    ("core.patch.rerouted", "count"),
    ("core.patch.unroutable", "count"),
    ("core.compact.build_s", "s"),
    ("core.compact.route_state_bytes", "bytes"),
    ("flow.expected_loads_s", "s"),
    ("flow.pair_enum_points", "count"),
    ("flow.bound_s", "s"),
    ("flow.instance_loads_s", "s"),
    ("flow.instance_flows", "count"),
    ("analysis.shard_s.p50", "s"),
    ("analysis.shard_s.p80", "s"),
    ("analysis.epoch_s.p50", "s"),
    ("analysis.epoch_s.p90", "s"),
    ("analysis.parallel_efficiency", "ratio"),
    ("topo.build_s", "s"),
    ("patterns.generate_s", "s"),
    ("scenario.validate_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_coverage_frac", "ratio"),
];

/// Layers whose spans count as named layer time in the coverage figure;
/// `analysis.*` and the root span are the replica's own glue.
const CRATE_LAYERS: &[&str] = &[
    "topo", "patterns", "scenario", "core", "flow", "netsim", "tracesim",
];
/// The named layer spans must cover at least this share of the traced run.
const MIN_SPAN_COVERAGE: f64 = 0.9;

/// Per-layer metric values of one traced run, keyed by `PER_LAYER` name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One benchmark workload. The crates receive only the inputs built by
/// [`Workload::setup`]; the seed never reaches them otherwise.
pub trait Workload: Sized {
    /// The runner's result, checked after the timed region.
    type Output;
    /// The serial replica's result.
    type Replica;

    /// Build from the seed exactly the inputs the runner is handed (the
    /// pattern, the trace, the config or spec); timed as `setup_s`. What
    /// the runner builds from them is its own work, inside `wall_s`.
    fn setup(seed: u64, tracer: &mut Tracer) -> Self;
    /// Operations in one end-to-end run.
    fn ops_per_run(&self) -> u64;
    /// The references the output checks need, computed after the timed
    /// set-up and before the first timed run (for the campaign, an
    /// untraced pass of the serial replica, as its runner's result omits
    /// the simulated counters).
    fn prepare_checks(&mut self, checker: &mut Checker);
    /// One end-to-end run through the crate's public runner.
    fn run(&self) -> Result<Self::Output, String>;
    /// Check one end-to-end run; returns its work units (netsim events or
    /// demand pairs) for `throughput_per_s`.
    fn check(&self, out: &Self::Output, obs: &MetricsSnapshot, checker: &mut Checker) -> u64;
    /// The serial replica: the runner's structure through public calls,
    /// with a span around each call into a layer.
    fn replicate(&self, tracer: &mut Tracer) -> Result<Self::Replica, String>;
    /// Check a traced replica pass against the untraced pass, the
    /// end-to-end run and the `xgft-obs` counters of the same pass.
    fn compare(
        &self,
        e2e: &Self::Output,
        traced: &Self::Replica,
        traced_obs: &MetricsSnapshot,
        untraced: &Self::Replica,
        checker: &mut Checker,
    );
    /// The per-layer metrics of a traced pass.
    fn layer_metrics(&self, replica: &Self::Replica, tracer: &Tracer, m: &mut LayerMetrics);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: repobench --workload <campaign_wrf1024|chaos_wrf256|flow_scale> \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if WORKERS > host::nproc() {
        return Err(format!(
            "refusing to run {WORKERS} workers on {} cores",
            host::nproc()
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign_wrf1024" => bench::<campaign::Campaign>(&args),
        "chaos_wrf256" => bench::<chaos::Chaos>(&args),
        "flow_scale" => bench::<flow::FlowScale>(&args),
        other => {
            eprintln!("repobench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{result}");
}

/// One measured run of the runner.
struct Sample<O> {
    wall_s: f64,
    /// `None` when the peak could not be reset before the run or read
    /// after it: a lifetime peak is never reported as the run's.
    rss_mib: Option<f64>,
    obs: MetricsSnapshot,
    out: Result<O, String>,
}

fn measure<W: Workload>(w: &W, pool: &rayon::ThreadPool) -> Sample<W::Output> {
    let reset = host::reset_peak_rss();
    let before = xgft_obs::global().snapshot();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| pool.install(|| w.run())));
    let wall_s = start.elapsed().as_secs_f64();
    let obs = xgft_obs::global().snapshot().delta_since(&before);
    let rss_mib = host::peak_rss_mib().filter(|_| reset);
    let out = out.unwrap_or_else(|panic| Err(panic_message(panic)));
    Sample {
        wall_s,
        rss_mib,
        obs,
        out,
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("panicked: {msg}")
}

/// Check a sample; returns its work units (0 when the run failed).
fn check_sample<W: Workload>(w: &W, s: &Sample<W::Output>, checker: &mut Checker) -> u64 {
    checker.require(s.rss_mib.is_some(), || {
        "peak RSS could not be reset and read around the run".to_string()
    });
    match &s.out {
        Ok(out) => w.check(out, &s.obs, checker),
        Err(e) => {
            checker.failed_ops(w.ops_per_run(), format!("run failed: {e}"));
            0
        }
    }
}

fn bench<W: Workload>(args: &Args) -> String {
    let facts = HostFacts::new(WORKERS);
    println!("{}", facts.render());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(WORKERS)
        .build()
        .expect("the rayon pool builds");
    let mut checker = Checker::default();
    let metrics = if args.trace {
        traced::<W>(args, &facts, &pool, &mut checker)
    } else {
        end_to_end::<W>(args, &pool, &mut checker)
    };
    for v in checker.violations.iter().take(20) {
        eprintln!("repobench: violation: {v}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.failed == 0,
        checker.attempted,
        checker.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        println!("{name} = {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!(
        "ops_attempted = {} count\nops_failed = {} count",
        checker.attempted, checker.failed
    );
    json
}

/// `--trace 0`: set-up, warm-up, then timed runs of the crate's runner.
fn end_to_end<W: Workload>(
    args: &Args,
    pool: &rayon::ThreadPool,
    checker: &mut Checker,
) -> Vec<(&'static str, &'static str, f64)> {
    // One sample: `batch` set-ups back to back, each dropped when the next
    // is built, so the heap stays the size of one set-up.
    let build = |batch: usize| -> (f64, W) {
        let start = Instant::now();
        let mut last = W::setup(args.seed, &mut Tracer::new(false));
        for _ in 1..batch {
            last = W::setup(args.seed, &mut Tracer::new(false));
        }
        (start.elapsed().as_secs_f64() / batch as f64, last)
    };
    // Double the batch until one lasts a sample's length; these sizing
    // batches are not samples.
    let mut batch = 1;
    while build(batch).0 * (batch as f64) < SETUP_SAMPLE_S {
        batch *= 2;
    }
    // Set-up runs on this thread alone; candle passes on it, one before
    // the samples and one after every `SETUP_SAMPLES_PER_CANDLE`, price the
    // core speed they ran at.
    let mut setup_candles = Vec::new();
    candle::passes_on(1, 0.0, &mut setup_candles);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_SAMPLES.0
        || (setup_s.len() < SETUP_SAMPLES.1
            && setup_s.iter().sum::<f64>() * (batch as f64) < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let (per_setup, w) = build(batch);
        setup_s.push(per_setup);
        workload = Some(w);
        if setup_s.len().is_multiple_of(SETUP_SAMPLES_PER_CANDLE) {
            candle::passes_on(1, 0.0, &mut setup_candles);
        }
    }
    let mut w = workload.expect("at least one set-up");
    w.prepare_checks(checker);

    let warm = measure(&w, pool);
    check_sample(&w, &warm, checker);
    drop(warm);

    // Candle passes on every worker at once follow each timed run, for at
    // least `CANDLE_SHARE` of its time.
    let (mut walls, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut candles = Vec::new();
    candle::passes_on(WORKERS, 0.0, &mut candles);
    let start = Instant::now();
    while walls.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let sample = measure(&w, pool);
        candle::passes_on(WORKERS, CANDLE_SHARE * sample.wall_s, &mut candles);
        let work = check_sample(&w, &sample, checker);
        walls.push(sample.wall_s);
        rates.push(work as f64 / sample.wall_s);
        rss.extend(sample.rss_mib);
    }
    let (run_scale, setup_scale) = (
        candle::scale(median(&candles)),
        candle::scale(median(&setup_candles)),
    );
    println!(
        "# {} timed runs, {} set-up samples of {batch} set-ups; each metric is the median",
        walls.len(),
        setup_s.len()
    );
    println!("# host wall_s of each timed run: {walls:.4?}");
    println!(
        "# host medians: wall_s {:.4} s, setup_s {:.4e} s; candle pass {:.4} s over {} passes \
         on {WORKERS} workers, {:.4} s over {} set-up passes (reference {} s)",
        median(&walls),
        median(&setup_s),
        median(&candles),
        candles.len(),
        median(&setup_candles),
        setup_candles.len(),
        candle::NOMINAL_S
    );
    let values = [
        median(&walls) * run_scale,
        median(&setup_s) * setup_scale,
        median(&rates) / run_scale,
        median(&rss),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// `--trace 1`: one checked end-to-end run, then the serial replica with
/// spans off and on, compared counter for counter.
fn traced<W: Workload>(
    args: &Args,
    facts: &HostFacts,
    pool: &rayon::ThreadPool,
    checker: &mut Checker,
) -> Vec<(&'static str, &'static str, f64)> {
    let start = Instant::now();
    let mut setup_tracer = Tracer::new(true);
    let mut w = W::setup(args.seed, &mut setup_tracer);
    w.prepare_checks(checker);
    let warm = measure(&w, pool);
    check_sample(&w, &warm, checker);
    drop(warm);
    let e2e = measure(&w, pool);
    check_sample(&w, &e2e, checker);
    let Ok(e2e_out) = &e2e.out else {
        return zero_layers();
    };

    let (mut off_walls, mut on_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    while last.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let untraced_pass = |walls: &mut Vec<f64>| {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.replicate(&mut Tracer::new(false))));
            walls.push(t.elapsed().as_secs_f64());
            out
        };
        // Alternate which pass runs first, so drift in machine speed does
        // not bias the overhead estimate.
        let untraced_first = off_walls.len() % 2 == 0;
        let first = untraced_first.then(|| untraced_pass(&mut off_walls));
        let mut tracer = Tracer::new(true);
        let before = xgft_obs::global().snapshot();
        let t = Instant::now();
        let traced = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("bench.replica", NONE, |t| w.replicate(t))
        }));
        on_walls.push(t.elapsed().as_secs_f64());
        let obs = xgft_obs::global().snapshot().delta_since(&before);
        let untraced = first.unwrap_or_else(|| untraced_pass(&mut off_walls));
        match (flatten(untraced), flatten(traced)) {
            (Ok(untraced), Ok(traced)) => {
                w.compare(e2e_out, &traced, &obs, &untraced, checker);
                last = Some((traced, tracer));
            }
            (a, b) => {
                let why = a.err().or(b.err()).unwrap_or_default();
                checker.failed_ops(w.ops_per_run(), format!("replica failed: {why}"));
                return zero_layers();
            }
        }
    }
    let (replica, tracer) = last.expect("at least one replica pass");

    let mut m: LayerMetrics = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    w.layer_metrics(&replica, &tracer, &mut m);
    let root_s = tracer.total_s("bench.replica");
    m.insert(
        "topo.build_s",
        setup_tracer.total_s("topo.build") + tracer.total_s("topo.build"),
    );
    m.insert(
        "patterns.generate_s",
        setup_tracer.total_s("patterns.generate") + tracer.total_s("patterns.generate"),
    );
    m.insert(
        "scenario.validate_s",
        setup_tracer.total_s("scenario.validate") + tracer.total_s("scenario.validate"),
    );
    m.insert(
        "analysis.parallel_efficiency",
        root_s / (facts.workers as f64 * e2e.wall_s),
    );
    let (off, on) = (median(&off_walls), median(&on_walls));
    m.insert("obs.trace_overhead_frac", (on - off) / off);
    let layers = tracer.layer_self_s();
    let covered: f64 = CRATE_LAYERS
        .iter()
        .map(|l| layers.get(l).copied().unwrap_or(0.0))
        .sum();
    let coverage = covered / root_s;
    m.insert("obs.span_coverage_frac", coverage);
    checker.require(coverage >= MIN_SPAN_COVERAGE, || {
        format!("named layer spans cover {coverage:.3} of the traced run (< {MIN_SPAN_COVERAGE})")
    });

    println!(
        "# traced replica {root_s:.3} s (untraced {off:.3} s, end-to-end {:.3} s); layer self time:",
        e2e.wall_s
    );
    for (layer, s) in &layers {
        println!("#   {layer:<9} {s:>9.4} s  {:>5.1}%", 100.0 * s / root_s);
    }
    let path = std::path::Path::new(".repobench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"workers\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"git\":\"{}\"}}",
        args.workload, args.seed, facts.nproc, facts.workers, facts.rustc, facts.profile, facts.git_rev
    );
    let mut all = setup_tracer;
    all.absorb(tracer);
    match all.write_jsonl(&path, &header) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("repobench: could not write {}: {e}", path.display()),
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m[name]))
        .collect()
}

fn flatten<T>(r: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    r.unwrap_or_else(|panic| Err(panic_message(panic)))
}

fn zero_layers() -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "<value>"` string pair of a JSON text, in order.
    fn strings_of(text: &str, key: &str) -> Vec<String> {
        let needle = format!("\"{key}\": \"");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &text[at + needle.len()..];
                rest[..rest.find('"').expect("closed string")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let workloads = ["campaign_wrf1024", "chaos_wrf256", "flow_scale"];
        let metrics = END_TO_END.iter().chain(PER_LAYER);
        let names: Vec<&str> = workloads
            .iter()
            .copied()
            .chain(metrics.clone().map(|&(n, _)| n))
            .collect();
        assert_eq!(strings_of(text, "name"), names);
        let units: Vec<&str> = metrics.map(|&(_, u)| u).collect();
        assert_eq!(strings_of(text, "unit"), units);
    }
}
