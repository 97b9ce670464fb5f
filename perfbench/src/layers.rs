//! The traced runs (`--trace 1`): per-layer metrics from spans recorded
//! around the benchmark's own calls into each crate, component replays,
//! and a counting observer.
//!
//! A traced run never reports end-to-end numbers. It does fixed work —
//! one traced pass over a sweep grid, or a fixed number of cold rounds
//! and warm submissions for the service — so its deterministic counters
//! repeat exactly, and it checks that: traced and untraced runs of the
//! same points must produce identical `Metrics`, and the counters must
//! equal those of the previous traced run of the same seed by the same
//! build.

use crate::gate::{Checksum, Gate};
use crate::observer::{Counting, Weighted};
use crate::replay::{self, Cost, LineAccess, BANKS};
use crate::report::Report;
use crate::serve::{self, Fixed, Options};
use crate::spans::{by_name, Spans};
use crate::sweep;
use mot3d_bench::plan::{ExperimentPlan, RunPoint, RunRecord};
use mot3d_bench::pool::parallel_map_streamed_on;
use mot3d_bench::sink::record_json_line;
use mot3d_mem::addr::AddressMap;
use mot3d_mot::MotNetwork;
use mot3d_noc::NocNetwork;
use mot3d_serve::codec::{cache_key, metrics_from_json, metrics_to_json, Fingerprint};
use mot3d_serve::protocol::PlanRequest;
use mot3d_serve::store::ResultStore;
use mot3d_sim::{Cluster, InterconnectChoice, Metrics};
use mot3d_workloads::{streams, StreamOp};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.ops", "count"),
    ("workloads.ns_per_op", "ns"),
    ("sim.cluster_new_ms", "ms"),
    ("sim.reset_us", "us"),
    ("sim.verify_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.steps", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_step", "ns"),
    ("sim.inflight_mean", "count"),
    ("sim.wheel_depth_mean", "count"),
    ("sim.run_unexplained_frac", "ratio"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("mem.coherence_msgs", "count"),
    ("mem.bank_busy_frac", "ratio"),
    ("mem.bus_depth_mean", "count"),
    ("mem.l1_ns_per_access", "ns"),
    ("mem.l2_ns_per_access", "ns"),
    ("mem.dram_ns_per_access", "ns"),
    ("mem.bus_ns_per_transfer", "ns"),
    ("mot.requests", "count"),
    ("mot.req_latency_cycles", "cycles"),
    ("mot.active_switches_mean", "count"),
    ("mot.ns_per_request", "ns"),
    ("noc.requests", "count"),
    ("noc.req_latency_cycles", "cycles"),
    ("noc.busy_ports_mean", "count"),
    ("noc.ns_per_request", "ns"),
    ("phys.wheel_ns_per_op", "ns"),
    ("phys.model_build_ms", "ms"),
    ("bench.plan_expand_us", "us"),
    ("bench.record_encode_us", "us"),
    ("bench.pool_idle_frac", "ratio"),
    ("serve.store_open_ms", "ms"),
    ("serve.cache_key_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.codec_decode_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.codec_encode_us", "us"),
    ("serve.request_parse_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedupe_ratio", "ratio"),
    ("serve.executed", "count"),
    ("serve.failed", "count"),
    ("serve.client_retries", "count"),
    ("tracing_overhead", "ratio"),
];

/// Wheel replay delay standing in for an L2 access: the full-connection
/// MoT's round-trip L2 latency in cycles (Table I).
const L2_ROUND_TRIP: u64 = 12;

/// Repetitions of the cheap API calls timed one by one (plan expansion,
/// request parsing), so their means rest on more than one sample.
const REPS: u64 = 200;

/// Measured per-layer values with a note each; [`Layers::emit`] fills
/// the rest of [`PER_LAYER`] with 0 and the reason it is absent.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, (f64, String)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, (value, note.into()));
    }

    fn emit(mut self, report: &mut Report, absent: impl Fn(&str) -> &'static str) {
        for &(name, unit) in PER_LAYER {
            match self.0.remove(name) {
                Some((value, note)) => report.metric(name, unit, value, &note),
                None => report.metric(name, unit, 0.0, &format!("absent: {}", absent(name))),
            }
        }
    }
}

/// Mean duration in ns of the spans named `name`.
fn mean_ns(names: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
    names
        .get(name)
        .map_or(0.0, |&(calls, total, _)| total as f64 / calls.max(1) as f64)
}

fn total_ns(names: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> u64 {
    names.get(name).map_or(0, |v| v.1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints the span tree's per-name totals and self times, and writes
/// every span to `path`.
fn write_spans(spans: &Spans, path: &Path) {
    println!(
        "spans: {:<26} {:>8} {:>12} {:>12}",
        "name", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, own)) in by_name(spans.spans()) {
        println!(
            "spans: {name:<26} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    match std::fs::write(path, spans.to_jsonl()) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Compares `counters` with the previous traced run of the same
/// workload, seed and build (keyed by the executable's size and
/// modification time), then records them for the next one.
fn check_counters(report: &mut Report, out: &Path, key: &str, counters: &[(&str, u64)]) {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_default();
    let path = out.join(format!("counters-{key}-{build}.txt"));
    let mut text = String::new();
    for (name, value) in counters {
        let _ = writeln!(text, "{name} {value}");
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => {
            println!("deterministic counters: identical to the previous traced run of this seed")
        }
        Ok(previous) => report.fail(
            1,
            format!("deterministic counters changed between traced runs:\n was:\n{previous} now:\n{text}"),
        ),
        Err(_) => {
            println!("deterministic counters: recorded for the next traced run of this seed");
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    }
}

/// The point's interconnect, built separately from the cluster so its
/// physical-model derivation can be timed and replayed.
enum Net {
    Mot(MotNetwork),
    Noc(NocNetwork),
}

/// Everything the traced pass accumulates over a grid.
#[derive(Debug, Default)]
struct Acc {
    workload_ops: u64,
    steps: u64,
    cycles: u64,
    all: Weighted,
    mot: Weighted,
    noc: Weighted,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    dram_accesses: u64,
    coherence: u64,
    mot_requests: u64,
    mot_latency: u64,
    noc_requests: u64,
    noc_latency: u64,
    depth_rises: u64,
    l1: Cost,
    l2: Cost,
    dram: Cost,
    bus: Cost,
    mot_replay: Cost,
    noc_replay: Cost,
    wheel: Cost,
}

/// Runs one point with spans around every layer call, then replays its
/// operations through the component crates.
fn trace_point(spans: &mut Spans, k: u64, p: &RunPoint, acc: &mut Acc) -> Result<Metrics, String> {
    let config = p.config;
    let active = config.power_state.active_cores();
    let ops: Vec<Vec<StreamOp>> = spans.time("workloads.generate", k, |_| {
        streams(&p.spec, active, config.seed)
            .into_iter()
            .map(Iterator::collect)
            .collect()
    });
    acc.workload_ops += ops.iter().map(|o| o.len() as u64).sum::<u64>();

    let mut net = spans.time("phys.model_build", k, |_| match config.interconnect {
        InterconnectChoice::Mot => MotNetwork::date16(config.power_state)
            .map(Net::Mot)
            .map_err(|e| e.to_string()),
        InterconnectChoice::Noc(kind) => Ok(Net::Noc(NocNetwork::date16(kind))),
    })?;
    let label = format!(
        "{} @ {} @ {} @ {}",
        p.spec.name, config.interconnect, config.power_state, config.dram
    );
    let first = streams(&p.spec, active, config.seed);
    let mut cluster = spans
        .time("sim.cluster_new", k, |_| Cluster::new(config, first))
        .map_err(|e| e.to_string())?;
    let fresh = streams(&p.spec, active, config.seed);
    spans
        .time("sim.reset", k, |_| cluster.reset(fresh))
        .map_err(|e| e.to_string())?;
    spans
        .time("sim.run", k, |_| cluster.run_to_completion())
        .map_err(|e| e.to_string())?;
    spans.time("sim.verify", k, |_| cluster.verify_against_golden());
    let m = cluster.metrics(label.clone());
    // The same run again under the counting observer, whose sampling
    // would otherwise inflate `sim.run`.
    cluster
        .reset(streams(&p.spec, active, config.seed))
        .map_err(|e| e.to_string())?;
    let mut obs = Counting::default();
    spans
        .time("sim.observe", k, |_| {
            cluster.run_to_completion_with(&mut obs)
        })
        .map_err(|e| e.to_string())?;
    if cluster.metrics(label) != m {
        return Err("observing the run changed its metrics".to_string());
    }
    drop(cluster);
    obs.finish(m.cycles)?;

    acc.steps += obs.steps();
    acc.cycles += m.cycles;
    acc.all.merge(&obs.sums);
    acc.depth_rises += obs.depth_rises;
    acc.l1_accesses += m.l1_hits + m.l1_misses;
    acc.l1_misses += m.l1_misses;
    acc.l2_accesses += m.l2_hits + m.l2_misses;
    acc.l2_misses += m.l2_misses;
    acc.dram_accesses += m.dram_accesses;
    acc.coherence += m.invalidations + m.recalls;
    match net {
        Net::Mot(_) => {
            acc.mot.merge(&obs.sums);
            acc.mot_requests += m.interconnect.requests;
            acc.mot_latency += m.interconnect.total_request_latency;
        }
        Net::Noc(_) => {
            acc.noc.merge(&obs.sums);
            acc.noc_requests += m.interconnect.requests;
            acc.noc_latency += m.interconnect.total_request_latency;
        }
    }

    let map = AddressMap::date16();
    let (physical, remap): (Vec<usize>, Option<_>) = match &net {
        Net::Mot(n) => (
            n.configuration().active_cores(),
            Some(n.configuration().clone()),
        ),
        Net::Noc(_) => ((0..active).collect(), None),
    };
    let mut ifetch = Vec::new();
    let (cost, misses) = spans.time("mem.l1", k, |_| replay::l1(&ops, &map, &mut ifetch));
    acc.l1.merge(cost);
    let order = replay::interleave(&misses);
    let serving = |home: usize| remap.as_ref().map_or(home, |c| c.remap_bank(home));
    let (cost, mut traffic) = spans.time("mem.l2", k, |_| replay::l2(&order, &map, serving));
    acc.l2.merge(cost);
    traffic.extend(
        ifetch
            .iter()
            .map(|&(rank, line)| (BANKS + physical[rank], LineAccess { line, write: false })),
    );
    acc.dram
        .merge(spans.time("mem.dram", k, |_| replay::dram(&traffic, &config, map)));
    let bus_depth = obs.sums.mean(obs.sums.bus_depth).round().max(1.0) as usize;
    acc.bus.merge(spans.time("mem.bus", k, |_| {
        replay::bus(&traffic, config.miss_bus_occupancy, bus_depth)
    }));
    match &mut net {
        Net::Mot(n) => acc.mot_replay.merge(spans.time("mot.replay", k, |_| {
            replay::interconnect(n, &misses, &physical, &map)
        })),
        Net::Noc(n) => acc.noc_replay.merge(spans.time("noc.replay", k, |_| {
            replay::interconnect(n, &misses, &physical, &map)
        })),
    }
    let depth = obs.sums.mean(obs.sums.wheel_depth).round().max(1.0) as usize;
    let delays = [
        config.miss_bus_occupancy,
        L2_ROUND_TRIP,
        config.dram.latency_cycles(),
    ];
    acc.wheel.merge(spans.time("phys.wheel", k, |_| {
        replay::wheel(depth, obs.depth_rises.max(1), &delays)
    }));
    Ok(m)
}

/// Share of the worker threads' time spent idle during one 2-thread
/// pass over `points` on the bench crate's pool.
fn pool_idle_frac(points: &[(usize, RunPoint)], report: &mut Report) -> f64 {
    let start = Instant::now();
    let busy: Vec<f64> = parallel_map_streamed_on(
        sweep::POOL_THREADS,
        points.len(),
        |i| {
            let p = &points[i].1;
            let t = Instant::now();
            let ok = mot3d_sim::run_spec(&p.spec, &p.config).is_ok();
            (t.elapsed().as_secs_f64(), ok)
        },
        |_, _| {},
    )
    .into_iter()
    .map(|(secs, ok)| {
        if !ok {
            report.fail(1, "a point failed in the pool pass".to_string());
        }
        secs
    })
    .collect();
    let wall = start.elapsed().as_secs_f64();
    1.0 - busy.iter().sum::<f64>() / (wall * sweep::POOL_THREADS as f64)
}

/// The traced run of a sweep workload.
pub fn sweep(
    plans: &[ExperimentPlan],
    gate: &mut Gate,
    out: &Path,
    workload: &str,
    seed: u64,
) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(Instant::now());
    let points = sweep::grid(plans);
    let mut acc = Acc::default();
    for (i, plan) in plans.iter().enumerate() {
        for _ in 0..REPS {
            spans.time("bench.plan_expand", i as u64, |_| black_box(plan.points()));
        }
    }

    // The traced pass.
    let traced_start = Instant::now();
    let mut sums = vec![Checksum::default(); plans.len()];
    let mut traced: Vec<Option<Metrics>> = Vec::with_capacity(points.len());
    for (k, (plan, p)) in points.iter().enumerate() {
        report.attempted += 1;
        let k = k as u64;
        match spans.time("point", k, |spans| trace_point(spans, k, p, &mut acc)) {
            Ok(m) => {
                let record = RunRecord::new(p.clone(), m.clone());
                let line = spans.time("bench.record_encode", k, |_| record_json_line(&record));
                sums[*plan].push_line(&line);
                traced.push(Some(m));
            }
            Err(e) => {
                report.fail(1, format!("{}: {e}", p.label()));
                traced.push(None);
            }
        }
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    for (plan, sum) in plans.iter().zip(sums) {
        if let Err(e) = gate.check(plan.name(), sum) {
            report.fail(plan.len() as u64, e);
        }
    }

    // The same points untraced, on a warm pool: the work must repeat
    // exactly, and the wall time is the tracing-overhead baseline.
    let configs = sweep::distinct_configs(&points);
    let mut pool = sweep::set_up(&configs, &mut report);
    let untraced_start = Instant::now();
    for ((_, p), want) in points.iter().zip(&traced) {
        report.attempted += 1;
        match pool.run_spec(&p.spec, &p.config) {
            Ok(m) if Some(&m) == want.as_ref() => {}
            Ok(_) => report.fail(
                1,
                format!("{}: traced and untraced metrics differ", p.label()),
            ),
            Err(e) => report.fail(1, format!("{}: {e}", p.label())),
        }
    }
    let untraced_wall = untraced_start.elapsed().as_secs_f64();
    report.attempted += points.len() as u64;
    let idle = pool_idle_frac(&points, &mut report);

    let names = by_name(spans.spans());
    let run_ns = total_ns(&names, "sim.run") as f64;
    let replayed = [
        acc.l1,
        acc.l2,
        acc.dram,
        acc.bus,
        acc.mot_replay,
        acc.noc_replay,
        acc.wheel,
    ]
    .iter()
    .map(|c| c.ns)
    .sum::<u64>() as f64;
    println!("replayed operations beside the run's own counts:");
    println!(
        "  mem.l1     {:>12} accesses   (run: {} L1 accesses)",
        acc.l1.ops, acc.l1_accesses
    );
    println!(
        "  mem.l2     {:>12} accesses   (run: {} L2 accesses)",
        acc.l2.ops, acc.l2_accesses
    );
    println!(
        "  mem.dram   {:>12} accesses   (run: {} DRAM accesses)",
        acc.dram.ops, acc.dram_accesses
    );
    println!(
        "  mem.bus    {:>12} transfers  (run: {} DRAM accesses ride the bus)",
        acc.bus.ops, acc.dram_accesses
    );
    println!(
        "  mot        {:>12} requests   (run: {} MoT requests)",
        acc.mot_replay.ops, acc.mot_requests
    );
    println!(
        "  noc        {:>12} requests   (run: {} NoC requests)",
        acc.noc_replay.ops, acc.noc_requests
    );
    println!(
        "  phys.wheel {:>12} ops        (run: at least {} schedules)",
        acc.wheel.ops, acc.depth_rises
    );
    println!(
        "tracing overhead: traced pass {traced_wall:.3} s / untraced pass {untraced_wall:.3} s; \
         sim.run {:.3} s unobserved, {:.3} s under the counting observer",
        run_ns / 1e9,
        total_ns(&names, "sim.observe") as f64 / 1e9
    );
    write_spans(
        &spans,
        &out.join(format!("spans-{workload}-seed{seed}.jsonl")),
    );
    check_counters(
        &mut report,
        out,
        &format!("{workload}-seed{seed}"),
        &[
            ("workloads.ops", acc.workload_ops),
            ("sim.steps", acc.steps),
            ("sim.cycles", acc.cycles),
            ("mem.l1_accesses", acc.l1_accesses),
            ("mem.l1_misses", acc.l1_misses),
            ("mem.l2_accesses", acc.l2_accesses),
            ("mem.l2_misses", acc.l2_misses),
            ("mem.dram_accesses", acc.dram_accesses),
            ("mem.coherence_msgs", acc.coherence),
            ("mot.requests", acc.mot_requests),
            ("noc.requests", acc.noc_requests),
            ("replay.l1", acc.l1.ops),
            ("replay.l2", acc.l2.ops),
            ("replay.dram", acc.dram.ops),
            (
                "replay.interconnect",
                acc.mot_replay.ops + acc.noc_replay.ops,
            ),
            ("replay.wheel", acc.wheel.ops),
        ],
    );

    let n = points.len();
    let mut l = Layers::default();
    l.set(
        "workloads.ops",
        acc.workload_ops as f64,
        "stream items generated (clones drained per point)",
    );
    l.set(
        "workloads.ns_per_op",
        ratio(
            total_ns(&names, "workloads.generate") as f64,
            acc.workload_ops as f64,
        ),
        "",
    );
    l.set(
        "sim.cluster_new_ms",
        mean_ns(&names, "sim.cluster_new") / 1e6,
        "per point",
    );
    l.set(
        "sim.reset_us",
        mean_ns(&names, "sim.reset") / 1e3,
        "per point",
    );
    l.set(
        "sim.verify_ms",
        mean_ns(&names, "sim.verify") / 1e6,
        "per point (golden checking is off in the paper's config)",
    );
    l.set(
        "sim.run_ms",
        run_ns / n as f64 / 1e6,
        "per point, unobserved run_to_completion",
    );
    l.set(
        "sim.steps",
        acc.steps as f64,
        format!("executed steps over {} simulated cycles", acc.cycles),
    );
    l.set(
        "sim.skip_ratio",
        1.0 - ratio(acc.steps as f64, acc.cycles as f64),
        "cycles the event-driven engine skipped",
    );
    l.set(
        "sim.ns_per_step",
        ratio(run_ns, acc.steps as f64),
        "sim.run time per executed step",
    );
    l.set(
        "sim.inflight_mean",
        acc.all.mean(acc.all.inflight),
        "time-weighted",
    );
    l.set(
        "sim.wheel_depth_mean",
        acc.all.mean(acc.all.wheel_depth),
        "time-weighted",
    );
    l.set(
        "sim.run_unexplained_frac",
        1.0 - ratio(replayed, run_ns),
        "1 - replayed component time / sim.run time",
    );
    l.set("mem.l1_accesses", acc.l1_accesses as f64, "");
    l.set(
        "mem.l1_miss_ratio",
        ratio(acc.l1_misses as f64, acc.l1_accesses as f64),
        "",
    );
    l.set("mem.l2_accesses", acc.l2_accesses as f64, "");
    l.set(
        "mem.l2_miss_ratio",
        ratio(acc.l2_misses as f64, acc.l2_accesses as f64),
        "",
    );
    l.set("mem.dram_accesses", acc.dram_accesses as f64, "");
    l.set(
        "mem.coherence_msgs",
        acc.coherence as f64,
        "invalidations + recalls",
    );
    l.set(
        "mem.bank_busy_frac",
        acc.all.mean(acc.all.bank_busy),
        "time-weighted share of powered banks",
    );
    l.set(
        "mem.bus_depth_mean",
        acc.all.mean(acc.all.bus_depth),
        "time-weighted",
    );
    l.set("mem.l1_ns_per_access", acc.l1.ns_per_op(), "replay");
    l.set("mem.l2_ns_per_access", acc.l2.ns_per_op(), "replay");
    l.set("mem.dram_ns_per_access", acc.dram.ns_per_op(), "replay");
    l.set("mem.bus_ns_per_transfer", acc.bus.ns_per_op(), "replay");
    let no_points = |count: u64, what: &str| {
        if count == 0 {
            format!("no {what} points in this grid")
        } else {
            String::new()
        }
    };
    l.set(
        "mot.requests",
        acc.mot_requests as f64,
        no_points(acc.mot_replay.ops, "MoT"),
    );
    l.set(
        "mot.req_latency_cycles",
        ratio(acc.mot_latency as f64, acc.mot_requests as f64),
        "simulated transit incl. contention",
    );
    l.set(
        "mot.active_switches_mean",
        acc.mot.mean(acc.mot.active_switches),
        "time-weighted over MoT points",
    );
    l.set("mot.ns_per_request", acc.mot_replay.ns_per_op(), "replay");
    l.set(
        "noc.requests",
        acc.noc_requests as f64,
        no_points(acc.noc_replay.ops, "NoC"),
    );
    l.set(
        "noc.req_latency_cycles",
        ratio(acc.noc_latency as f64, acc.noc_requests as f64),
        "simulated transit incl. contention",
    );
    l.set(
        "noc.busy_ports_mean",
        acc.noc.mean(acc.noc.busy_ports),
        "time-weighted over NoC points",
    );
    l.set("noc.ns_per_request", acc.noc_replay.ns_per_op(), "replay");
    l.set(
        "phys.wheel_ns_per_op",
        acc.wheel.ns_per_op(),
        "replay at the observed depth",
    );
    l.set(
        "phys.model_build_ms",
        mean_ns(&names, "phys.model_build") / 1e6,
        "MotNetwork/NocNetwork::date16 per point",
    );
    l.set(
        "bench.plan_expand_us",
        mean_ns(&names, "bench.plan_expand") / 1e3,
        "ExperimentPlan::points per plan",
    );
    l.set(
        "bench.record_encode_us",
        mean_ns(&names, "bench.record_encode") / 1e3,
        "record_json_line per record",
    );
    l.set(
        "bench.pool_idle_frac",
        idle,
        format!("{} workers, one pass", sweep::POOL_THREADS),
    );
    l.set(
        "tracing_overhead",
        traced_wall / untraced_wall,
        "traced pass wall / untraced pass wall",
    );
    l.emit(&mut report, |name| {
        if name.starts_with("serve.") {
            "the sweeps never touch the service"
        } else {
            "not measured on this workload"
        }
    });
    report
}

/// The traced run of the service workload: fixed work, plus in-process
/// timings of the serve and bench APIs over the store the server wrote.
pub fn serve(opts: &Options, seed: u64) -> Report {
    let mut report = Report::default();
    match serve_layers(opts, seed, &mut report) {
        Ok(layers) => layers.emit(&mut report, |name| {
            if name == "bench.pool_idle_frac" {
                "the worker pool runs inside the server process"
            } else {
                "simulation runs inside the server process; the sweep workloads trace it"
            }
        }),
        Err(e) => report.fail(1, e),
    }
    report
}

fn serve_layers(opts: &Options, seed: u64, report: &mut Report) -> Result<Layers, String> {
    let fixed = Fixed {
        rounds: 2,
        warm_per_round: 13,
    };
    let mut spans = Spans::new(Instant::now());
    let start = Instant::now();
    let untraced = serve::session(opts, report, Some(fixed), None)?;
    let untraced_wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(untraced.store.parent().unwrap_or(&untraced.store));
    let start = Instant::now();
    let s = spans.time("serve.session", 0, |spans| {
        serve::session(opts, report, Some(fixed), Some(spans))
    })?;
    let traced_wall = start.elapsed().as_secs_f64();
    if s.totals.executed != untraced.totals.executed {
        report.fail(
            1,
            format!(
                "serve.executed differs between identical sessions: {} vs {}",
                untraced.totals.executed, s.totals.executed
            ),
        );
    }

    let pair = serve::grids(opts.seed);
    let fingerprint = Fingerprint::current();
    let mut store = spans
        .time("serve.store_open", 0, |_| ResultStore::open(&s.store))
        .map_err(|e| format!("{}: {e}", s.store.display()))?;
    let put_dir = s.store.with_file_name("put");
    let mut fresh =
        ResultStore::open(&put_dir).map_err(|e| format!("{}: {e}", put_dir.display()))?;
    for (i, request) in pair.iter().enumerate() {
        let line = request.to_line();
        for _ in 0..REPS {
            let parsed = spans.time("serve.request_parse", i as u64, |_| {
                PlanRequest::parse(&line)
            });
            if parsed.as_ref() != Ok(request) {
                report.fail(1, format!("request line does not round-trip: {line}"));
            }
        }
        let plan = request.to_plan()?;
        for _ in 0..REPS {
            spans.time("bench.plan_expand", i as u64, |_| black_box(plan.points()));
        }
        for p in plan.points() {
            let k = p.index as u64;
            report.attempted += 1;
            let key = spans.time("serve.cache_key", k, |_| cache_key(&fingerprint, &p));
            let got = spans.time("serve.store_get", k, |_| store.get(key));
            let Ok(Some(m)) = got else {
                report.fail(
                    1,
                    format!("{}: not readable from the store: {got:?}", p.label()),
                );
                continue;
            };
            let encoded = spans.time("serve.codec_encode", k, |_| metrics_to_json(&m));
            let decoded = spans.time("serve.codec_decode", k, |_| metrics_from_json(&encoded));
            if decoded.as_ref() != Ok(&m) {
                report.fail(1, format!("{}: codec does not round-trip", p.label()));
            }
            if let Err(e) = spans.time("serve.store_put", k, |_| fresh.put(key, &m)) {
                report.fail(1, format!("{}: store put: {e}", p.label()));
            }
            let record = RunRecord::new(p, m);
            spans.time("bench.record_encode", k, |_| {
                black_box(record_json_line(&record))
            });
        }
    }
    drop((store, fresh));
    let _ = std::fs::remove_dir_all(s.store.parent().unwrap_or(&s.store));
    write_spans(
        &spans,
        &opts
            .out
            .join(format!("spans-{}-seed{seed}.jsonl", serve::WORKLOAD)),
    );
    let t = s.totals;
    check_counters(
        report,
        &opts.out,
        &format!("{}-seed{seed}", serve::WORKLOAD),
        &[
            ("serve.points", t.points),
            ("serve.executed", t.executed),
            ("serve.failed", t.failed),
        ],
    );
    println!("tracing overhead: traced session {traced_wall:.3} s / untraced session {untraced_wall:.3} s");

    let names = by_name(spans.spans());
    let mut l = Layers::default();
    l.set(
        "serve.store_open_ms",
        mean_ns(&names, "serve.store_open") / 1e6,
        format!("{} entries", t.points),
    );
    l.set(
        "serve.cache_key_us",
        mean_ns(&names, "serve.cache_key") / 1e3,
        "",
    );
    l.set(
        "serve.store_get_us",
        mean_ns(&names, "serve.store_get") / 1e3,
        "",
    );
    l.set(
        "serve.codec_decode_us",
        mean_ns(&names, "serve.codec_decode") / 1e3,
        "",
    );
    l.set(
        "serve.store_put_us",
        mean_ns(&names, "serve.store_put") / 1e3,
        "into an empty store",
    );
    l.set(
        "serve.codec_encode_us",
        mean_ns(&names, "serve.codec_encode") / 1e3,
        "",
    );
    l.set(
        "serve.request_parse_us",
        mean_ns(&names, "serve.request_parse") / 1e3,
        "",
    );
    l.set(
        "serve.hit_ratio",
        ratio(t.hits as f64, t.points as f64),
        "store hits / points",
    );
    l.set(
        "serve.dedupe_ratio",
        ratio(t.waited as f64, t.points as f64),
        "in-flight waits / points",
    );
    l.set(
        "serve.executed",
        t.executed as f64,
        format!("{} cold rounds", fixed.rounds),
    );
    l.set("serve.failed", t.failed as f64, "");
    l.set("serve.client_retries", t.retries as f64, "");
    l.set(
        "bench.plan_expand_us",
        mean_ns(&names, "bench.plan_expand") / 1e3,
        "ExperimentPlan::points per grid",
    );
    l.set(
        "bench.record_encode_us",
        mean_ns(&names, "bench.record_encode") / 1e3,
        "record_json_line per record",
    );
    l.set(
        "tracing_overhead",
        traced_wall / untraced_wall,
        "traced session wall / untraced session wall",
    );
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed in one `BENCHMARK.json`
    /// section, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = &entry[..entry.find('"').expect("closing quote")];
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                (
                    name.to_string(),
                    unit[..unit.find('"').expect("closing quote")].to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        assert_eq!(listed("end_to_end"), owned(crate::report::END_TO_END));
    }
}
