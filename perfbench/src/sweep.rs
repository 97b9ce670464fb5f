//! The two sweep workloads, measured end to end.
//!
//! A run spends `--seconds` on rounds. Each round sets up a fresh
//! [`ClusterPool`] (timed for `setup_s`), then passes over the
//! workload's grid:
//!
//! * a **1-thread pass** through that warm pool, timing each point's
//!   `run_spec` call (point latency and simulated-instruction
//!   throughput);
//! * [`PARALLEL_PASSES`] **2-thread passes** through
//!   `ExperimentPlan::run_with`, the path
//!   `mot3d fig6 --threads 2` takes (grid wall time, time to the first
//!   record).
//!
//! A timing repeated over passes is reported as its fastest repeat: on
//! a shared host, contention from other tenants comes and goes in
//! stretches of tens of seconds and only ever adds time, so the fastest
//! repeat varies far less from run to run than the median does (see
//! `README.md`, Noise). `setup_s` is the median of the rounds' set-ups.
//! Every pass's record stream goes through the checksum [`Gate`].

use crate::gate::{Checksum, ChecksumSink, Gate};
use crate::report::{peak_rss_mb, print_line, Report};
use crate::stats::{fastest, median, tail};
use mot3d_bench::plan::{ExperimentPlan, RunPoint, RunRecord};
use mot3d_bench::ExperimentScale;
use mot3d_mem::dram::DramKind;
use mot3d_sim::ClusterPool;
use std::time::{Duration, Instant};

/// Worker threads of the parallel pass (the development machine's
/// `available_parallelism`; fixed so runs on other machines compare).
pub const POOL_THREADS: usize = 2;
/// Fewest measured rounds, each with one set-up; `setup_s` is the
/// median of the rounds' set-ups.
const MIN_SETUPS: usize = 3;
/// 2-thread passes per round. A pass's wall time needs both workers
/// clear of contention at once, so its fastest repeat needs more
/// samples than a single point's does.
const PARALLEL_PASSES: usize = 2;

/// The plans a sweep workload runs, in order.
pub fn plans(workload: &str, scale: ExperimentScale) -> Option<Vec<ExperimentPlan>> {
    match workload {
        "fig6_interconnects" => Some(vec![ExperimentPlan::fig6(scale)]),
        "power_states_dram" => Some(vec![
            ExperimentPlan::fig7(scale),
            ExperimentPlan::fig8_at(scale, DramKind::Weis3d),
            ExperimentPlan::open_page_at(scale, DramKind::OffChipDdr3),
        ]),
        _ => None,
    }
}

/// Every point of `plans`, tagged with its plan's position.
pub fn grid(plans: &[ExperimentPlan]) -> Vec<(usize, RunPoint)> {
    plans
        .iter()
        .enumerate()
        .flat_map(|(i, plan)| plan.points().into_iter().map(move |p| (i, p)))
        .collect()
}

/// The first point of each distinct configuration in a grid.
pub fn distinct_configs(points: &[(usize, RunPoint)]) -> Vec<RunPoint> {
    let mut out: Vec<RunPoint> = Vec::new();
    for (_, p) in points {
        if !out.iter().any(|q| q.config == p.config) {
            out.push(p.clone());
        }
    }
    out
}

/// The set-up phase: a fresh pool that builds one cluster per distinct
/// configuration by running that configuration's first point once, so
/// the measured passes start with every cluster built, its buffers grown
/// and its memory touched (results unchecked; the passes are gated).
pub fn set_up(configs: &[RunPoint], report: &mut Report) -> ClusterPool {
    let mut pool = ClusterPool::new();
    for p in configs {
        if let Err(e) = pool.run_spec(&p.spec, &p.config) {
            report.fail(1, format!("set-up run of {}: {e}", p.label()));
        }
    }
    pool
}

/// Per-pass results of the 1-thread passes.
#[derive(Debug, Default)]
struct SerialSamples {
    /// `times[k]` = host seconds of point `k`, one entry per pass.
    times: Vec<Vec<f64>>,
    /// Simulated instructions of point `k`.
    instructions: Vec<u64>,
}

fn serial_pass(
    pool: &mut ClusterPool,
    plans: &[ExperimentPlan],
    points: &[(usize, RunPoint)],
    gate: &mut Gate,
    samples: &mut SerialSamples,
    report: &mut Report,
) {
    let mut sums = vec![Checksum::default(); plans.len()];
    for (k, (plan, p)) in points.iter().enumerate() {
        report.attempted += 1;
        let start = Instant::now();
        let result = pool.run_spec(&p.spec, &p.config);
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(m) => {
                samples.times[k].push(secs);
                samples.instructions[k] = m.instructions;
                sums[*plan].push(&RunRecord::new(p.clone(), m));
            }
            Err(e) => report.fail(1, format!("{}: {e}", p.label())),
        }
    }
    check_sums(plans, sums, gate, report);
}

fn check_sums(plans: &[ExperimentPlan], sums: Vec<Checksum>, gate: &mut Gate, report: &mut Report) {
    for (plan, sum) in plans.iter().zip(sums) {
        if let Err(e) = gate.check(plan.name(), sum) {
            report.fail(plan.len() as u64, e);
        }
    }
}

/// One 2-thread pass: its wall seconds, and each plan's seconds from
/// `run_with` to its first record (pushed onto `firsts[plan]`).
fn parallel_pass(
    plans: &[ExperimentPlan],
    gate: &mut Gate,
    firsts: &mut [Vec<f64>],
    report: &mut Report,
) -> f64 {
    let start = Instant::now();
    let mut sums = Vec::with_capacity(plans.len());
    for (plan, firsts) in plans.iter().zip(firsts.iter_mut()) {
        report.attempted += plan.len() as u64;
        let mut sink = ChecksumSink::default();
        let plan = plan.clone().threads(POOL_THREADS);
        let plan_start = Instant::now();
        if let Err(e) = plan.run_with(&mut [&mut sink], |_, _, _| {}) {
            report.fail(plan.len() as u64, format!("{}: {e}", plan.name()));
        }
        if let Some(t) = sink.first_record {
            firsts.push(t.duration_since(plan_start).as_secs_f64());
        }
        sums.push(sink.sum);
    }
    let wall = start.elapsed().as_secs_f64();
    check_sums(plans, sums, gate, report);
    wall
}

/// Runs a sweep workload for about `seconds` and reports its
/// end-to-end metrics.
pub fn run(plans: &[ExperimentPlan], gate: &mut Gate, seconds: f64) -> Report {
    let mut report = Report::default();
    let points = grid(plans);
    let configs = distinct_configs(&points);

    let mut setup = Vec::new();
    let mut serial = SerialSamples {
        times: vec![Vec::new(); points.len()],
        instructions: vec![0; points.len()],
    };
    // Rounds until the budget is spent, each a set-up of a fresh pool
    // (one `setup_s` sample), one 1-thread pass through it and
    // `PARALLEL_PASSES` 2-thread passes, so every metric samples the
    // whole run rather than one stretch of it. Another round starts
    // only if it would end within half a round of the budget, so
    // counts are stable run to run.
    let mut walls: Vec<f64> = Vec::new();
    let mut firsts: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        let round = Instant::now();
        let mut pool = set_up(&configs, &mut report);
        let setup_secs = round.elapsed().as_secs_f64();
        setup.push(setup_secs);
        let pass = Instant::now();
        serial_pass(&mut pool, plans, &points, gate, &mut serial, &mut report);
        let serial_secs = pass.elapsed().as_secs_f64();
        // Freed first, so `peak_rss_mb` never counts it on top of the
        // 2-thread passes' own pools.
        drop(pool);
        let before = walls.len();
        for _ in 0..PARALLEL_PASSES {
            walls.push(parallel_pass(plans, gate, &mut firsts, &mut report));
        }
        println!(
            "round {}: set-up {setup_secs:.3} s, 1-thread pass {serial_secs:.3} s, \
             {POOL_THREADS}-thread passes {:.3?} s",
            setup.len(),
            &walls[before..]
        );
        if setup.len() >= MIN_SETUPS && start.elapsed() + round.elapsed() / 2 > budget {
            break;
        }
    }

    let per_point: Vec<f64> = serial
        .times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| fastest(t))
        .collect();
    if per_point.len() != points.len() || firsts.iter().any(Vec::is_empty) {
        report.fail(0, "some grid points never completed".to_string());
        return report;
    }
    let busy: f64 = per_point.iter().sum();
    let instructions: u64 = serial.instructions.iter().sum();
    let point_tail = tail(&per_point).expect("every sweep grid has at least 20 points");

    println!(
        "{} points x {} rounds (one 1-thread pass and {PARALLEL_PASSES} on {POOL_THREADS} threads each), \
         {} distinct configs",
        points.len(),
        setup.len(),
        configs.len()
    );
    report.metric(
        "setup_s",
        "s",
        median(&setup),
        &format!(
            "pool of {} clusters, each built by its first point, median of {}",
            configs.len(),
            setup.len()
        ),
    );
    report.metric(
        "sim_minstr_per_s",
        "Minstr/s",
        instructions as f64 / busy / 1e6,
        "1 thread, warm pool, fastest repeat per point",
    );
    report.metric(
        "warm_points_per_s",
        "1/s",
        points.len() as f64 / busy,
        "1 thread, warm pool",
    );
    report.metric(
        "latency_ms_p50",
        "ms",
        median(&per_point) * 1e3,
        "point_ms_p50: median over points of each one's fastest repeat, 1 thread",
    );
    report.metric(
        "latency_ms_tail",
        "ms",
        point_tail.value * 1e3,
        &format!("point_ms_tail: {}", point_tail.describe()),
    );
    report.metric(
        "wall_s_2t",
        "s",
        fastest(&walls),
        &format!(
            "grid pass on {POOL_THREADS} threads, fastest of {}",
            walls.len()
        ),
    );
    report.metric(
        "first_record_ms_p50",
        "ms",
        median(&firsts.iter().map(|f| fastest(f)).collect::<Vec<_>>()) * 1e3,
        &format!(
            "2-thread run_with start to its first record, median over {} plan(s) \
             of each one's fastest of {}",
            plans.len(),
            walls.len()
        ),
    );
    report.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb("self").unwrap_or(f64::NAN),
        "VmHWM of the benchmark process",
    );
    print_line(
        "cold_points_per_s",
        "1/s",
        points.len() as f64 / fastest(&walls),
        "(not in JSON) grid points / wall_s_2t",
    );
    print_line(
        "error_rate",
        "ratio",
        report.error_rate(),
        "(not in JSON) failed / attempted",
    );
    report
}
