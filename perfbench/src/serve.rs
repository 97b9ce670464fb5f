//! The `serve_loopback` workload: a child `mot3d serve` on 127.0.0.1,
//! driven by this process over at most two client connections in a
//! closed loop.
//!
//! Two half-overlapping grids — every benchmark × every power state ×
//! both page policies, at tiny scale, one over the 200 ns and 63 ns
//! DRAM options and one over 63 ns and 42 ns — are submitted
//! concurrently, one per connection:
//!
//! * **cold rounds** use a fresh workload seed each round, so every
//!   point is new to the store: the server simulates the union once
//!   (the 63 ns half is deduped in flight) and writes it to the store;
//! * **warm submissions** resubmit the grids at the run's seed, which
//!   the set-up phase stored, so every point is a store read.
//!
//! Cold rounds and warm submissions go to two servers, and the run
//! alternates between them: each round is one cold round and then a
//! warm slice in which both connections resubmit in a closed loop.
//!
//! Every streamed byte is compared with the in-process `ExperimentPlan`
//! JSON-lines output for the same grid, every warm summary must report
//! `executed == 0` and `hits == points`, and every cold round must
//! execute its grid's union exactly once.

use crate::report::{peak_rss_mb, print_line, Report};
use crate::spans::Spans;
use crate::stats::{median, tail};
use mot3d_bench::plan::RunRecord;
use mot3d_bench::sink::JsonLinesSink;
use mot3d_mem::dram::DramKind;
use mot3d_serve::client;
use mot3d_serve::exec::PlanOutcome;
use mot3d_serve::protocol::PlanRequest;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The workload's name.
pub const WORKLOAD: &str = "serve_loopback";
/// Worker threads of the server (the development machine's
/// `available_parallelism`).
const SERVER_THREADS: usize = 2;
/// Server spawns timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// Share of each round spent on its cold round; its warm slice gets
/// the rest.
const COLD_SHARE: f64 = 0.3;
/// Extra attempts after a dropped connection.
const RETRIES: u32 = 2;

/// What the workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// The `mot3d` binary to serve with.
    pub mot3d: PathBuf,
    /// Directory for server stores, span files and counter records.
    pub out: PathBuf,
    /// Workload seed of the warm grids.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
}

/// The two half-overlapping grids at workload seed `seed`.
pub fn grids(seed: u64) -> [PlanRequest; 2] {
    let grid = |name: &str, dram: &str| PlanRequest {
        bench: Some("all".to_string()),
        power_state: Some("all".to_string()),
        dram: Some(dram.to_string()),
        page: Some("both".to_string()),
        scale: Some("tiny".to_string()),
        seed: Some(seed),
        ..PlanRequest::new(name)
    };
    [grid("serve-a", "200ns,63ns"), grid("serve-b", "63ns,42ns")]
}

/// The in-process JSON-lines stream for `request`, plus its records.
///
/// # Errors
///
/// Describes an invalid request or a failed plan.
pub fn offline(request: &PlanRequest) -> Result<(Vec<u8>, Vec<RunRecord>), String> {
    let plan = request.to_plan()?.threads(SERVER_THREADS);
    let mut bytes = Vec::new();
    let mut sink = JsonLinesSink::new(&mut bytes);
    let records = plan
        .run_with(&mut [&mut sink], |_, _, _| {})
        .map_err(|e| e.to_string())?;
    Ok((bytes, records))
}

/// A running `mot3d serve` child.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Its listen address.
    pub addr: String,
    /// Forwards the rest of the server's stderr, so a chatty server can
    /// never block on a full pipe.
    forward: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `mot3d serve` on a fresh port over `cache_dir` and waits
    /// for its `listening on` line.
    ///
    /// # Errors
    ///
    /// Fails when the child cannot start or exits before listening.
    pub fn spawn(mot3d: &Path, cache_dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(mot3d)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(SERVER_THREADS.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.wait();
                return Err(io::Error::other("mot3d serve exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                let forward = std::thread::spawn(move || {
                    for line in stderr.lines().map_while(Result::ok) {
                        eprintln!("{line}");
                    }
                });
                return Ok(Server {
                    child,
                    addr,
                    forward: Some(forward),
                });
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit.
    ///
    /// # Errors
    ///
    /// Fails when the shutdown is not acknowledged or the child exits
    /// with an error.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = client::shutdown(&self.addr);
        if acked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait()?;
        acked?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "mot3d serve exited with {status}"
            )))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still running here was abandoned by an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(forward) = self.forward.take() {
            let _ = forward.join();
        }
    }
}

/// Records when each streamed line arrives.
#[derive(Debug)]
struct Timed {
    bytes: Vec<u8>,
    lines: usize,
    first_record: Option<Instant>,
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        self.lines += newlines;
        // Line 1 is the plan header; line 2 is the first record.
        if self.lines >= 2 && self.first_record.is_none() {
            self.first_record = Some(Instant::now());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One finished submission.
#[derive(Debug)]
pub struct Submission {
    /// The streamed header and record lines.
    pub bytes: Vec<u8>,
    /// The summary counters.
    pub outcome: PlanOutcome,
    /// When the request was sent.
    pub sent: Instant,
    /// When the first record arrived.
    pub first_record: Instant,
    /// When the summary arrived.
    pub done: Instant,
    /// Connection attempts that were retried.
    pub retries: u32,
}

/// Submits `request` over a new connection, retrying a dropped one.
///
/// # Errors
///
/// The last attempt's error, or a server rejection.
pub fn submit(addr: &str, request: &PlanRequest) -> io::Result<Submission> {
    let mut retries = 0;
    loop {
        let sent = Instant::now();
        let mut out = Timed {
            bytes: Vec::with_capacity(64 * 1024),
            lines: 0,
            first_record: None,
        };
        match client::submit(addr, request, &mut out) {
            Ok(outcome) => {
                let done = Instant::now();
                return Ok(Submission {
                    bytes: out.bytes,
                    outcome,
                    sent,
                    first_record: out.first_record.unwrap_or(done),
                    done,
                    retries,
                });
            }
            Err(e) if e.kind() != io::ErrorKind::InvalidInput && retries < RETRIES => {
                eprintln!("submit {}: {e}; retrying", request.name);
                retries += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Submits both grids concurrently, one connection each.
fn submit_pair(addr: &str, pair: &[PlanRequest; 2]) -> [io::Result<Submission>; 2] {
    std::thread::scope(|scope| {
        let b = scope.spawn(|| submit(addr, &pair[1]));
        let a = submit(addr, &pair[0]);
        [a, b.join().expect("client thread does not panic")]
    })
}

/// Summary counters of a set of submissions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Σ points.
    pub points: u64,
    /// Σ store hits.
    pub hits: u64,
    /// Σ in-flight dedupes.
    pub waited: u64,
    /// Σ executions.
    pub executed: u64,
    /// Σ failed points.
    pub failed: u64,
    /// Σ retried connections.
    pub retries: u64,
}

impl Totals {
    fn add(&mut self, s: &Submission) {
        self.points += s.outcome.points;
        self.hits += s.outcome.hits;
        self.waited += s.outcome.waited;
        self.executed += s.outcome.executed;
        self.failed += s.outcome.failed;
        self.retries += u64::from(s.retries);
    }
}

/// Expected streams for one seed's pair of grids.
pub struct Expected {
    /// The two JSON-lines streams.
    pub bytes: [Vec<u8>; 2],
    /// Points per grid.
    pub points: [u64; 2],
    /// Distinct points across both grids.
    pub union: u64,
    /// Σ simulated instructions over the distinct points.
    pub instructions: u64,
}

/// Computes [`Expected`] in process.
///
/// # Errors
///
/// Describes a failed offline run.
pub fn expected(pair: &[PlanRequest; 2]) -> Result<Expected, String> {
    let (a, ra) = offline(&pair[0])?;
    let (b, rb) = offline(&pair[1])?;
    // The second grid's 63 ns half repeats points of the first.
    let novel: Vec<&RunRecord> = rb
        .iter()
        .filter(|r| r.point.config.dram != DramKind::WideIo)
        .collect();
    Ok(Expected {
        bytes: [a, b],
        points: [ra.len() as u64, rb.len() as u64],
        union: (ra.len() + novel.len()) as u64,
        instructions: ra.iter().chain(novel).map(|r| r.metrics.instructions).sum(),
    })
}

/// Checks one submission against its expected stream; `warm` adds the
/// cache-hit rule.
pub fn check(
    report: &mut Report,
    what: &str,
    s: &Submission,
    want: &[u8],
    points: u64,
    warm: bool,
) {
    if s.bytes != want {
        report.fail(
            points,
            format!("{what}: stream differs from the offline JSON-lines output"),
        );
    }
    if s.outcome.points != points || s.outcome.failed != 0 {
        report.fail(
            points,
            format!("{what}: summary {:?}, want {points} points", s.outcome),
        );
    }
    if warm && (s.outcome.executed != 0 || s.outcome.hits != points) {
        report.fail(
            points,
            format!("{what}: warm summary {:?} is not all store hits", s.outcome),
        );
    }
}

/// Pre-fills a store with the warm grids. Returns the store directory
/// and the expected warm streams.
///
/// # Errors
///
/// Describes any failure; the benchmark cannot run without the store.
pub fn prefill(opts: &Options, report: &mut Report) -> Result<(PathBuf, Expected), String> {
    let dir = opts.out.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let pair = grids(opts.seed);
    let want = expected(&pair)?;
    let server = Server::spawn(&opts.mot3d, &store).map_err(|e| e.to_string())?;
    for (i, result) in submit_pair(&server.addr, &pair).into_iter().enumerate() {
        let s = result.map_err(|e| format!("pre-fill submission: {e}"))?;
        check(
            report,
            "pre-fill",
            &s,
            &want.bytes[i],
            want.points[i],
            false,
        );
    }
    server
        .shutdown()
        .map_err(|e| format!("pre-fill server: {e}"))?;
    Ok((dir, want))
}

/// Times `SETUP_REPS` server starts on `store`, each from spawn to the
/// acknowledgement of its first accepted connection (a shutdown
/// request), and returns their seconds.
///
/// # Errors
///
/// Describes a server that failed to start or stop.
pub fn time_setup(mot3d: &Path, store: &Path) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let server = Server::spawn(mot3d, store).map_err(|e| e.to_string())?;
        let addr = server.addr.clone();
        let mut child = server;
        let acked = client::shutdown(&addr);
        out.push(start.elapsed().as_secs_f64());
        acked.map_err(|e| format!("setup shutdown: {e}"))?;
        let status = child.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("mot3d serve exited with {status}"));
        }
    }
    Ok(out)
}

/// Cold-round seeds: distinct from the warm seed and from each other.
pub fn cold_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add(0x1_0000 * (round as u64 + 1))
}

/// Runs the workload for about `--seconds` and reports its end-to-end
/// metrics.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    match measure(opts, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(1, e),
    }
    report
}

/// Counters and samples of one measured serve session.
#[derive(Debug, Default)]
pub struct Session {
    /// Seconds per `setup_s` sample.
    pub setup: Vec<f64>,
    /// Cold rounds: (wall seconds, points streamed).
    pub cold: Vec<(f64, u64)>,
    /// Σ simulated instructions of the cold rounds' distinct points.
    pub cold_instructions: u64,
    /// Warm round trips, seconds.
    pub submit: Vec<f64>,
    /// Warm time to first record, seconds.
    pub first_record: Vec<f64>,
    /// Warm points streamed per second of the warm slices.
    pub warm_rate: f64,
    /// Summary totals of every measured submission.
    pub totals: Totals,
    /// VmHWM of the server that served the cold rounds, MB.
    pub cold_rss_mb: f64,
    /// VmHWM of the server that served the warm slices, MB.
    pub warm_rss_mb: f64,
    /// The pre-filled store directory.
    pub store: PathBuf,
}

/// Fixed amounts of work for the traced run (which must repeat its
/// counters exactly) instead of a time budget.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    /// Rounds, each one cold round and one warm slice.
    pub rounds: usize,
    /// Warm submissions per connection in each warm slice.
    pub warm_per_round: usize,
}

/// One warm slice: each connection resubmits its grid in a closed loop
/// until `slice` has passed (or, with `fixed`, `warm_per_round` times).
/// Returns the slice's wall seconds, up to its last summary, and each
/// connection's submissions; a connection stops at its first error.
fn warm_slice(
    addr: &str,
    pair: &[PlanRequest; 2],
    slice: Duration,
    fixed: Option<Fixed>,
) -> (f64, Vec<Vec<io::Result<Submission>>>) {
    let start = Instant::now();
    let subs: Vec<Vec<io::Result<Submission>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pair
            .iter()
            .map(|request| {
                scope.spawn(move || {
                    let mut subs = Vec::new();
                    loop {
                        let more = match fixed {
                            Some(f) => subs.len() < f.warm_per_round,
                            None => start.elapsed() < slice,
                        };
                        if !more {
                            break;
                        }
                        let sub = submit(addr, request);
                        let failed = sub.is_err();
                        subs.push(sub);
                        if failed {
                            break;
                        }
                    }
                    subs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), subs)
}

/// The whole session: set-up, rounds of cold and warm work, verification.
/// `fixed` replaces the time budget with fixed work (traced runs).
pub fn session(
    opts: &Options,
    report: &mut Report,
    fixed: Option<Fixed>,
    spans: Option<&mut Spans>,
) -> Result<Session, String> {
    let mut s = Session::default();
    let (dir, want) = prefill(opts, report)?;
    s.store = dir.join("store");
    s.setup = time_setup(&opts.mot3d, &s.store)?;
    let pair = grids(opts.seed);

    // Two servers: cold rounds run on one over an empty store of its
    // own, so its heap holds simulation state that must not blur the
    // warm server's footprint; warm submissions run on the other, over
    // the pre-filled store. The run alternates between them in rounds
    // (a cold round, then a warm slice COLD_SHARE sized), so both
    // phases sample the whole run rather than one stretch of it.
    let cold_store = dir.join("cold");
    let cold_server = Server::spawn(&opts.mot3d, &cold_store).map_err(|e| e.to_string())?;
    let warm_server = Server::spawn(&opts.mot3d, &s.store).map_err(|e| e.to_string())?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut cold_results = Vec::new();
    let mut warm: [Vec<Submission>; 2] = [Vec::new(), Vec::new()];
    let mut warm_wall = 0.0;
    loop {
        let round = cold_results.len();
        let done = match fixed {
            Some(f) => round >= f.rounds,
            None => round > 0 && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        let cold_pair = grids(cold_seed(opts.seed, round));
        let cold_start = Instant::now();
        let [a, b] = submit_pair(&cold_server.addr, &cold_pair);
        let wall = cold_start.elapsed().as_secs_f64();
        let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
        s.totals.add(&a);
        s.totals.add(&b);
        let streamed = a.outcome.points + b.outcome.points;
        report.attempted += streamed;
        s.cold.push((wall, streamed));
        cold_results.push((cold_pair, a, b));

        let slice = Duration::from_secs_f64(wall * (1.0 - COLD_SHARE) / COLD_SHARE);
        let (secs, subs) = warm_slice(&warm_server.addr, &pair, slice, fixed);
        warm_wall += secs;
        for (i, subs) in subs.into_iter().enumerate() {
            for sub in subs {
                match sub {
                    Ok(sub) => warm[i].push(sub),
                    Err(e) => {
                        report.attempted += want.points[i];
                        report.fail(want.points[i], format!("warm submission: {e}"));
                    }
                }
            }
        }
    }
    s.cold_rss_mb = peak_rss_mb(&cold_server.pid().to_string()).unwrap_or(f64::NAN);
    s.warm_rss_mb = peak_rss_mb(&warm_server.pid().to_string()).unwrap_or(f64::NAN);
    for server in [cold_server, warm_server] {
        server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
    }

    // Verification (outside the measured phases).
    let mut streamed = 0;
    for (i, subs) in warm.iter().enumerate() {
        for sub in subs {
            report.attempted += sub.outcome.points;
            check(report, "warm", sub, &want.bytes[i], want.points[i], true);
            s.totals.add(sub);
            s.submit
                .push(sub.done.duration_since(sub.sent).as_secs_f64());
            s.first_record
                .push(sub.first_record.duration_since(sub.sent).as_secs_f64());
            streamed += sub.outcome.points;
        }
    }
    s.warm_rate = streamed as f64 / warm_wall;
    let mut spans = spans;
    for (k, (cold_pair, a, b)) in cold_results.iter().enumerate() {
        let want = match spans.as_deref_mut() {
            Some(sp) => sp.time("bench.offline_expected", k as u64, |_| expected(cold_pair))?,
            None => expected(cold_pair)?,
        };
        check(report, "cold", a, &want.bytes[0], want.points[0], false);
        check(report, "cold", b, &want.bytes[1], want.points[1], false);
        // Exactly once: the shared half is either awaited in flight or,
        // if its owner already finished, read back from the store.
        let executed = a.outcome.executed + b.outcome.executed;
        let reused = a.outcome.hits + a.outcome.waited + b.outcome.hits + b.outcome.waited;
        if executed != want.union || executed + reused != want.points[0] + want.points[1] {
            report.fail(
                want.union,
                format!(
                    "cold round {k}: executed {executed} and reused {reused} points, \
                     want {} distinct of {}",
                    want.union,
                    want.points[0] + want.points[1]
                ),
            );
        }
        s.cold_instructions += want.instructions;
    }
    Ok(s)
}

fn measure(opts: &Options, report: &mut Report) -> Result<(), String> {
    let s = session(opts, report, None, None)?;
    let _ = std::fs::remove_dir_all(s.store.parent().unwrap_or(&s.store));
    if s.submit.is_empty() || s.cold.is_empty() {
        return Err("no completed submissions to report".to_string());
    }
    let cold_wall: f64 = s.cold.iter().map(|c| c.0).sum();
    let cold_walls: Vec<f64> = s.cold.iter().map(|c| c.0).collect();
    let cold_rates: Vec<f64> = s.cold.iter().map(|c| c.1 as f64 / c.0).collect();
    let submit_tail = tail(&s.submit).ok_or_else(|| {
        format!(
            "only {} warm submissions: too few for a tail with 10 beyond it",
            s.submit.len()
        )
    })?;
    println!(
        "{} cold rounds, {} warm submissions over 2 connections, server on {SERVER_THREADS} threads",
        s.cold.len(),
        s.submit.len()
    );
    report.metric(
        "setup_s",
        "s",
        median(&s.setup),
        &format!("spawn on pre-filled store to first accepted connection, median of {SETUP_REPS}"),
    );
    report.metric(
        "sim_minstr_per_s",
        "Minstr/s",
        s.cold_instructions as f64 / cold_wall / 1e6,
        "cold rounds: distinct points' instructions / wall",
    );
    report.metric(
        "warm_points_per_s",
        "1/s",
        s.warm_rate,
        "warm points streamed / warm slices' wall",
    );
    report.metric(
        "latency_ms_p50",
        "ms",
        median(&s.submit) * 1e3,
        "submit_ms_p50: warm round trip",
    );
    report.metric(
        "latency_ms_tail",
        "ms",
        submit_tail.value * 1e3,
        &format!("submit_ms_tail: {}", submit_tail.describe()),
    );
    report.metric(
        "wall_s_2t",
        "s",
        median(&cold_walls),
        "one cold round (both grids), server on 2 threads",
    );
    report.metric(
        "first_record_ms_p50",
        "ms",
        median(&s.first_record) * 1e3,
        "warm request sent to first record",
    );
    report.metric(
        "peak_rss_mb",
        "MB",
        s.warm_rss_mb,
        "VmHWM of the server that served the warm slices",
    );
    print_line(
        "cold_server_rss_mb",
        "MB",
        s.cold_rss_mb,
        "(not in JSON) VmHWM of the server that served the cold rounds",
    );
    print_line(
        "cold_points_per_s",
        "1/s",
        median(&cold_rates),
        "(not in JSON) points streamed per cold round second",
    );
    print_line(
        "error_rate",
        "ratio",
        report.error_rate(),
        "(not in JSON) failed / attempted",
    );
    Ok(())
}
