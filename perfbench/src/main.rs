//! `mot3d-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! mot3d-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --mot3d <path> --baseline <BENCH_results.json> --out <dir>
//! ```
//!
//! `run.sh` builds the binaries and fills in the last three flags. With
//! `--trace 0` the run measures the workload's end-to-end metrics; with
//! `--trace 1` it is a separate, traced run that reports per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is 0 only when every output check passed. See `README.md` for
//! the workloads, metrics and their rationale.

mod gate;
mod layers;
mod observer;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use gate::Gate;
use mot3d_bench::ExperimentScale;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mot3d: PathBuf,
    baseline: PathBuf,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut mot3d = None;
    let mut baseline = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--mot3d" => mot3d = Some(PathBuf::from(value)),
            "--baseline" => baseline = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mot3d: mot3d.ok_or("--mot3d is required")?,
        baseline: baseline.ok_or("--baseline is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// The workload seed for `--seed n`: the experiments' default seed
/// offset by `n`, so `--seed 0` reproduces the committed
/// `BENCH_results.json` streams.
fn workload_seed(n: u64) -> u64 {
    ExperimentScale::default().seed.wrapping_add(n)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mot3d-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = workload_seed(args.seed);
    let scale = ExperimentScale {
        seed,
        ..ExperimentScale::default()
    };
    println!(
        "workload {} | seed {} (workload seed {seed:#x}) | {} s | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = if let Some(plans) = sweep::plans(&args.workload, scale) {
        let baseline = if seed == ExperimentScale::default().seed {
            match std::fs::read_to_string(&args.baseline) {
                Ok(text) => Some(text),
                Err(e) => {
                    eprintln!("mot3d-perfbench: {}: {e}", args.baseline.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            None
        };
        let mut gate = match Gate::new(baseline.as_deref()) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("mot3d-perfbench: {}: {e}", args.baseline.display());
                return ExitCode::from(2);
            }
        };
        for plan in &plans {
            let rule = if gate.has_committed(plan.name()) {
                "committed BENCH_results.json checksum"
            } else {
                "pass-to-pass identity"
            };
            println!("gate {}: {rule}", plan.name());
        }
        if args.trace {
            layers::sweep(&plans, &mut gate, &args.out, &args.workload, args.seed)
        } else {
            sweep::run(&plans, &mut gate, args.seconds)
        }
    } else if args.workload == serve::WORKLOAD {
        let opts = serve::Options {
            mot3d: args.mot3d.clone(),
            out: args.out.clone(),
            seed,
            seconds: args.seconds,
        };
        if args.trace {
            layers::serve(&opts, args.seed)
        } else {
            serve::run(&opts)
        }
    } else {
        eprintln!(
            "mot3d-perfbench: unknown workload {:?} (fig6_interconnects, power_states_dram, {})",
            args.workload,
            serve::WORKLOAD
        );
        return ExitCode::from(2);
    };
    let mut report = report;
    report.require_metrics(if args.trace {
        layers::PER_LAYER
    } else {
        report::END_TO_END
    });
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for e in &report.errors {
            eprintln!("mot3d-perfbench: {e}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload fig6_interconnects --seed 3 --seconds 20 --trace 1 \
             --mot3d m --baseline b --out o",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 20.0, true));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn seed_zero_is_the_committed_default() {
        assert_eq!(workload_seed(0), ExperimentScale::default().seed);
        assert_ne!(workload_seed(1), workload_seed(0));
    }
}
