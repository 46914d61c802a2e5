//! Command line of both binaries.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::runner::{self, RunOpts};
use crate::suite::{self, SuiteOpts};

/// The seed of the whole set when none is given: the paper's date.
const DEFAULT_SEED: u64 = 20_080_612;

const USAGE: &str = "\
usage: bgpbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
       bgpbench [--seed N] [--smoke] [--selfcheck] [--out DIR]

The first form is one run of one workload; its last line of output is the
result as JSON. The second form runs every workload, each run a fresh
child process: five untraced runs and one traced run per workload.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad(&v));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            "--selfcheck" => parsed.selfcheck = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload.is_none() && (parsed.seconds.is_some() || parsed.trace) {
        // The whole set has one protocol, so that two of its results compare.
        return Err("--seconds and --trace need --workload".into());
    }
    Ok(parsed)
}

/// Runs what the arguments ask for. Exit code 0: everything ran and every
/// check held; 1: an operation or a check failed; 2: the arguments or
/// the environment were wrong.
pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) => runner::run(&RunOpts {
            workload,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(if args.smoke { 0.05 } else { 30.0 }),
            trace: args.trace,
            smoke: args.smoke,
            out_dir: args.out_dir,
        })
        .map(|result| {
            println!("{}", result.to_json().to_json());
            result.correct
        }),
        None => suite::run(&SuiteOpts {
            seed: args.seed,
            smoke: args.smoke,
            selfcheck: args.selfcheck,
            out_dir: args.out_dir,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("bgpbench: {why}");
            ExitCode::from(2)
        }
    }
}
