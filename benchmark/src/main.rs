//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! benchmark suite [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out DIR] [W…]
//! benchmark compare DIR_A DIR_B
//! benchmark spec
//! ```

#![forbid(unsafe_code)]

use benchmark::workloads::Workload;
use benchmark::{compare, run, spec};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--smoke", "--traced"];

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                flags.push((a.clone(), "1".into()));
            } else if a.starts_with("--") {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                flags.push((a.clone(), v.clone()));
            } else {
                words.push(a.clone());
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad number {v:?}")),
            None => Ok(default),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

fn one_run(args: &Args) -> Result<ExitCode, String> {
    args.known(&["--workload", "--seed", "--seconds", "--trace", "--smoke", "--out"])?;
    let cfg = run::Config {
        workload: workload(args.get("--workload").ok_or("--workload is required")?)?,
        seed: args.num("--seed", 1100u64)?,
        seconds: args.num("--seconds", spec::RUN_SECONDS as f64)?,
        traced: args.num("--trace", 0u8)? != 0,
        smoke: args.get("--smoke").is_some(),
        out: args.get("--out").map(PathBuf::from),
    };
    let report = run::run(&cfg).map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    Ok(if report { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload (or those named), each run in a process of its own so
/// that `rss_peak_mb` and the allocator's state belong to one run.
fn suite(args: &Args) -> Result<ExitCode, String> {
    args.known(&["--seed", "--seconds", "--runs", "--traced", "--smoke", "--out"])?;
    let seed: u64 = args.num("--seed", 1100)?;
    let runs: u64 = args.num("--runs", 1)?;
    let out = args.get("--out").unwrap_or("benchmark/out");
    let picked: Vec<Workload> = if args.words.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.words.iter().map(|w| workload(w)).collect::<Result<_, _>>()?
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    // `runs` untraced runs on consecutive seeds, then one traced run:
    // its numbers carry no bound, so one is enough.
    let mut jobs: Vec<(&str, u64)> = (0..runs).map(|r| ("0", seed + r)).collect();
    if args.get("--traced").is_some() {
        jobs.push(("1", seed));
    }
    for w in picked {
        for &(trace, seed) in &jobs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace, "--out", out]);
            cmd.args(["--seed", &seed.to_string()]);
            if let Some(s) = args.get("--seconds") {
                cmd.args(["--seconds", s]);
            }
            if args.get("--smoke").is_some() {
                cmd.arg("--smoke");
            }
            let status =
                cmd.status().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("suite") => suite(&Args::parse(&argv[1..])?),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: benchmark compare DIR_A DIR_B".into()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_run(&Args::parse(argv)?),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&argv).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
