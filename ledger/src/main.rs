//! `ledger` — the repo's benchmark: four workloads, six end-to-end
//! metrics and a per-layer ledger, measured strictly from outside. See
//! `README.md` in this directory for the protocol and the glossary.
//!
//! ```text
//! ledger --seed N [--smoke] [--only W] [--reps N]     every workload, every metric
//! ledger --workload W --seed N --seconds S --trace T  one driver run (BENCHMARK.json)
//! ledger --compare A.json B.json                      verdict per (workload, metric)
//! ledger --emit-benchmark-json                        BENCHMARK.json from the tables
//! ledger --glossary                                   the metric tables, as markdown
//! ```

mod adapter;
mod json;
mod layers;
mod probes;
mod procfs;
mod report;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use adapter::{Workload, WORKLOADS};

/// Parsed command line. Flags take one value; the rest are switches.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    pub seed: u64,
    /// `--workload` / `--only`: restrict the run to one workload.
    pub workload: Option<String>,
    /// `--seconds`: repeat until this much timed-window time is measured.
    pub seconds: Option<f64>,
    /// `--trace 0|1`: driver mode, print the contract's result line.
    pub trace: Option<bool>,
    pub reps: Option<usize>,
    pub smoke: bool,
    pub compare: Option<(String, String)>,
    pub emit_benchmark_json: bool,
    pub glossary: bool,
    /// Internal: run one repetition in this process.
    pub child: bool,
    pub traced: bool,
    pub spans_out: Option<String>,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 2022,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => a.seed = parse(&value("a seed")?)?,
            "--workload" | "--only" => a.workload = Some(value("a workload name")?),
            "--seconds" => a.seconds = Some(parse(&value("a duration")?)?),
            "--trace" => a.trace = Some(parse::<u8>(&value("0 or 1")?)? != 0),
            "--reps" => a.reps = Some(parse(&value("a count")?)?),
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--emit-benchmark-json" => a.emit_benchmark_json = true,
            "--glossary" => a.glossary = true,
            "--child" => a.child = true,
            "--traced" => a.traced = true,
            "--spans-out" => a.spans_out = Some(value("a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &a.workload {
        if adapter::workload(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    if a.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse `{s}`"))
}

/// `(warm-up, timed)` rounds of `w`; `--smoke` divides both by four.
pub fn run_length(w: &Workload, smoke: bool) -> (usize, usize) {
    if smoke {
        ((w.warmup / 4).max(1), (w.rounds / 4).max(1))
    } else {
        (w.warmup, w.rounds)
    }
}

/// One repetition in this process; prints one JSON line.
fn child(args: &Args, clock: Instant) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let w = adapter::workload(name).expect("validated by parse_args");
    let (warmup, rounds) = run_length(w, args.smoke);
    let (run, ctx) = adapter::run_rep(w, args.seed, warmup, rounds, args.traced, clock);
    // Before the probes allocate anything of their own.
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut rep = report::Rep {
        seed: args.seed,
        e2e: Some(layers::end_to_end(&run, peak_rss_mb)),
        round_ms: layers::round_ms(&run),
        record_fnv: format!("{:016x}", run.record_fnv),
        attempted: rounds as u64,
        failures: layers::failed_ops(&run, w, !args.smoke),
        threads: run.threads,
        kernel_tier: run.kernel_tier.clone(),
        layers: Vec::new(),
        trace_error: None,
    };
    if args.traced {
        let tree = layers::build_tree(&run);
        rep.trace_error = layers::validate_tree(&run, &tree)
            .and_then(|()| layers::cross_check_counts(&run, &tree))
            .err();
        if let Some(path) = &args.spans_out {
            std::fs::write(path, tree.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        }
        let budget = if args.smoke {
            probes::Budget::SMOKE
        } else {
            probes::Budget::FULL
        };
        let probes = adapter::run_probes(&ctx, budget);
        rep.layers = layers::per_layer(&run, &tree, &probes)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
    }
    println!("{}", json::compact(&rep.to_json()));
    Ok(())
}

fn main() -> ExitCode {
    let clock = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args, clock).map(|()| true)
    } else if let Some((a, b)) = &args.compare {
        report::compare_files(a, b)
    } else if args.emit_benchmark_json {
        println!("{}", json::pretty(&report::benchmark_json()));
        Ok(true)
    } else if args.glossary {
        print!("{}", layers::glossary());
        Ok(true)
    } else {
        report::run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload churn_wire --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("churn_wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), Some(true)));
        assert_eq!(args("--trace 0").unwrap().trace, Some(false));
    }

    #[test]
    fn full_run_switches_parse_and_default_to_seed_2022() {
        let a = args("--smoke --only mlp_ring --reps 3").unwrap();
        assert!(a.smoke);
        assert_eq!(a.workload.as_deref(), Some("mlp_ring"));
        assert_eq!((a.reps, a.seed), (Some(3), 2022));
        let c = args("--compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--reps 0").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--compare a.json").is_err());
        assert!(args("--frobnicate").is_err());
    }

    #[test]
    fn smoke_quarters_the_run_but_keeps_one_round() {
        let mlp = adapter::workload("mlp_ring").unwrap();
        assert_eq!(run_length(mlp, false), (1, 3));
        assert_eq!(run_length(mlp, true), (1, 1));
        let lazy = adapter::workload("lazy_cohort").unwrap();
        assert_eq!(run_length(lazy, true), (37, 175));
    }
}
