//! The parent process: runs repetitions as child processes, one at a
//! time, folds them into per-workload results, checks correctness, prints
//! and writes the report — and compares two reports.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::adapter::{Workload, WORKLOADS};
use crate::json::{self, num, obj, text, Value};
use crate::layers::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::{procfs, run_length, Args};

/// Untraced repetitions per workload feeding the end-to-end medians; the
/// traced repetition comes on top (so `--smoke` makes two in all).
const REPS: usize = 7;
const SMOKE_REPS: usize = 1;
/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 18;
/// A child that runs longer than this is killed and all its rounds fail.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
/// Where a full run leaves its report and span files.
const OUT_DIR: &str = "results/ledger";

/// What one child process reported (or that it did not).
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// The experiment seed the repetition ran.
    pub seed: u64,
    /// The six end-to-end values, in `END_TO_END` order; `None` when the
    /// child crashed or timed out.
    pub e2e: Option<[f64; 6]>,
    pub round_ms: Vec<f64>,
    pub record_fnv: String,
    pub attempted: u64,
    /// One reason per failed round.
    pub failures: Vec<String>,
    pub threads: usize,
    pub kernel_tier: String,
    /// Per-layer ledger of a traced repetition.
    pub layers: Vec<(String, f64)>,
    /// Why the span tree of a traced repetition is invalid, if it is.
    pub trace_error: Option<String>,
}

impl Rep {
    /// A child that produced no result: every round it owed has failed.
    fn lost(seed: u64, rounds: usize, why: &str) -> Rep {
        Rep {
            seed,
            e2e: None,
            round_ms: Vec::new(),
            record_fnv: String::new(),
            attempted: rounds as u64,
            failures: (0..rounds).map(|_| why.to_string()).collect(),
            threads: 0,
            kernel_tier: String::new(),
            layers: Vec::new(),
            trace_error: None,
        }
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("seed", Value::U64(self.seed)),
            (
                "e2e",
                self.e2e.map_or(Value::Null, |e| {
                    Value::Seq(e.iter().map(|&x| num(x)).collect())
                }),
            ),
            (
                "round_ms",
                Value::Seq(self.round_ms.iter().map(|&x| num(x)).collect()),
            ),
            ("record_fnv", text(self.record_fnv.clone())),
            ("attempted", Value::U64(self.attempted)),
            (
                "failures",
                Value::Seq(self.failures.iter().map(|f| text(f.clone())).collect()),
            ),
            ("threads", Value::U64(self.threads as u64)),
            ("kernel_tier", text(self.kernel_tier.clone())),
            (
                "layers",
                Value::Map(
                    self.layers
                        .iter()
                        .map(|(n, v)| (n.clone(), num(*v)))
                        .collect(),
                ),
            ),
            (
                "trace_error",
                self.trace_error.clone().map_or(Value::Null, text),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Rep> {
        let floats =
            |v: &Value| -> Option<Vec<f64>> { json::items(v).iter().map(json::as_f64).collect() };
        let e2e = match json::get(v, "e2e")? {
            Value::Null => None,
            seq => Some(floats(seq)?.try_into().ok()?),
        };
        let strings = |key: &str| -> Option<Vec<String>> {
            json::items(json::get(v, key)?)
                .iter()
                .map(|s| match s {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        };
        Some(Rep {
            seed: match json::get(v, "seed")? {
                Value::U64(s) => *s,
                _ => return None,
            },
            e2e,
            round_ms: floats(json::get(v, "round_ms")?)?,
            record_fnv: json::get_str(v, "record_fnv")?.to_string(),
            attempted: json::get_f64(v, "attempted")? as u64,
            failures: strings("failures")?,
            threads: json::get_f64(v, "threads")? as usize,
            kernel_tier: json::get_str(v, "kernel_tier")?.to_string(),
            layers: json::entries(json::get(v, "layers")?)
                .iter()
                .map(|(n, x)| Some((n.clone(), json::as_f64(x)?)))
                .collect::<Option<_>>()?,
            trace_error: json::get_str(v, "trace_error").map(String::from),
        })
    }
}

/// Run one repetition of `w` as a child process and wait for it. A child
/// that crashes, hangs or prints no result is charged with all its rounds.
fn spawn_rep(w: &Workload, seed: u64, smoke: bool, spans_out: Option<&Path>) -> Rep {
    let (_, rounds) = run_length(w, smoke);
    let lost = |why: &str| Rep::lost(seed, rounds, why);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return lost(&format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name, "--seed"])
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = spans_out {
        cmd.arg("--traced").arg("--spans-out").arg(path);
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return lost(&format!("child did not start: {e}")),
    };
    // Drain stdout on the side so a chatty child cannot block on the pipe.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                // Kill, then reap, so no process outlives the benchmark.
                let _ = child.kill();
                let _ = child.wait();
                break Err("child timed out".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for the child failed: {e}")),
        }
    };
    let out = reader
        .join()
        .expect("stdout reader does not panic")
        .unwrap_or_default();
    let status = match status {
        Ok(s) => s,
        Err(why) => return lost(&why),
    };
    if !status.success() {
        return lost(&format!("child exited with {status}"));
    }
    out.lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| Rep::from_json(&v))
        .unwrap_or_else(|| lost("child printed no result"))
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub warmup: usize,
    pub rounds: usize,
    pub reps: Vec<Rep>,
    pub traced: Option<Rep>,
}

impl WorkloadResult {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Fingerprint of the first repetition at `seed` that produced one.
    fn fnv_at(&self, seed: u64) -> &str {
        self.all()
            .filter(|r| r.seed == seed)
            .map(|r| r.record_fnv.as_str())
            .find(|f| !f.is_empty())
            .unwrap_or("")
    }

    /// Fingerprint of the run's own seed (repetition 0).
    pub fn record_fnv(&self) -> &str {
        self.all().next().map_or("", |r| self.fnv_at(r.seed))
    }

    pub fn attempted(&self) -> u64 {
        self.all().map(|r| r.attempted).sum()
    }

    /// Failed rounds: each repetition's own, or all of its rounds when
    /// its record differs from the first repetition's at the same seed
    /// (the determinism contract: same workload, same seed, same
    /// `RunRecord`).
    pub fn failures(&self) -> Vec<String> {
        self.all()
            .flat_map(|r| {
                let first = self.fnv_at(r.seed);
                if r.e2e.is_some() && r.record_fnv != first {
                    let why = format!(
                        "seed {}: record {} differs from {first}",
                        r.seed, r.record_fnv
                    );
                    vec![why; r.attempted as usize]
                } else {
                    r.failures.clone()
                }
            })
            .collect()
    }

    /// Summary of end-to-end metric `i` over the untraced repetitions.
    pub fn summary(&self, i: usize) -> Option<Summary> {
        let values: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.e2e.map(|e| e[i]))
            .collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    }

    fn pooled_round_ms(&self) -> Vec<f64> {
        self.reps.iter().flat_map(|r| r.round_ms.clone()).collect()
    }

    /// The full per-layer ledger: the traced child's metrics plus the
    /// ones that need several repetitions. `None` without a traced
    /// repetition that reported.
    pub fn per_layer(&self) -> Option<Vec<(String, f64)>> {
        let traced = self.traced.as_ref().filter(|t| !t.layers.is_empty())?;
        let pooled = self.pooled_round_ms();
        if pooled.is_empty() || traced.round_ms.is_empty() {
            return None;
        }
        let p50 = median(&pooled);
        let efficiency = median(
            &self
                .reps
                .iter()
                .filter_map(|r| {
                    // cpu per round x rounds per second = cores busy
                    r.e2e.map(|e| e[1] / 1e3 * e[0] / r.threads as f64)
                })
                .collect::<Vec<_>>(),
        );
        let cross = [
            ("core.algorithm.round_ms_p50", p50),
            (
                "core.algorithm.round_ms_tail",
                percentile(&pooled, tail_percentile(pooled.len())),
            ),
            ("bench.process.parallel_efficiency", efficiency),
            (
                "bench.trace.overhead_pct",
                100.0 * (median(&traced.round_ms) - p50) / p50,
            ),
            (
                "bench.trace.record_equal",
                f64::from(
                    self.reps
                        .iter()
                        .any(|r| r.seed == traced.seed && r.record_fnv == traced.record_fnv),
                ),
            ),
        ];
        let mut layers = traced.layers.clone();
        layers.extend(cross.map(|(n, v)| (n.to_string(), v)));
        // Report in the order of the definition table.
        let order = |name: &str| PER_LAYER.iter().position(|d| d.name == name);
        layers.sort_by_key(|(n, _)| order(n));
        Some(layers)
    }

    /// Checks of the traced run: a valid span tree whose counts agree
    /// with the program's counters, no dropped span, the same record as
    /// the untraced runs, and every per-layer metric reported.
    pub fn trace_errors(&self) -> Vec<String> {
        let Some(traced) = &self.traced else {
            return Vec::new();
        };
        let mut errors: Vec<String> = traced.trace_error.iter().cloned().collect();
        match self.per_layer() {
            None => errors.push("the traced run reported no per-layer metrics".into()),
            Some(layers) => {
                let value = |name: &str| layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                if value("telemetry.span.dropped") != Some(0.0) {
                    errors.push("the sink dropped spans".into());
                }
                if value("bench.trace.record_equal") != Some(1.0) {
                    errors.push("the traced record differs from the untraced one".into());
                }
                for d in PER_LAYER {
                    match value(d.name) {
                        None => errors.push(format!("{} was not reported", d.name)),
                        Some(v) if !v.is_finite() => errors.push(format!("{} is {v}", d.name)),
                        Some(_) => {}
                    }
                }
            }
        }
        errors
    }

    pub fn correct(&self) -> bool {
        self.failures().is_empty() && self.trace_errors().is_empty()
    }
}

/// Experiment seed of repetition `rep` of a driver run: `--seed` itself
/// first, then a SplitMix64 walk from it.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spans_path(w: &Workload, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-seed{seed}.spans.jsonl", w.name))
}

/// Run the repetitions the command line asks for: strictly one child at
/// a time, repetition-major over the workloads so host drift spreads
/// evenly, the traced repetition of each workload last.
fn measure(args: &Args, workloads: &[&'static Workload]) -> Vec<WorkloadResult> {
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|w| {
            let (warmup, rounds) = run_length(w, args.smoke);
            WorkloadResult {
                name: w.name,
                warmup,
                rounds,
                reps: Vec::new(),
                traced: None,
            }
        })
        .collect();
    match args.seconds {
        // Driver mode: repetitions until enough timed-window time is
        // measured, each on its own seed derived from `--seed`, so that
        // the medians are not hostage to one draw of the fleet. A traced
        // run needs only its untraced reference, at the same seed.
        Some(seconds) => {
            let budget = if args.trace == Some(true) {
                0.0
            } else {
                seconds
            };
            for (w, result) in workloads.iter().zip(&mut results) {
                let mut measured = 0.0;
                loop {
                    let seed = rep_seed(args.seed, result.reps.len());
                    let rep = spawn_rep(w, seed, args.smoke, None);
                    // A lost child still uses up its share of the budget.
                    measured += rep.e2e.map_or(seconds, |e| result.rounds as f64 / e[0]);
                    result.reps.push(rep);
                    if measured >= budget {
                        break;
                    }
                }
            }
        }
        // Full run: every repetition on the same seed, so that their
        // records must agree.
        None => {
            let reps = args
                .reps
                .unwrap_or(if args.smoke { SMOKE_REPS } else { REPS });
            for _ in 0..reps {
                for (w, result) in workloads.iter().zip(&mut results) {
                    result.reps.push(spawn_rep(w, args.seed, args.smoke, None));
                }
            }
        }
    }
    if args.trace != Some(false) {
        for (w, result) in workloads.iter().zip(&mut results) {
            let spans = spans_path(w, args.seed);
            result.traced = Some(spawn_rep(w, args.seed, args.smoke, Some(&spans)));
        }
    }
    results
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `record_fnv` of `workload` in the stored baseline for `seed`
/// (`baseline-seed<N>.json` beside the benchmark's sources), if any.
fn baseline_fnv(seed: u64, workload: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("baseline-seed{seed}.json"));
    let report = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let w = json::get(json::get(&report, "workloads")?, workload)?;
    json::get_str(w, "record_fnv").map(String::from)
}

fn workload_json(r: &WorkloadResult, seed: u64, comparable: bool) -> Value {
    let failures = r.failures();
    let pooled = r.pooled_round_ms();
    let changed = match baseline_fnv(seed, r.name) {
        // A shortened run has another record by construction.
        Some(stored) if comparable => {
            if stored == r.record_fnv() {
                "no"
            } else {
                "yes"
            }
        }
        _ => "unknown",
    };
    obj(vec![
        ("warmup_rounds", Value::U64(r.warmup as u64)),
        ("timed_rounds", Value::U64(r.rounds as u64)),
        (
            "end_to_end",
            Value::Map(
                END_TO_END
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| Some((e.name.to_string(), r.summary(i)?.to_json(e.unit))))
                    .collect(),
            ),
        ),
        ("record_fnv", text(r.record_fnv())),
        ("record_changed", text(changed)),
        ("ops_attempted", Value::U64(r.attempted())),
        ("ops_failed", Value::U64(failures.len() as u64)),
        (
            "failures",
            Value::Seq(failures.iter().take(10).map(|f| text(f.clone())).collect()),
        ),
        (
            "trace_errors",
            Value::Seq(r.trace_errors().into_iter().map(text).collect()),
        ),
        ("correct", Value::Bool(r.correct())),
        (
            "round_ms_tail_percentile",
            num(tail_percentile(pooled.len())),
        ),
        (
            "per_layer",
            Value::Map(
                r.per_layer()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(n, v)| (n, num(v)))
                    .collect(),
            ),
        ),
    ])
}

fn print_workload(r: &WorkloadResult) {
    println!(
        "\n== {} ({} warm-up + {} timed rounds, {} reps{})",
        r.name,
        r.warmup,
        r.rounds,
        r.reps.len(),
        if r.traced.is_some() {
            " + 1 traced"
        } else {
            ""
        }
    );
    for (i, e) in END_TO_END.iter().enumerate() {
        if let Some(s) = r.summary(i) {
            println!(
                "  {:<40} {:>14.6} {:<9} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                e.name, s.median, e.unit, s.q1, s.q3, s.min, s.max, s.n
            );
        }
    }
    for (name, v) in r.per_layer().unwrap_or_default() {
        let unit = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit);
        println!("  {name:<40} {v:>14.6} {unit}");
    }
    let failures = r.failures();
    println!(
        "  ops_attempted {}  ops_failed {}  record_fnv {}",
        r.attempted(),
        failures.len(),
        r.record_fnv()
    );
    for why in failures.iter().take(5).chain(&r.trace_errors()) {
        println!("  FAILED: {why}");
    }
}

/// The contract's result line of one driver run.
fn driver_line(r: &WorkloadResult, trace: bool) -> Value {
    let metrics: Vec<(String, Value)> = if trace {
        let layers = r.per_layer().unwrap_or_default();
        PER_LAYER
            .iter()
            .filter_map(|d| {
                let v = layers.iter().find(|(n, _)| n == d.name)?.1;
                Some((d.name, v, d.unit))
            })
            .map(metric_entry)
            .collect()
    } else {
        END_TO_END
            .iter()
            .enumerate()
            .filter(|(_, e)| e.driver)
            .filter_map(|(i, e)| Some((e.name, r.summary(i)?.median, e.unit)))
            .map(metric_entry)
            .collect()
    };
    obj(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::U64(r.attempted())),
        ("failed", Value::U64(r.failures().len() as u64)),
        ("metrics", Value::Map(metrics)),
    ])
}

fn metric_entry((name, value, unit): (&str, f64, &str)) -> (String, Value) {
    (
        name.to_string(),
        obj(vec![("value", num(value)), ("unit", text(unit))]),
    )
}

/// Measure, print every metric, write the report. `Ok(false)` when any
/// operation failed or a check of the traced run did not hold.
pub fn run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
        .collect();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let load = procfs::load_average();

    let results = measure(args, &workloads);
    let all_correct = results.iter().all(WorkloadResult::correct);
    for r in &results {
        print_workload(r);
    }
    if let Some(trace) = args.trace {
        // Driver mode: one workload, one result line, always exit 0 —
        // `correct` carries the verdict.
        let r = results
            .first()
            .filter(|_| results.len() == 1)
            .ok_or("--trace needs --workload")?;
        println!("{}", json::compact(&driver_line(r, trace)));
        return Ok(true);
    }

    // A shortened or partial run is not comparable with a full one.
    let comparable = !args.smoke && args.seconds.is_none();
    let any = results
        .iter()
        .flat_map(|r| &r.reps)
        .find(|r| r.e2e.is_some());
    let report = obj(vec![
        ("seed", Value::U64(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("comparable", Value::Bool(comparable)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "commit",
            text(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("load_average_at_start", num(load)),
        ("threads", Value::U64(any.map_or(0, |r| r.threads as u64))),
        (
            "kernel_tier",
            text(any.map_or("", |r| r.kernel_tier.as_str())),
        ),
        ("correct", Value::Bool(all_correct)),
        (
            "workloads",
            Value::Map(
                results
                    .iter()
                    .map(|r| (r.name.to_string(), workload_json(r, args.seed, comparable)))
                    .collect(),
            ),
        ),
    ]);
    let path = Path::new(OUT_DIR).join(format!("run-seed{}.json", args.seed));
    std::fs::write(&path, json::pretty(&report) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\n{}{} -> {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        if comparable {
            ""
        } else {
            " (numbers not comparable with a full run)"
        },
        path.display()
    );
    Ok(all_correct)
}

/// `BENCHMARK.json`, generated from the definition tables.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Seq(items.iter().map(|s| text(*s)).collect());
    obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "ledger/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["ledger"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .filter(|e| e.driver)
                    .map(|e| {
                        obj(vec![
                            ("name", text(e.name)),
                            ("unit", text(e.unit)),
                            ("better", text(e.better)),
                            ("bound", num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", text(d.name)),
                            ("unit", text(d.unit)),
                            ("better", text(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Verdict on one (workload, end-to-end metric) pair of two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// B against A: `Unresolved` when the run-to-run spread exceeds the bound
/// and the runs of the two sides overlap — the data cannot tell; `Worse`
/// when B's median is worse than A's by more than the bound.
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better {
        (a.median - b.median) / base
    } else {
        (b.median - a.median) / base
    };
    let spread = a.iqr().max(b.iqr()) / base;
    let overlap = a.min <= b.max && b.min <= a.max;
    let v = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, v)
}

/// Compare two reports of full runs; `Ok(false)` when any pair is worse.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = compare(&a, &b)?;
    println!(
        "{:<12} {:<18} {:>12} {:>10} {:>12} {:>10} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "worse by", "bound"
    );
    let mut any_worse = false;
    for row in &rows {
        println!(
            "{:<12} {:<18} {:>12.5} {:>10.5} {:>12.5} {:>10.5} {:>8.2}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a.median,
            row.a.iqr(),
            row.b.median,
            row.b.iqr(),
            row.worse_by * 100.0,
            row.bound * 100.0,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
        any_worse |= row.verdict == Verdict::Worse;
    }
    for (what, key) in [("record_fnv", "record_fnv"), ("ops_failed", "ops_failed")] {
        for (name, wa) in json::entries(json::get(&a, "workloads").unwrap_or(&Value::Null)) {
            let wb = json::get(&b, "workloads").and_then(|w| json::get(w, name));
            let (va, vb) = (json::get(wa, key), wb.and_then(|w| json::get(w, key)));
            if va != vb {
                println!("{name}: {what} differs: {va:?} vs {vb:?}");
            }
        }
    }
    Ok(!any_worse)
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One row per (workload, end-to-end metric) present in both reports.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |v: &Value| {
        json::get(v, "workloads")
            .cloned()
            .ok_or("no workloads in report")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, ra) in json::entries(&wa) {
        let Some(rb) = json::get(&wb, name) else {
            continue;
        };
        for e in &END_TO_END {
            let summary = |r: &Value| {
                json::get(r, "end_to_end")
                    .and_then(|m| json::get(m, e.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(ra), summary(rb)) else {
                return Err(format!("{name}: {} missing from a report", e.name));
            };
            let (worse_by, verdict) = verdict(&sa, &sb, e.better == "higher", e.bound);
            rows.push(Row {
                workload: name.clone(),
                metric: e.name,
                a: sa,
                b: sb,
                worse_by,
                bound: e.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the reports share no workload".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(rps: f64, fnv: &str) -> Rep {
        Rep {
            seed: 1,
            e2e: Some([rps, 1500.0, 1.0, 200.0, 0.5, 362.0]),
            round_ms: vec![1000.0 / rps; 3],
            record_fnv: fnv.into(),
            attempted: 3,
            failures: Vec::new(),
            threads: 2,
            kernel_tier: "avx2".into(),
            layers: Vec::new(),
            trace_error: None,
        }
    }

    fn traced(fnv: &str) -> Rep {
        let mut layers: Vec<(String, f64)> = PER_LAYER
            .iter()
            .filter(|d| !crate::layers::CROSS_REP.contains(&d.name))
            .map(|d| (d.name.to_string(), 0.0))
            .collect();
        layers.reverse();
        Rep {
            layers,
            round_ms: vec![1100.0; 3],
            ..rep(0.9, fnv)
        }
    }

    fn result(reps: Vec<Rep>, traced: Option<Rep>) -> WorkloadResult {
        WorkloadResult {
            name: "mlp_ring",
            warmup: 1,
            rounds: 3,
            reps,
            traced,
        }
    }

    #[test]
    fn rep_round_trips_through_its_json_line() {
        let mut r = traced("00ff");
        r.failures = vec!["round 2: blackout".into()];
        r.trace_error = Some("span 3 leaves its parent".into());
        let line = json::compact(&r.to_json());
        assert_eq!(Rep::from_json(&json::parse(&line).unwrap()), Some(r));
        let lost = Rep::lost(1, 3, "child timed out");
        let line = json::compact(&lost.to_json());
        assert_eq!(Rep::from_json(&json::parse(&line).unwrap()), Some(lost));
    }

    #[test]
    fn a_lost_child_is_charged_with_all_its_rounds() {
        let r = result(
            vec![rep(1.0, "aa"), Rep::lost(1, 3, "child exited with 101")],
            None,
        );
        assert_eq!(r.attempted(), 6);
        assert_eq!(r.failures().len(), 3);
        assert!(!r.correct());
        // Its missing numbers do not enter the medians.
        assert_eq!(r.summary(0).unwrap().n, 1);
    }

    #[test]
    fn a_record_that_differs_from_the_first_fails_the_repetition() {
        let r = result(vec![rep(1.0, "aa"), rep(1.0, "aa"), rep(1.0, "bb")], None);
        let failures = r.failures();
        assert_eq!(failures.len(), 3);
        assert!(failures[0].contains("differs from aa"));
        assert!(result(vec![rep(1.0, "aa"), rep(1.1, "aa")], None).correct());
        // Another seed, another record: nothing to compare it with.
        let other = Rep {
            seed: 2,
            ..rep(1.0, "bb")
        };
        assert!(result(vec![rep(1.0, "aa"), other], None).correct());
    }

    #[test]
    fn driver_repetitions_walk_distinct_seeds_from_the_given_one() {
        let seeds: Vec<u64> = (0..6).map(|i| rep_seed(2022, i)).collect();
        assert_eq!(seeds[0], 2022);
        let distinct: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(
            rep_seed(2022, 3),
            seeds[3],
            "a pure function of (seed, rep)"
        );
        assert_ne!(rep_seed(2023, 1), seeds[1]);
    }

    #[test]
    fn per_layer_adds_the_cross_repetition_metrics_in_table_order() {
        let r = result(vec![rep(1.0, "aa"), rep(2.0, "aa")], Some(traced("aa")));
        let layers = r.per_layer().unwrap();
        let names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, table);
        let value = |n: &str| layers.iter().find(|(name, _)| name == n).unwrap().1;
        // Pooled rounds: 3 x 1000 ms and 3 x 500 ms.
        assert_eq!(value("core.algorithm.round_ms_p50"), 750.0);
        assert_eq!(value("core.algorithm.round_ms_tail"), 750.0);
        assert!((value("bench.trace.overhead_pct") - 100.0 * 350.0 / 750.0).abs() < 1e-9);
        assert_eq!(value("bench.trace.record_equal"), 1.0);
        // 1500 ms cpu per round at 1 and 2 rounds/s on 2 threads.
        assert_eq!(value("bench.process.parallel_efficiency"), 1.125);
        assert!(r.correct(), "{:?}", r.trace_errors());
    }

    #[test]
    fn traced_run_checks_fail_the_workload() {
        let r = result(vec![rep(1.0, "aa")], Some(traced("bb")));
        assert!(r.trace_errors().iter().any(|e| e.contains("differs")));
        let mut t = traced("aa");
        t.layers.retain(|(n, _)| n != "core.local.train_ms");
        let r = result(vec![rep(1.0, "aa")], Some(t));
        assert!(r
            .trace_errors()
            .iter()
            .any(|e| e.contains("core.local.train_ms")));
        let mut t = traced("aa");
        t.layers
            .iter_mut()
            .find(|(n, _)| n == "telemetry.span.dropped")
            .unwrap()
            .1 = 4.0;
        assert!(!result(vec![rep(1.0, "aa")], Some(t)).correct());
        let mut t = traced("aa");
        t.trace_error = Some("children of span 7 sum to more than it".into());
        assert!(!result(vec![rep(1.0, "aa")], Some(t)).correct());
    }

    #[test]
    fn driver_line_has_the_contract_shape() {
        let r = result(vec![rep(1.0, "aa"), rep(3.0, "aa")], Some(traced("aa")));
        let line = driver_line(&r, false);
        let keys: Vec<&str> = json::entries(&line)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json::get(&line, "metrics").unwrap();
        assert_eq!(json::entries(metrics).len(), 5);
        assert!(
            json::get(metrics, "final_accuracy").is_none(),
            "not steady across seeds"
        );
        let rps = json::get(metrics, "rounds_per_s").unwrap();
        assert_eq!(json::get_f64(rps, "value"), Some(2.0));
        assert_eq!(json::get_str(rps, "unit"), Some("1/s"));
        assert_eq!(json::get_f64(&line, "attempted"), Some(9.0));
        let traced_line = driver_line(&r, true);
        let metrics = json::get(&traced_line, "metrics").unwrap();
        assert_eq!(json::entries(metrics).len(), PER_LAYER.len());
    }

    fn summary(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            min: median - 2.0 * half_iqr,
            max: median + 2.0 * half_iqr,
            n: 7,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        // Throughput down 20 % with tight runs: worse.
        let (by, v) = verdict(&summary(10.0, 0.1), &summary(8.0, 0.1), true, 0.10);
        assert!((by - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        // Same numbers for a cost metric: an improvement.
        assert_eq!(
            verdict(&summary(10.0, 0.1), &summary(8.0, 0.1), false, 0.10).1,
            Verdict::Ok
        );
        // Within the bound.
        assert_eq!(
            verdict(&summary(10.0, 0.1), &summary(9.5, 0.1), true, 0.10).1,
            Verdict::Ok
        );
        // Spread wider than the bound and overlapping runs: cannot tell.
        assert_eq!(
            verdict(&summary(10.0, 1.0), &summary(8.0, 1.0), true, 0.10).1,
            Verdict::Unresolved
        );
        // Wide spread but every run of B below every run of A: worse.
        assert_eq!(
            verdict(&summary(10.0, 1.0), &summary(5.0, 1.0), true, 0.10).1,
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_two_reports_row_by_row() {
        let a = result(vec![rep(1.0, "aa"), rep(1.01, "aa"), rep(0.99, "aa")], None);
        let b = result(vec![rep(0.5, "aa"), rep(0.51, "aa"), rep(0.49, "aa")], None);
        let report = |r: &WorkloadResult| {
            obj(vec![(
                "workloads",
                Value::Map(vec![(r.name.to_string(), workload_json(r, 1, false))]),
            )])
        };
        let rows = compare(&report(&a), &report(&b)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0].metric, "rounds_per_s");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(rows[1..].iter().all(|r| r.verdict == Verdict::Ok));
        let same = compare(&report(&a), &report(&a)).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(compare(&report(&a), &obj(vec![("workloads", Value::Map(vec![]))])).is_err());
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        let keys: Vec<&str> = json::entries(&on_disk)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
