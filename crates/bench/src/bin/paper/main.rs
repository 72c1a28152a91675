//! The paper's evaluation — Table 1 and Figures 2, 3, 4, 6, 7 — each
//! ending in the claims the paper draws from it, tagged with its figure or
//! table number, and a verdict computed from the numbers just produced;
//! then the repo's two extensions, fleet churn (`ext_churn`) and the lossy
//! wire codec (`ext_codec`).
//!
//! ```sh
//! cargo run --release -p fedhisyn-bench --bin paper -- [table1|fig2|fig3|fig4|fig6|fig7|ext_churn|ext_codec …] [--full]
//! cargo run --release -p fedhisyn-bench --bin paper -- --trace <path>
//! ```
//!
//! No names runs all eight at smoke scale (sized for a 2-core box); `--full`
//! runs the paper's dimensions. Series, the Table 1 grid and claims go to
//! `results/paper.json`. A paper claim that does not hold is recorded with
//! its numbers and leaves the exit code alone; an extension claim that does
//! not hold exits 1 once the JSON is written. `--trace <path>` runs one
//! short churned FedHiSyn cell with telemetry on instead, writes a
//! Perfetto-loadable Chrome trace (and a JSONL event log beside it) to
//! `path` and validates it in-process.

mod ext;
mod harness;
mod trace;

use fedhisyn_baselines::{FedAT, FedAvg, FedProx, Scaffold, TAFedAvg, TFedAvg};
use fedhisyn_core::decentral::{DecentralMode, DecentralSim};
use fedhisyn_core::{
    run_experiment, ExperimentConfig, FedHiSyn, FlAlgorithm, FlEnv, RingOrder, RunRecord,
};
use fedhisyn_data::stats::mean_label_divergence;
use fedhisyn_data::{DatasetProfile, Partition, Scale};
use fedhisyn_simnet::HeterogeneityModel;
use harness::{write_json, BenchScale};
use serde::Serialize;
use std::path::Path;

/// Every artefact, in run order: the paper's, then the extensions.
const ARTEFACTS: [&str; 8] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "ext_churn",
    "ext_codec",
];

/// The non-IID partition of every artefact.
const NON_IID: Partition = Partition::Dirichlet { beta: 0.3 };

/// Fig 2's modes: no communication, then random exchange and a ring, each
/// with and without averaging the received model first.
const FIG2_MODES: [DecentralMode; 5] = [
    DecentralMode::Isolated,
    DecentralMode::RandomExchange { average: true },
    DecentralMode::RandomExchange { average: false },
    ring(1, RingOrder::SmallToLarge, true),
    ring(1, RingOrder::SmallToLarge, false),
];

/// The two partitions of Figs 2–4, and the two datasets and the
/// participation of Figs 6–7.
const PARTITIONS: [Partition; 2] = [Partition::Iid, NON_IID];
const DATASETS: [DatasetProfile; 2] = [DatasetProfile::MnistLike, DatasetProfile::Cifar10Like];
const SERVER_PARTICIPATION: f64 = 0.5;

const fn ring(k: usize, order: RingOrder, average: bool) -> DecentralMode {
    DecentralMode::ClusteredRings { k, order, average }
}

/// One labelled accuracy-per-round curve.
#[derive(Debug, Serialize)]
struct Series {
    /// Partition (Figs 2–4), dataset (Figs 6–7), churn rate (`ext_churn`)
    /// or frame-loss rate (`ext_codec`) the curve ran on.
    scope: String,
    label: String,
    accuracy: Vec<f32>,
}

/// A claim the paper (or an extension) draws from an artefact, and
/// whether this run's numbers bear it out.
#[derive(Debug, Serialize)]
struct Claim {
    /// The paper's figure or table number, or `Ext codec`.
    tag: &'static str,
    /// The partition, dataset, table row or loss rate the claim was
    /// checked on.
    scope: String,
    statement: &'static str,
    /// The numbers the verdict was computed from: final accuracies in %,
    /// Table 1 costs in FedAvg rounds with `X` as infinity, or
    /// `ext_codec`'s compression ratios and wire bytes.
    evidence: Vec<(String, f64)>,
    holds: bool,
}

/// Table 1 and the hyper-parameters every baseline ran at: FedProx's
/// authors say `lr` and `mu` must be tuned per dataset.
#[derive(Debug, Serialize)]
struct Table {
    lr: f32,
    fedprox_mu: f32,
    rows: Vec<TableRow>,
}

/// All seven algorithms on one (participation, partition, dataset) cell.
#[derive(Debug, Serialize)]
struct TableRow {
    participation: f64,
    partition: String,
    dataset: String,
    /// Eq. 4 divergence per device (`D / N`) of the partition the row
    /// trains on.
    divergence: f64,
    target: f32,
    cells: Vec<TableCell>,
}

#[derive(Debug, Serialize)]
struct TableCell {
    algorithm: String,
    /// Uploads to reach the target in FedAvg-round units; `None` is the
    /// paper's "X" (never reached).
    cost: Option<f64>,
    final_accuracy: f32,
    peak_accuracy: f32,
    /// The run ended below its first round's accuracy.
    collapsed: bool,
}

/// What one artefact produced.
#[derive(Debug, Serialize)]
struct Artefact {
    name: &'static str,
    /// The repo's own sweep (`ext_*`), not the paper's: a claim of it that
    /// does not hold fails the run.
    extension: bool,
    series: Vec<Series>,
    table: Option<Table>,
    claims: Vec<Claim>,
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.holds { "holds" } else { "does not hold" };
        let numbers = self.evidence.iter().map(|(l, v)| format!("{l} {v:.1}"));
        let numbers = numbers.collect::<Vec<_>>().join(", ");
        let (tag, scope, statement) = (self.tag, &self.scope, self.statement);
        write!(f, "[{tag} | {scope}] {statement}: {verdict} ({numbers})")
    }
}

/// What the command line asks for, parsed once.
#[derive(Debug, PartialEq)]
struct Cli {
    /// The artefacts to run, in run order: all of them when none are
    /// named, none under `--trace`.
    artefacts: Vec<&'static str>,
    /// `--full`: the paper's dimensions instead of smoke scale.
    full: bool,
    /// `--trace <path>`: run the traced churn cell instead.
    trace: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(2);
    });
    let scale = if cli.full {
        BenchScale::full()
    } else {
        BenchScale::smoke()
    };
    if let Some(path) = cli.trace {
        ext::churn_trace(&scale, Path::new(&path));
        return;
    }
    let artefacts: Vec<Artefact> = cli.artefacts.into_iter().map(|n| run(n, &scale)).collect();
    println!();
    for (extension, kind) in [(false, "paper"), (true, "extension")] {
        let of_kind = artefacts.iter().filter(|a| a.extension == extension);
        let claims: Vec<&Claim> = of_kind.flat_map(|a| &a.claims).collect();
        let held = claims.iter().filter(|c| c.holds).count();
        if !claims.is_empty() {
            println!("{held} of {} {kind} claims hold", claims.len());
        }
    }
    write_json("paper", &artefacts);
    std::process::exit(exit_code(&artefacts));
}

/// Parse the artefact names and the `--full` and `--trace <path>` flags;
/// anything else, or `--trace` without a path, is an error.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        artefacts: Vec::new(),
        full: false,
        trace: None,
    };
    let mut named = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--full" => cli.full = true,
            "--trace" => match args.next() {
                Some(path) if !path.starts_with("--") => cli.trace = Some(path.to_string()),
                _ => return Err("`--trace` needs a path".to_string()),
            },
            _ => match ARTEFACTS.into_iter().find(|&a| a == arg) {
                Some(name) => named.push(name),
                None => {
                    let valid = ARTEFACTS.join(" ");
                    return Err(format!(
                        "unknown argument `{arg}`; artefacts: {valid}; flags: --full, --trace <path>"
                    ));
                }
            },
        }
    }
    if cli.trace.is_some() {
        if !named.is_empty() {
            return Err("`--trace` runs alone, without artefact names".to_string());
        }
    } else {
        let names = ARTEFACTS.into_iter();
        cli.artefacts = names
            .filter(|n| named.is_empty() || named.contains(n))
            .collect();
    }
    Ok(cli)
}

/// 1 when a claim of an extension artefact does not hold, else 0: the
/// extensions' claims are their sweeps' gates, the paper's are print-only.
fn exit_code(artefacts: &[Artefact]) -> i32 {
    let extensions = artefacts.iter().filter(|a| a.extension);
    i32::from(extensions.flat_map(|a| &a.claims).any(|c| !c.holds))
}

fn run(name: &'static str, scale: &BenchScale) -> Artefact {
    let h10 = HeterogeneityModel::Uniform { h: 10.0 };
    let mean = DecentralSim::mean_accuracy;
    let by_partition = |s: &[Series]| PARTITIONS.map(|p| finals(s, &p.label()));
    let by_dataset = |s: &[Series]| DATASETS.map(|d| finals(s, d.name()));
    let (series, table, claims) = match name {
        "table1" => {
            let table = table1(scale);
            let claims = table1_claims(&table.rows);
            (Vec::new(), Some(table), claims)
        }
        "fig2" => {
            let title = "Figure 2 — mean device accuracy, homogeneous devices";
            let homogeneous = HeterogeneityModel::Homogeneous;
            let s = decentral_sweep(scale, title, homogeneous, &FIG2_MODES, mean);
            let non_iid = [finals(&s, &NON_IID.label())];
            let ordering = "final mean device accuracy: ring > random > no-comm";
            let received = "training the received model >= averaging it first, ring and random";
            let mut c = claims("Fig 2", ordering, fig2_ordering, non_iid.clone());
            c.extend(claims("Fig 2", received, fig2_train_received, non_iid));
            (s, None, c)
        }
        "fig3" => {
            let title = "Figure 3 — ring ordering under H=10, mean device accuracy";
            let orders = [
                RingOrder::Random,
                RingOrder::SmallToLarge,
                RingOrder::LargeToSmall,
            ];
            let s = decentral_sweep(scale, title, h10, &orders.map(|o| ring(1, o, false)), mean);
            let statement = "final mean device accuracy: small-to-large ring > random ring";
            let c = claims("Fig 3", statement, fig3_sorted_ring, by_partition(&s));
            (s, None, c)
        }
        "fig4" => {
            let title = "Figure 4 — fastest class accuracy vs K, H=10";
            let modes = [1, 2, 10, 30].map(|k| ring(k, RingOrder::SmallToLarge, false));
            let fastest = |sim: &DecentralSim, env: &FlEnv| sim.class_accuracy(env, 0);
            let s = decentral_sweep(scale, title, h10, &modes, fastest);
            let statement = "fastest-class final accuracy: best at K <= 2 > at the largest K";
            let c = claims("Fig 4", statement, fig4_small_k, by_partition(&s));
            (s, None, c)
        }
        "fig6" => {
            let title = "Figure 6 — FedHiSyn accuracy vs K, 50% participation";
            let ks = fig6_ks(scale.devices).into_iter();
            let runs: Vec<_> = ks.map(|k| (format!("K={k}"), 10.0, Some(k))).collect();
            let s = server_sweep(scale, title, &runs);
            let statement = "the K with the best final accuracy is strictly inside the K list";
            let c = claims("Fig 6", statement, fig6_interior_best, by_dataset(&s));
            (s, None, c)
        }
        "fig7" => {
            let title = "Figure 7 — FedHiSyn vs FedAvg as H grows, 50% participation";
            let k = Some(paper_k(SERVER_PARTICIPATION, scale.devices));
            let pair =
                |h| [("FedHiSyn", k), ("FedAvg", None)].map(|(a, k)| (format!("{a} H={h}"), h, k));
            let runs: Vec<_> = [2.0, 5.0, 10.0, 20.0].into_iter().flat_map(pair).collect();
            let s = server_sweep(scale, title, &runs);
            let statement = "FedHiSyn - FedAvg final accuracy: largest-H gap >= smallest-H gap";
            let c = claims("Fig 7", statement, fig7_gap_grows, by_dataset(&s));
            (s, None, c)
        }
        "ext_churn" => (ext::churn(scale), None, Vec::new()),
        "ext_codec" => {
            let (s, c) = ext::codec(scale);
            (s, None, c)
        }
        _ => unreachable!("parse_args admits only ARTEFACTS"),
    };
    println!();
    claims.iter().for_each(|claim| println!("{claim}"));
    Artefact {
        name,
        extension: name.starts_with("ext_"),
        series,
        table,
        claims,
    }
}

/// The paper's cluster count: `K = 10` at 50%/100% participation, `K = 2`
/// at 10% (§6.1), clamped to the fleet size.
fn paper_k(participation: f64, devices: usize) -> usize {
    let k = if participation <= 0.25 { 2 } else { 10 };
    k.min(devices.max(1))
}

/// All seven algorithms of Table 1 for one cell, in the paper's column
/// order.
fn algorithm_suite(cfg: &ExperimentConfig) -> Vec<Box<dyn FlAlgorithm>> {
    let k = paper_k(cfg.participation, cfg.n_devices);
    vec![
        Box::new(FedHiSyn::new(cfg, k)),
        Box::new(FedAvg::new(cfg)),
        Box::new(FedProx::new(cfg)),
        Box::new(FedAT::new(cfg, 5.min(cfg.n_devices))),
        Box::new(Scaffold::new(cfg)),
        Box::new(TAFedAvg::new(cfg)),
        Box::new(TFedAvg::new(cfg)),
    ]
}

/// Run one algorithm on a fresh environment built from `cfg`.
fn run_one(cfg: &ExperimentConfig, algo: &mut dyn FlAlgorithm) -> RunRecord {
    let mut env = cfg.build_env();
    run_experiment(algo, &mut env, cfg.rounds)
}

/// The smoke-scale target: the paper's fixed targets (96/86/75/33%) assume
/// real datasets, so each row is re-targeted at `fraction` of the best
/// final accuracy any algorithm reached — still "cost to reach a shared
/// quality bar".
fn smoke_target(finals: &[f32], fraction: f32) -> f32 {
    finals.iter().copied().fold(0.0f32, f32::max) * fraction
}

/// A run collapsed when it ends below its first round's accuracy.
fn collapsed(accuracy: &[f32]) -> bool {
    matches!((accuracy.first(), accuracy.last()), (Some(first), Some(last)) if last < first)
}

/// Table 1: transmission cost to a target accuracy and final accuracy of
/// all seven algorithms. Smoke scale runs 2 datasets × 2 partitions × 2
/// participation levels with per-row targets; `--full` runs the paper's
/// 4 × 3 × 3 grid with its fixed targets.
fn table1(scale: &BenchScale) -> Table {
    let paper_partitions = [Partition::Iid, Partition::Dirichlet { beta: 0.8 }, NON_IID];
    let (datasets, partitions, participations): (&[_], &[_], &[_]) = match scale.scale {
        Scale::Paper => (&DatasetProfile::ALL, &paper_partitions, &[1.0, 0.5, 0.1]),
        Scale::Smoke => (&DATASETS, &PARTITIONS, &[1.0, 0.5]),
    };
    let mut rows = Vec::new();
    for &participation in participations {
        for &partition in partitions {
            for &dataset in datasets {
                let (name, label) = (dataset.name(), partition.label());
                let percent = participation * 100.0;
                eprintln!("running: {name} | {label} | {percent:.0}% participation");
                let cfg = scale.config(dataset, partition, participation);
                let records: Vec<RunRecord> = algorithm_suite(&cfg)
                    .iter_mut()
                    .map(|algo| run_one(&cfg, algo.as_mut()))
                    .collect();
                let finals: Vec<f32> = records.iter().map(RunRecord::final_accuracy).collect();
                let target = match scale.scale {
                    Scale::Paper => dataset.paper_target_accuracy(),
                    Scale::Smoke => smoke_target(&finals, 0.9),
                };
                // One FedAvg round's uploads = expected participants.
                let unit = (cfg.n_devices as f64 * participation).max(1.0);
                let env = cfg.build_env();
                let histograms = (0..env.n_devices()).map(|d| env.class_histogram(d));
                let cells = records.iter().map(|r| TableCell {
                    algorithm: r.algorithm.clone(),
                    cost: r.uploads_to_target(target, unit),
                    final_accuracy: r.final_accuracy(),
                    peak_accuracy: r.best_accuracy(),
                    collapsed: collapsed(&r.accuracy_series()),
                });
                rows.push(TableRow {
                    participation,
                    partition: label,
                    dataset: name.to_string(),
                    divergence: mean_label_divergence(&histograms.collect::<Vec<_>>()),
                    target,
                    cells: cells.collect(),
                });
            }
        }
    }
    let cfg = scale.config(DatasetProfile::MnistLike, Partition::Iid, 1.0);
    let (lr, fedprox_mu) = (cfg.lr, FedProx::new(&cfg).mu);
    print_table(lr, fedprox_mu, &rows);
    Table {
        lr,
        fedprox_mu,
        rows,
    }
}

/// Render Table 1 in the paper's layout: `cost(final accuracy)` per cell,
/// `X` for a target never reached, and a collapse named as such.
fn print_table(lr: f32, mu: f32, rows: &[TableRow]) {
    println!("\nTable 1 — transmission cost to target (FedAvg-round units), X = not reached");
    println!("cost(final accuracy); lr {lr}, FedProx mu {mu}; D/N = Eq. 4 divergence per device");
    print!("\npart.  partition        dataset    D/N    target ");
    for cell in rows.first().map_or(&[][..], |r| &r.cells) {
        print!(" {:>22}", cell.algorithm);
    }
    for row in rows {
        let part = format!("{:.0}%", row.participation * 100.0);
        let (partition, dataset) = (&row.partition, &row.dataset);
        print!("\n{part:<6} {partition:<16} {dataset:<10}");
        print!(" {:<6.3} {:<7.1}", row.divergence, row.target * 100.0);
        for cell in &row.cells {
            let cost = cell.cost.map_or("X".to_string(), |c| format!("{c:.1}"));
            let fall = if cell.collapsed { " collapsed" } else { "" };
            let accuracy = cell.final_accuracy * 100.0;
            print!(" {:>22}", format!("{cost}({accuracy:.1}%){fall}"));
        }
    }
    println!();
}

/// Table 1's claim on every Dirichlet(0.3) row, from its cells' costs with
/// `X` as infinity.
fn table1_claims(rows: &[TableRow]) -> Vec<Claim> {
    let costs = rows
        .iter()
        .filter(|row| row.partition == NON_IID.label())
        .map(|row| {
            let part = row.participation * 100.0;
            let scope = format!("{part:.0}% {} {}", row.dataset, row.partition);
            let cost = |c: &TableCell| (c.algorithm.clone(), c.cost.unwrap_or(f64::INFINITY));
            (scope, row.cells.iter().map(cost).collect())
        });
    let statement = "FedHiSyn's transmission to target <= every baseline's (X = inf)";
    claims("Table 1", statement, table1_fedhisyn_cheapest, costs)
}

/// Figs 2–4: one server-less simulation per mode on CIFAR-like data under
/// each partition; `metric` reads the plotted accuracy after every round.
fn decentral_sweep(
    scale: &BenchScale,
    title: &str,
    heterogeneity: HeterogeneityModel,
    modes: &[DecentralMode],
    metric: fn(&DecentralSim, &FlEnv) -> f32,
) -> Vec<Series> {
    let labels: Vec<String> = modes.iter().map(DecentralMode::label).collect();
    sweep(title, &PARTITIONS.map(|p| p.label()), &labels, |p, i| {
        let mut cfg = scale.config(DatasetProfile::Cifar10Like, PARTITIONS[p], 1.0);
        cfg.heterogeneity = heterogeneity;
        let env = cfg.build_env();
        let mut sim = DecentralSim::new(&env, modes[i]);
        let mut step = |round| {
            sim.run_round(&env, round);
            metric(&sim, &env)
        };
        (0..cfg.rounds).map(&mut step).collect()
    })
}

/// Figs 6–7: server-side runs on MNIST- and CIFAR-like Dirichlet(0.3)
/// data at [`SERVER_PARTICIPATION`]. Run `(label, H, K)` is FedHiSyn with K
/// latency classes, or FedAvg when K is `None`, at heterogeneity degree H.
fn server_sweep(
    scale: &BenchScale,
    title: &str,
    runs: &[(String, f64, Option<usize>)],
) -> Vec<Series> {
    let labels: Vec<String> = runs.iter().map(|run| run.0.clone()).collect();
    let scopes = DATASETS.map(|d| d.name().to_string());
    sweep(title, &scopes, &labels, |d, i| {
        let (_, h, k) = runs[i];
        let mut cfg = scale.config(DATASETS[d], NON_IID, SERVER_PARTICIPATION);
        cfg.heterogeneity = HeterogeneityModel::Uniform { h };
        let mut algo: Box<dyn FlAlgorithm> = match k {
            Some(k) => Box::new(FedHiSyn::new(&cfg, k)),
            None => Box::new(FedAvg::new(&cfg)),
        };
        run_one(&cfg, algo.as_mut()).accuracy_series()
    })
}

/// Run every (scope, run) pair of a figure and print each scope's curves
/// side by side; `run(scope, i)` returns run `i`'s accuracy per round.
fn sweep(
    title: &str,
    scopes: &[String],
    labels: &[String],
    run: impl Fn(usize, usize) -> Vec<f32>,
) -> Vec<Series> {
    let mut all = Vec::new();
    for (s, scope) in scopes.iter().enumerate() {
        let series = labels.iter().enumerate().map(|(i, label)| {
            eprintln!("running: {scope} {label}");
            Series {
                scope: scope.clone(),
                label: label.clone(),
                accuracy: run(s, i),
            }
        });
        let series: Vec<Series> = series.collect();
        print!("\n== {title} ({scope}) ==\nround");
        for s in &series {
            print!(" {:>18}", s.label);
        }
        for round in 0..series[0].accuracy.len() {
            print!("\n{round:>5}");
            for s in &series {
                print!(" {:>17.1}%", s.accuracy[round] * 100.0);
            }
        }
        println!();
        all.extend(series);
    }
    all
}

/// Fig 6's cluster counts, clamped to the expected cohort: FedHiSyn clamps
/// K to each round's participants, so a K above the cohort mostly reruns
/// the cohort-sized configuration.
fn fig6_ks(devices: usize) -> Vec<usize> {
    let cohort = (devices as f64 * SERVER_PARTICIPATION) as usize;
    let ks = [1, 10, 20, 30, 40, 50].into_iter();
    ks.filter(|&k| k <= cohort).collect()
}

/// The final accuracies (in %) of the series run on `scope`, in run order.
fn finals(series: &[Series], scope: &str) -> (String, Vec<(String, f64)>) {
    let last = |s: &Series| f64::from(s.accuracy[s.accuracy.len() - 1]) * 100.0;
    let in_scope = series.iter().filter(|s| s.scope == scope);
    let evidence = in_scope.map(|s| (s.label.clone(), last(s)));
    (scope.to_string(), evidence.collect())
}

/// One claim per `(scope, evidence)`, its verdict computed from the
/// evidence values in order.
fn claims(
    tag: &'static str,
    statement: &'static str,
    verdict: fn(&[f64]) -> bool,
    scoped: impl IntoIterator<Item = (String, Vec<(String, f64)>)>,
) -> Vec<Claim> {
    let claim = |(scope, evidence): (String, Vec<(String, f64)>)| {
        let holds = verdict(&evidence.iter().map(|e| e.1).collect::<Vec<_>>());
        Claim {
            tag,
            scope,
            statement,
            evidence,
            holds,
        }
    };
    scoped.into_iter().map(claim).collect()
}

/// Table 1: FedHiSyn (first) costs no more than any baseline.
fn table1_fedhisyn_cheapest(costs: &[f64]) -> bool {
    costs[1..].iter().all(|&c| costs[0] <= c)
}

/// Fig 2 (Observation 1), finals in [`FIG2_MODES`] order: ring > random >
/// no communication.
fn fig2_ordering(v: &[f64]) -> bool {
    v[4] > v[2] && v[2] > v[0]
}

/// Fig 2: training the received model beats averaging it first, for both
/// the ring and random exchange.
fn fig2_train_received(v: &[f64]) -> bool {
    v[4] >= v[3] && v[2] >= v[1]
}

/// Fig 3 (Observation 2), finals of the random, small-to-large and
/// large-to-small rings: a latency-sorted ring beats a random one.
fn fig3_sorted_ring(v: &[f64]) -> bool {
    v[1] > v[0]
}

/// Fig 4 (Observation 3), finals for K = 1, 2, 10, 30: the better of K = 1
/// and K = 2 ends above the largest K, whose rings are too short.
fn fig4_small_k(v: &[f64]) -> bool {
    v[0].max(v[1]) > v[v.len() - 1]
}

/// Fig 6: accuracy rises then falls in K — the best final lies strictly
/// inside the K list.
fn fig6_interior_best(v: &[f64]) -> bool {
    match v {
        [first, inner @ .., last] if !inner.is_empty() => {
            let best = inner.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            best > *first && best > *last
        }
        _ => false,
    }
}

/// Fig 7, finals as (FedHiSyn, FedAvg) pairs in increasing H:
/// FedHiSyn's lead at the largest H is at least its lead at the smallest.
fn fig7_gap_grows(v: &[f64]) -> bool {
    let n = v.len();
    v[n - 2] - v[n - 1] >= v[0] - v[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefacts_run_in_order_and_an_unknown_name_is_rejected() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let cli = |artefacts: &[&'static str], full, trace: Option<&str>| Cli {
            artefacts: artefacts.to_vec(),
            full,
            trace: trace.map(String::from),
        };
        let all = [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig6",
            "fig7",
            "ext_churn",
            "ext_codec",
        ];
        assert_eq!(parse(&[]), Ok(cli(&all, false, None)));
        let some = parse(&["fig7", "--full", "table1"]);
        assert_eq!(some, Ok(cli(&["table1", "fig7"], true, None)));
        let ext = parse(&["ext_codec", "fig2", "ext_churn"]);
        assert_eq!(
            ext,
            Ok(cli(&["fig2", "ext_churn", "ext_codec"], false, None))
        );
        assert_eq!(parse(&["--trace", "p"]), Ok(cli(&[], false, Some("p"))));
        let full = parse(&["--full", "--trace", "t.json"]);
        assert_eq!(full, Ok(cli(&[], true, Some("t.json"))));
        for bad in ["fig5", "--smoke", "Table1", "--stress"] {
            let err = parse(&["fig2", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains(&all.join(" ")), "{err}");
        }
        for bad in [
            &["--trace"][..],
            &["--trace", "--full"],
            &["--trace", "p", "fig2"],
        ] {
            assert!(parse(bad).unwrap_err().contains("--trace"), "{bad:?}");
        }
    }

    #[test]
    fn paper_k_matches_section_6_1() {
        assert_eq!(paper_k(1.0, 100), 10);
        assert_eq!(paper_k(0.5, 100), 10);
        assert_eq!(paper_k(0.1, 100), 2);
        assert_eq!(paper_k(1.0, 4), 4, "clamped to fleet size");
    }

    #[test]
    fn suite_has_seven_algorithms() {
        let cfg = BenchScale::smoke().config(DatasetProfile::MnistLike, Partition::Iid, 1.0);
        let suite = algorithm_suite(&cfg);
        assert_eq!(suite.len(), 7);
        assert_eq!(suite[0].name(), "FedHiSyn");
    }

    #[test]
    fn smoke_target_tracks_best_run() {
        assert!((smoke_target(&[0.4, 0.8, 0.6], 0.9) - 0.72).abs() < 1e-6);
    }

    #[test]
    fn fig6_ks_are_clamped_to_the_expected_cohort() {
        assert_eq!(fig6_ks(BenchScale::smoke().devices), [1, 10, 20]);
        assert_eq!(fig6_ks(BenchScale::full().devices), [1, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn collapsed_only_when_the_run_ends_below_its_first_round() {
        assert!(collapsed(&[0.3, 0.65, 0.1]));
        assert!(collapsed(&[0.3, 0.29]));
        assert!(!collapsed(&[0.3, 0.6, 0.5]), "fell from its peak only");
        assert!(!collapsed(&[0.3, 0.1, 0.3]), "recovered to its start");
        assert!(!collapsed(&[0.3]) && !collapsed(&[]));
    }

    #[test]
    fn table1_renders_and_claims_dirichlet_rows_with_x_as_infinity() {
        let cell = |cost| TableCell {
            algorithm: "A".into(),
            cost,
            final_accuracy: 0.1,
            peak_accuracy: 0.7,
            collapsed: true,
        };
        let row = |partition: Partition, costs: [Option<f64>; 3]| TableRow {
            participation: 0.5,
            partition: partition.label(),
            dataset: "MNIST".into(),
            divergence: 0.0,
            target: 0.5,
            cells: costs.map(cell).into(),
        };
        let rows = [
            row(Partition::Iid, [Some(9.0), Some(1.0), None]),
            row(NON_IID, [Some(2.0), Some(2.0), None]),
            row(NON_IID, [None, Some(40.0), None]),
            row(NON_IID, [None, None, None]),
        ];
        print_table(0.1, 0.01, &rows);
        let claims = table1_claims(&rows);
        let verdicts: Vec<bool> = claims.iter().map(|c| c.holds).collect();
        assert_eq!(verdicts, [true, false, true], "the IID row is not claimed");
        let printed = "[Table 1 | 50% MNIST Dirichlet(0.3)] FedHiSyn's transmission to target \
                       <= every baseline's (X = inf): holds (A 2.0, A 2.0, A inf)";
        assert_eq!(claims[0].to_string(), printed);
        assert!(!table1_fedhisyn_cheapest(&[2.0, 1.5, 3.0]));
    }

    #[test]
    fn finals_read_one_scope_in_run_order() {
        let at = |scope: &str, label: &str, last| Series {
            scope: scope.into(),
            label: label.into(),
            accuracy: vec![0.1, last],
        };
        let s = [
            at("IID", "a", 0.5),
            at("CIFAR-10", "a", 0.7),
            at("IID", "b", 0.25),
        ];
        let evidence = vec![("a".to_string(), 50.0), ("b".to_string(), 25.0)];
        assert_eq!(finals(&s, "IID"), ("IID".to_string(), evidence));
    }

    #[test]
    fn figure_verdicts_hold_and_fail_on_hand_built_finals() {
        type Verdict = fn(&[f64]) -> bool;
        let cases: [(Verdict, &[f64], bool); 21] = [
            // Fig 2: no-comm, random+avg, random, ring+avg, ring.
            (fig2_ordering, &[20.0, 25.0, 30.0, 35.0, 40.0], true),
            (fig2_ordering, &[20.0, 25.0, 45.0, 35.0, 40.0], false),
            (fig2_train_received, &[20.0, 25.0, 30.0, 35.0, 40.0], true),
            (fig2_train_received, &[20.5, 32.7, 29.3, 40.2, 33.3], false),
            // Fig 3: random, small-to-large, large-to-small; a tie fails.
            (fig3_sorted_ring, &[69.2, 71.2, 68.1], true),
            (fig3_sorted_ring, &[50.0, 50.0, 60.0], false),
            // Fig 4: K = 1, 2, 10, 30.
            (fig4_small_k, &[52.7, 57.8, 20.4, 19.8], true),
            (fig4_small_k, &[10.0, 10.0, 30.0, 40.0], false),
            // Fig 6: K in run order; a tie with an end, or no interior, fails.
            (fig6_interior_best, &[67.4, 70.4, 65.4], true),
            (fig6_interior_best, &[96.0, 95.8, 95.2], false),
            (fig6_interior_best, &[70.0, 70.0, 65.0], false),
            (fig6_interior_best, &[60.0, 70.0], false),
            // Fig 7: (FedHiSyn, FedAvg) at H = 2 and H = 20; a tie holds.
            (fig7_gap_grows, &[75.0, 50.0, 50.0, 25.0], true),
            (fig7_gap_grows, &[70.0, 60.0, 69.4, 68.4], false),
            // ext_codec: f32, int8; a gap of exactly 2 points holds.
            (ext::codec_accuracy_kept, &[94.8, 94.6], true),
            (ext::codec_accuracy_kept, &[95.0, 93.0], true),
            (ext::codec_accuracy_kept, &[95.0, 92.8], false),
            (ext::codec_ratio_floors, &[1.0, 3.86], true),
            (ext::codec_ratio_floors, &[1.0, 3.4], false),
            (ext::codec_bytes_fall, &[3.2e7, 8.4e6], true),
            (ext::codec_bytes_fall, &[8.4e6, 8.4e6], false),
        ];
        for (verdict, finals, holds) in cases {
            assert_eq!(verdict(finals), holds, "{finals:?}");
        }
    }

    #[test]
    fn only_a_failed_extension_claim_fails_the_run() {
        let claim = |holds| Claim {
            tag: "T",
            scope: String::new(),
            statement: "s",
            evidence: Vec::new(),
            holds,
        };
        let artefact = |name: &'static str, holds: &[bool]| Artefact {
            name,
            extension: name.starts_with("ext_"),
            series: Vec::new(),
            table: None,
            claims: holds.iter().map(|&h| claim(h)).collect(),
        };
        let paper_fails = [
            artefact("fig2", &[true, false]),
            artefact("ext_codec", &[true]),
        ];
        assert_eq!(exit_code(&paper_fails), 0, "paper claims are print-only");
        let ext_fails = [
            artefact("fig2", &[true]),
            artefact("ext_codec", &[true, false]),
        ];
        assert_eq!(exit_code(&ext_fails), 1, "an extension claim is a gate");
        assert_eq!(exit_code(&[artefact("ext_churn", &[])]), 0);
        assert_eq!(exit_code(&[]), 0);
    }
}
