//! The metric definitions and how each is computed from one repetition:
//! end-to-end figures, failed-operation accounting, the span tree of a
//! traced run and the per-layer ledger read off it.
//!
//! Sources — **S**: the benchmark's own spans; **T**: the wall track of the
//! program's telemetry sink (traced run only); **P**: probes; **C**: counts
//! the program already exposes.

use std::collections::BTreeMap;

use crate::adapter::{Probes, RepRun, RoundFacts, SinkKind, Workload};
use crate::spans::{Ns, Tree, NONE, NO_PARENT};
use crate::stats::mean;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and printed by driver runs. The driver
    /// takes every run at another seed and bounds the spread across them,
    /// so a metric qualifies only if it is steady from seed to seed.
    pub driver: bool,
    pub what: &'static str,
}

/// The bounds are what the spread of ten driver runs, each at another
/// seed, allows on the 2-core reference box, not a statement about how
/// precisely a same-seed A/B can be read. Measured over four sets of ten
/// runs: timing spreads of 2-16 % (once 23 %) — the box's own speed drifts
/// by up to 25 % over a few minutes, at one seed — `wire_mb_per_round`
/// 0.2-7 %, `peak_rss_mb` 0.1-3 % except on `churn_wire`, where some
/// repetitions carry 4.5 MB of allocator surplus and the median flips
/// between the two modes (11 %).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        driver: true,
        what: "timed rounds / wall time of the timed window",
    },
    EndToEnd {
        name: "cpu_ms_per_round",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        driver: true,
        what: "user+sys CPU of all threads across the timed window / rounds",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        driver: true,
        what: "child start to the first timed round: config, data, build_env, pool, warm-up rounds",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        driver: true,
        what: "VmHWM of the child when run_experiment returns",
    },
    // After four rounds `cnn_fedavg` sits on the steep part of its curve:
    // 0.29-0.64 by seed, a spread no bound of at most 25 % can hold. Exact
    // at a given seed, so full runs report and compare it; across seeds
    // the per-workload floors guard it instead.
    EndToEnd {
        name: "final_accuracy",
        unit: "fraction",
        better: "higher",
        bound: 0.01,
        driver: false,
        what: "test accuracy after the last timed round (same-seed runs only; floors otherwise)",
    },
    EndToEnd {
        name: "wire_mb_per_round",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        driver: true,
        what: "encoded bytes incl. framing and retransmits over the timed window / rounds",
    },
];

/// A per-layer metric: `<crate>.<module>.<metric>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub src: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    src: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        src,
        moves,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    m("core.algorithm.round_ms_p50", "ms", "lower", "S", "pooled median of untraced timed rounds; rounds_per_s everywhere"),
    m("core.algorithm.round_ms_tail", "ms", "lower", "S", "highest percentile with >=10 samples beyond it (p50 on short series)"),
    m("core.algorithm.algo_ms", "ms", "lower", "S", "time inside FlAlgorithm::round"),
    m("core.algorithm.runner_self_ms", "ms", "lower", "S,T", "round - algo - evaluation; rounds_per_s on lazy_cohort"),
    m("core.algorithm.virtual_s_per_round", "s", "lower", "C", "simulated seconds; exact, a speed change leaves it identical"),
    m("core.fedhisyn.self_ms", "ms", "lower", "S,T", "algo - clustering - ring phase - aggregation; rounds_per_s on churn_wire"),
    m("core.local.train_ms", "ms", "lower", "T", "sum of local_train spans over lanes; cpu_ms_per_round on mlp_ring"),
    m("core.local.train_calls", "count", "lower", "C", "exact"),
    m("core.local.train_us_per_call", "us", "lower", "P", "rounds_per_s, cpu_ms_per_round on mlp_ring, cnn_fedavg"),
    m("core.local.samples_per_s", "1/s", "higher", "P", "single-thread training throughput at the workload's shard size"),
    m("core.local.eval_ms", "ms", "lower", "T", "rounds_per_s on cnn_fedavg"),
    m("core.engine.cache_hit_ratio", "ratio", "higher", "C", "a drop raises cpu_ms_per_round everywhere"),
    m("core.engine.weight_packs", "count", "lower", "C", "panel repacks of the calling thread's cached model"),
    m("core.engine.arena_high_water_mb", "MB", "lower", "C", "peak_rss_mb on cnn_fedavg"),
    m("core.ring_sim.interval_ms", "ms", "lower", "T", "first lane start to last lane end; rounds_per_s on mlp_ring, churn_wire"),
    m("core.ring_sim.lane_busy_ms", "ms", "lower", "T", "sum of lane spans"),
    m("core.ring_sim.lane_imbalance", "ratio", "lower", "T", "longest lane / mean lane; rounds_per_s on mlp_ring at constant cpu"),
    m("core.ring_sim.loop_self_ms", "ms", "lower", "T", "lane spans - local_train; rounds_per_s on churn_wire"),
    m("core.ring_sim.hops", "count", "lower", "T,C", "exact"),
    m("core.ring_sim.loop_us_per_hop", "us", "lower", "T", "loop_self_ms / hops"),
    m("core.ring_sim.retries", "count", "lower", "C", "exact"),
    m("core.ring_sim.giveups", "count", "lower", "C", "exact"),
    m("core.ring_sim.delivered_ratio", "ratio", "higher", "C", "(hops - giveups) / (hops + retries); wire_mb_per_round on churn_wire"),
    m("cluster.kmeans_us", "us", "lower", "T", "clustering span; rounds_per_s on churn_wire"),
    m("cluster.kmeans_probe_us", "us", "lower", "P", "kmeans_1d at cohort size"),
    m("cluster.points", "count", "lower", "C", "devices clustered per round"),
    m("core.aggregate.ms", "ms", "lower", "T", "aggregation span incl. upload transforms"),
    m("core.aggregate.gb_per_s", "GB/s", "higher", "P", "rounds_per_s on mlp_ring (<1%)"),
    m("nn.train.step_us", "us", "lower", "P", "one mini-batch step via sgd_epoch on a real shard"),
    m("nn.model.forward_us", "us", "lower", "P", "nn.train.step_us"),
    m("nn.model.backward_us", "us", "lower", "P", "nn.train.step_us"),
    m("nn.train.update_us", "us", "lower", "P", "nn.train.step_us"),
    m("nn.train.step_sum_gap", "ratio", "lower", "P", "(step - parts) / step: staging, loss, unattributed"),
    m("nn.model.set_params_us", "us", "lower", "P", "per-hop model load; rounds_per_s on mlp_ring (~1%)"),
    m("nn.model.copy_params_us", "us", "lower", "P", "per-hop model store"),
    m("nn.train.eval_samples_per_s", "1/s", "higher", "P", "core.local.eval_ms"),
    m("nn.layers.conv.im2col_share", "ratio", "lower", "P", "rounds_per_s on cnn_fedavg only"),
    m("nn.layers.conv.gemm_share", "ratio", "lower", "P", "rounds_per_s on cnn_fedavg only"),
    m("nn.layers.conv.transpose_share", "ratio", "lower", "P", "rounds_per_s on cnn_fedavg only"),
    m("nn.layers.conv.col2im_share", "ratio", "lower", "P", "rounds_per_s on cnn_fedavg only"),
    m("tensor.gemm.gflops_nn", "GFLOP/s", "higher", "P", "rounds_per_s on mlp_ring, cnn_fedavg"),
    m("tensor.gemm.gflops_nt", "GFLOP/s", "higher", "P", "rounds_per_s on mlp_ring, cnn_fedavg"),
    m("tensor.gemm.gflops_tn", "GFLOP/s", "higher", "P", "rounds_per_s on mlp_ring, cnn_fedavg"),
    m("tensor.gemm.flops_per_step", "count", "lower", "C", "from model spec x probed batch; exact"),
    m("tensor.gemm.share_of_step", "ratio", "lower", "P", "flops_per_step / gflops / step_us"),
    m("nn.wire.transform_us", "us", "lower", "P", "codec_transform_in_place at the workload's size and codec"),
    m("nn.wire.transform_calls", "count", "lower", "C", "uploads + relay hops (+1 broadcast when lossy)"),
    m("nn.wire.transform_ms", "ms", "lower", "P,C", "rounds_per_s on churn_wire"),
    m("nn.wire.encode_mb_per_s", "MB/s", "higher", "P", "encode_with, MB of f32 parameters"),
    m("nn.wire.decode_mb_per_s", "MB/s", "higher", "P", "decode_with, MB of f32 parameters"),
    m("nn.wire.compression_ratio", "ratio", "higher", "C", "raw / wire bytes; wire_mb_per_round on churn_wire"),
    m("tensor.quant.gb_per_s", "GB/s", "higher", "P", "nn.wire.transform_us"),
    m("simnet.fault.decide_ns", "ns", "lower", "P", "FaultPlan::fault"),
    m("simnet.traffic.retransmit_share", "ratio", "lower", "C", "wire_mb_per_round on churn_wire"),
    m("fleet.model.query_us", "us", "lower", "P", "rounds_per_s on lazy_cohort, churn_wire"),
    m("fleet.sampling.cohort_us", "us", "lower", "P", "rounds_per_s on lazy_cohort"),
    m("fleet.model.realised_devices", "count", "lower", "C", "peak_rss_mb on lazy_cohort"),
    m("fleet.model.realised_state_mb", "MB", "lower", "C", "peak_rss_mb on lazy_cohort"),
    m("data.synth.generate_s", "s", "lower", "P", "setup_s on mlp_ring, cnn_fedavg"),
    m("data.partition.split_s", "s", "lower", "P", "setup_s on mlp_ring, cnn_fedavg"),
    m("data.shard.realise_us", "us", "lower", "P", "rounds_per_s on lazy_cohort"),
    m("data.shard.hit_us", "us", "lower", "P", "env.shard(d) on a resident shard"),
    m("data.shard.hit_ratio", "ratio", "higher", "C", "rounds_per_s on lazy_cohort"),
    m("data.shard.resident_mb", "MB", "lower", "C", "peak_rss_mb on lazy_cohort"),
    m("data.shard.evictions", "count", "lower", "C", "rounds_per_s on lazy_cohort"),
    m("telemetry.span.events", "count", "lower", "C", "sink spans per timed round of the traced run"),
    m("telemetry.span.dropped", "count", "lower", "C", "must be 0"),
    m("bench.process.parallel_efficiency", "ratio", "higher", "S", "cpu / (wall x threads); rounds_per_s on mlp_ring"),
    m("bench.process.threads", "count", "higher", "C", "pool threads"),
    m("bench.trace.overhead_pct", "%", "lower", "S", "traced vs untraced round_ms_p50; informational"),
    m("bench.trace.record_equal", "bool", "higher", "C", "traced RunRecord == untraced; must be 1"),
    m("bench.probe.train_gap_pct", "%", "lower", "P,T", "|calls x us_per_call - train_ms| / train_ms; reported, not asserted"),
];

/// Per-layer metrics the parent adds from several repetitions (see
/// `WorkloadResult::per_layer`); every other one comes out of the traced
/// child.
#[cfg(test)]
pub const CROSS_REP: [&str; 5] = [
    "core.algorithm.round_ms_p50",
    "core.algorithm.round_ms_tail",
    "bench.process.parallel_efficiency",
    "bench.trace.overhead_pct",
    "bench.trace.record_equal",
];

/// The definition tables as markdown (the glossary of `README.md`).
pub fn glossary() -> String {
    let mut out = String::from("| end-to-end metric | unit | better | bound | in `BENCHMARK.json` | definition |\n|---|---|---|---|---|---|\n");
    for e in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} | {} |\n",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            if e.driver { "yes" } else { "no" },
            e.what
        );
    }
    out += "\n| per-layer metric | unit | better | src | what it is; what it should move |\n|---|---|---|---|---|\n";
    for d in PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            d.name, d.unit, d.better, d.src, d.moves
        );
    }
    out
}

/// The six end-to-end values of one repetition, in [`END_TO_END`] order.
pub fn end_to_end(run: &RepRun, peak_rss_mb: f64) -> [f64; 6] {
    let r = run.rounds as f64;
    let timed = timed_facts(run);
    [
        r / (run.window_wall_ns as f64 / 1e9),
        run.window_cpu_ns as f64 / 1e6 / r,
        run.setup_ns as f64 / 1e9,
        peak_rss_mb,
        run.facts.last().map_or(0.0, |f| f.accuracy),
        timed.iter().map(|f| f.wire_bytes).sum::<f64>() / 1e6 / r,
    ]
}

fn timed_facts(run: &RepRun) -> Vec<RoundFacts> {
    run.facts
        .iter()
        .filter(|f| f.round >= run.warmup)
        .copied()
        .collect()
}

/// Timed rounds that failed, with the reason for each: the record is
/// missing or a blackout, the algorithm was never entered, the accuracy
/// is not a number — or, for the whole repetition, the final accuracy is
/// under the workload's floor (then every round is charged). A shortened
/// run (`--smoke`) cannot reach the floors and passes `floors: false`.
pub fn failed_ops(run: &RepRun, w: &Workload, floors: bool) -> Vec<String> {
    let mut reasons = Vec::new();
    for round in run.warmup..run.warmup + run.rounds {
        match run.facts.iter().find(|f| f.round == round) {
            None => reasons.push(format!("round {round}: no RoundRecord")),
            Some(f) if f.participants == 0 => reasons.push(format!("round {round}: blackout")),
            Some(f) if !f.accuracy.is_finite() => {
                reasons.push(format!("round {round}: accuracy {}", f.accuracy))
            }
            Some(_) if !run.marks.iter().any(|m| m.round == round) => {
                reasons.push(format!("round {round}: algorithm never entered"))
            }
            Some(_) => {}
        }
    }
    let last = run.facts.last().map_or(f64::NAN, |f| f.accuracy);
    let first = run.facts.first().map_or(f64::NAN, |f| f.accuracy);
    let floor_ok = last >= w.accuracy_floor && (!w.must_improve || last > first);
    if floors && !floor_ok {
        reasons = (run.warmup..run.warmup + run.rounds)
            .map(|r| {
                format!(
                    "round {r}: final accuracy {last} under the floor {} (round 0: {first})",
                    w.accuracy_floor
                )
            })
            .collect();
    }
    reasons
}

/// Duration of each timed round as seen from outside, in ms: from one
/// `FlAlgorithm::round` entry to the next (the last one to
/// `run_experiment`'s return), so evaluation and runner bookkeeping count.
pub fn round_ms(run: &RepRun) -> Vec<f64> {
    let timed: Vec<_> = run.marks.iter().filter(|m| m.round >= run.warmup).collect();
    timed
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let end = timed
                .get(i + 1)
                .map_or(run.run_experiment.1, |n| n.entry_ns);
            (end - m.entry_ns) as f64 / 1e6
        })
        .collect()
}

// Span names: the layer each interval belongs to.
pub const CHILD: &str = "bench.child";
pub const BUILD_ENV: &str = "core.config.build_env";
pub const RUN: &str = "core.algorithm.run_experiment";
pub const ROUND: &str = "core.algorithm.round";
pub const ALGO: &str = "core.algorithm.algo";
pub const KMEANS: &str = "cluster.kmeans";
pub const PHASE: &str = "core.ring_sim.phase";
pub const LANE: &str = "core.ring_sim.lane";
pub const TRAIN: &str = "core.local.train";
pub const AGGREGATE: &str = "core.aggregate";
pub const EVAL: &str = "core.local.eval";

#[derive(Default)]
struct LaneSpans {
    span: Option<(Ns, Ns)>,
    trains: Vec<(Ns, Ns)>,
    hops: u64,
}

#[derive(Default)]
struct RoundSpans {
    round: Option<(Ns, Ns)>,
    clustering: Option<(Ns, Ns)>,
    aggregation: Option<(Ns, Ns)>,
    evaluation: Option<(Ns, Ns)>,
    lanes: BTreeMap<u32, LaneSpans>,
}

/// Merge the benchmark's own spans with the sink's wall track into one
/// tree: child → {build_env, run_experiment → round → {algo → {kmeans,
/// ring phase → lane → train, aggregate}, eval}}. The ring phase is the
/// hull of a round's lanes; relay hops and retries are zero-width markers
/// in the sink and are folded into their lane's `units`.
pub fn build_tree(run: &RepRun) -> Tree {
    let mut rounds: BTreeMap<usize, RoundSpans> = BTreeMap::new();
    for s in run.sink.iter().flat_map(|d| &d.spans) {
        let r = rounds.entry(s.round).or_default();
        let at = Some((s.start_ns, s.end_ns));
        match s.kind {
            SinkKind::Round => r.round = at,
            SinkKind::Clustering => r.clustering = at,
            SinkKind::Aggregation => r.aggregation = at,
            SinkKind::Evaluation => r.evaluation = at,
            SinkKind::Lane => r.lanes.entry(s.lane).or_default().span = at,
            SinkKind::Train => r
                .lanes
                .entry(s.lane)
                .or_default()
                .trains
                .push((s.start_ns, s.end_ns)),
            SinkKind::Hop => r.lanes.entry(s.lane).or_default().hops += 1,
            SinkKind::Retry => {}
        }
    }

    let mut t = Tree::new();
    let end = run.run_experiment.1;
    let child = t.push(NO_PARENT, CHILD, NONE, NONE, 0, end, 0);
    t.push(
        child,
        BUILD_ENV,
        NONE,
        NONE,
        run.build_env.0,
        run.build_env.1,
        0,
    );
    let total = (run.warmup + run.rounds) as u64;
    let (run_start, run_end) = run.run_experiment;
    let run_id = t.push(child, RUN, NONE, NONE, run_start, run_end, total);
    for (&round, spans) in &rounds {
        let r = round as i64;
        let mark = run.marks.iter().find(|m| m.round == round);
        // Baselines emit no round span of their own; the runner does.
        let Some((start, end)) = spans.round else {
            continue;
        };
        let participants = mark.map_or(0, |m| m.participants as u64);
        let round_id = t.push(run_id, ROUND, r, NONE, start, end, participants);
        if let Some(m) = mark {
            let algo = t.push(round_id, ALGO, r, NONE, m.entry_ns, m.exit_ns, participants);
            if let Some((s, e)) = spans.clustering {
                t.push(algo, KMEANS, r, NONE, s, e, participants);
            }
            let lanes: Vec<_> = spans
                .lanes
                .iter()
                .filter_map(|(&lane, l)| l.span.map(|at| (lane, at, l)))
                .collect();
            if !lanes.is_empty() {
                let s = lanes.iter().map(|(_, at, _)| at.0).min().expect("lanes");
                let e = lanes.iter().map(|(_, at, _)| at.1).max().expect("lanes");
                let phase = t.push(algo, PHASE, r, NONE, s, e, lanes.len() as u64);
                for (lane, (s, e), l) in lanes {
                    let lane_id = t.push(phase, LANE, r, lane as i64, s, e, l.hops);
                    for &(s, e) in &l.trains {
                        t.push(lane_id, TRAIN, r, lane as i64, s, e, 1);
                    }
                }
            }
            if let Some((s, e)) = spans.aggregation {
                t.push(algo, AGGREGATE, r, NONE, s, e, 0);
            }
        }
        if let Some((s, e)) = spans.evaluation {
            t.push(round_id, EVAL, r, NONE, s, e, 0);
        }
    }
    t
}

/// Validate the tree of a traced run: nesting (lanes of one ring phase
/// run side by side, everything else is sequential) and one round span
/// per recorded round.
pub fn validate_tree(run: &RepRun, tree: &Tree) -> Result<(), String> {
    let slack = run.sink.as_ref().map_or(0, |s| s.clock_slack_ns);
    tree.validate(slack, |s| s.name == PHASE)?;
    let rounds = tree.spans().iter().filter(|s| s.name == ROUND).count();
    if rounds != run.facts.len() {
        return Err(format!(
            "{rounds} round spans for {} recorded rounds",
            run.facts.len()
        ));
    }
    Ok(())
}

fn ms(ns: Ns) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer ledger of one traced repetition (every [`PER_LAYER`]
/// metric except the [`CROSS_REP`] ones), per timed round.
pub fn per_layer(run: &RepRun, tree: &Tree, p: &Probes) -> Vec<(&'static str, f64)> {
    let r = run.rounds as f64;
    let warmup = run.warmup as i64;
    let timed: Vec<_> = tree.spans().iter().filter(|s| s.round >= warmup).collect();
    let sum_ms = |name: &str| -> f64 {
        ms(timed
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum())
    };
    let self_ms = |name: &str| -> f64 {
        ms(timed
            .iter()
            .filter(|s| s.name == name)
            .map(|s| tree.self_ns(s.id))
            .sum())
    };
    let units = |name: &str| -> f64 {
        timed
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.units)
            .sum::<u64>() as f64
    };
    let is_ring = timed.iter().any(|s| s.name == PHASE);

    let facts = timed_facts(run);
    let before = run.facts.iter().rfind(|f| f.round < run.warmup);
    let last = facts.last();
    let fsum = |f: fn(&RoundFacts) -> f64| facts.iter().map(f).sum::<f64>();
    let delta = |f: fn(&RoundFacts) -> u64| -> f64 {
        last.map_or(0, f).saturating_sub(before.map_or(0, f)) as f64
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let train_ms = sum_ms(TRAIN) / r;
    // Every local-training call and every evaluation checks one model
    // out of the engine's cache: per round, trains + 1.
    let train_calls = facts
        .iter()
        .map(|f| (f.cache_hits + f.cache_misses).saturating_sub(1) as f64)
        .sum::<f64>()
        / r;
    let hops = fsum(|f| f.peer_transfers) / r;
    let loop_self_ms = self_ms(LANE) / r;
    let sink = run.sink.as_ref();
    let retries = sink.map_or(0.0, |s| s.retries as f64) / r;
    let giveups = sink.map_or(0.0, |s| s.giveups as f64) / r;
    let imbalance = mean(
        &tree
            .spans()
            .iter()
            .filter(|s| s.name == PHASE && s.round >= warmup)
            .map(|phase| {
                let lanes: Vec<f64> = tree.children_of(phase.id).map(|l| ms(l.dur_ns())).collect();
                ratio(lanes.iter().copied().fold(0.0, f64::max), mean(&lanes))
            })
            .collect::<Vec<_>>(),
    );
    let hits = fsum(|f| f.cache_hits as f64);
    let uploads = fsum(|f| f.uploads) / r;
    let transform_calls = uploads + hops + if run.lossy_codec { 1.0 } else { 0.0 };
    let wire = fsum(|f| f.wire_bytes);
    let shard_hits = delta(|f| f.data_shard_cache_hits);
    let shard_misses = delta(|f| f.data_shards_realised);
    let step_parts = p.forward_us + p.backward_us + p.update_us;
    let gflops = mean(&p.gemm_gflops);
    let events = sink.map_or(0, |s| {
        s.spans.iter().filter(|e| e.round >= run.warmup).count()
    });

    vec![
        ("core.algorithm.algo_ms", sum_ms(ALGO) / r),
        ("core.algorithm.runner_self_ms", self_ms(ROUND) / r),
        (
            "core.algorithm.virtual_s_per_round",
            (last.map_or(0.0, |f| f.virtual_time) - before.map_or(0.0, |f| f.virtual_time)) / r,
        ),
        (
            "core.fedhisyn.self_ms",
            if is_ring { self_ms(ALGO) / r } else { 0.0 },
        ),
        ("core.local.train_ms", train_ms),
        ("core.local.train_calls", train_calls),
        ("core.local.train_us_per_call", p.train_us_per_call),
        ("core.local.samples_per_s", p.train_samples_per_s),
        ("core.local.eval_ms", sum_ms(EVAL) / r),
        (
            "core.engine.cache_hit_ratio",
            ratio(hits, hits + fsum(|f| f.cache_misses as f64)),
        ),
        ("core.engine.weight_packs", delta(|f| f.weight_packs) / r),
        (
            "core.engine.arena_high_water_mb",
            facts
                .iter()
                .map(|f| f.arena_high_water_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1e6,
        ),
        ("core.ring_sim.interval_ms", sum_ms(PHASE) / r),
        ("core.ring_sim.lane_busy_ms", sum_ms(LANE) / r),
        ("core.ring_sim.lane_imbalance", imbalance),
        ("core.ring_sim.loop_self_ms", loop_self_ms),
        ("core.ring_sim.hops", hops),
        (
            "core.ring_sim.loop_us_per_hop",
            ratio(loop_self_ms * 1e3, hops),
        ),
        ("core.ring_sim.retries", retries),
        ("core.ring_sim.giveups", giveups),
        (
            "core.ring_sim.delivered_ratio",
            ratio(hops - giveups, hops + retries),
        ),
        ("cluster.kmeans_us", sum_ms(KMEANS) / r * 1e3),
        (
            "cluster.kmeans_probe_us",
            if is_ring { p.kmeans_us } else { 0.0 },
        ),
        ("cluster.points", units(KMEANS) / r),
        ("core.aggregate.ms", sum_ms(AGGREGATE) / r),
        ("core.aggregate.gb_per_s", p.aggregate_gb_per_s),
        ("nn.train.step_us", p.step_us),
        ("nn.model.forward_us", p.forward_us),
        ("nn.model.backward_us", p.backward_us),
        ("nn.train.update_us", p.update_us),
        (
            "nn.train.step_sum_gap",
            ratio(p.step_us - step_parts, p.step_us),
        ),
        ("nn.model.set_params_us", p.set_params_us),
        ("nn.model.copy_params_us", p.copy_params_us),
        ("nn.train.eval_samples_per_s", p.eval_samples_per_s),
        ("nn.layers.conv.im2col_share", p.conv_shares[0]),
        ("nn.layers.conv.gemm_share", p.conv_shares[1]),
        ("nn.layers.conv.transpose_share", p.conv_shares[2]),
        ("nn.layers.conv.col2im_share", p.conv_shares[3]),
        ("tensor.gemm.gflops_nn", p.gemm_gflops[0]),
        ("tensor.gemm.gflops_nt", p.gemm_gflops[1]),
        ("tensor.gemm.gflops_tn", p.gemm_gflops[2]),
        ("tensor.gemm.flops_per_step", p.gemm_flops_per_step),
        (
            "tensor.gemm.share_of_step",
            ratio(ratio(p.gemm_flops_per_step, gflops * 1e9), p.step_us / 1e6),
        ),
        ("nn.wire.transform_us", p.transform_us),
        ("nn.wire.transform_calls", transform_calls),
        (
            "nn.wire.transform_ms",
            p.transform_us * transform_calls / 1e3,
        ),
        ("nn.wire.encode_mb_per_s", p.encode_mb_per_s),
        ("nn.wire.decode_mb_per_s", p.decode_mb_per_s),
        (
            "nn.wire.compression_ratio",
            ratio(fsum(|f| f.raw_bytes), wire),
        ),
        ("tensor.quant.gb_per_s", p.quant_gb_per_s),
        ("simnet.fault.decide_ns", p.fault_decide_ns),
        (
            "simnet.traffic.retransmit_share",
            ratio(fsum(|f| f.retransmit_bytes), wire),
        ),
        ("fleet.model.query_us", p.fleet_query_us),
        ("fleet.sampling.cohort_us", p.cohort_us),
        (
            "fleet.model.realised_devices",
            last.map_or(0.0, |f| f.fleet_realised_devices as f64),
        ),
        (
            "fleet.model.realised_state_mb",
            last.map_or(0.0, |f| f.fleet_realised_state_bytes as f64) / 1e6,
        ),
        ("data.synth.generate_s", p.synth_generate_s),
        ("data.partition.split_s", p.partition_split_s),
        ("data.shard.realise_us", p.shard_realise_us),
        ("data.shard.hit_us", p.shard_hit_us),
        (
            "data.shard.hit_ratio",
            ratio(shard_hits, shard_hits + shard_misses),
        ),
        (
            "data.shard.resident_mb",
            last.map_or(0.0, |f| f.data_resident_shard_bytes as f64) / 1e6,
        ),
        ("data.shard.evictions", run.evictions as f64 / r),
        ("telemetry.span.events", events as f64 / r),
        (
            "telemetry.span.dropped",
            sink.map_or(0.0, |s| s.dropped as f64),
        ),
        ("bench.process.threads", run.threads as f64),
        (
            "bench.probe.train_gap_pct",
            100.0
                * ratio(
                    (train_calls * p.train_us_per_call / 1e3 - train_ms).abs(),
                    train_ms,
                ),
        ),
    ]
}

/// Exact counts the sink's spans and the program's counters must agree
/// on in a traced run: one `local_train` span per model checked out for
/// training, one `relay_hop` marker per peer transfer.
pub fn cross_check_counts(run: &RepRun, tree: &Tree) -> Result<(), String> {
    let warmup = run.warmup as i64;
    let in_window = |name: &'static str| {
        tree.spans()
            .iter()
            .filter(move |s| s.name == name && s.round >= warmup)
    };
    if in_window(PHASE).next().is_none() {
        return Ok(());
    }
    let facts = timed_facts(run);
    let trains = in_window(TRAIN).count() as u64;
    let checked_out: u64 = facts
        .iter()
        .map(|f| (f.cache_hits + f.cache_misses).saturating_sub(1))
        .sum();
    if trains != checked_out {
        return Err(format!(
            "{trains} local_train spans but {checked_out} models checked out for training"
        ));
    }
    // A transfer abandoned after its retries is charged but never lands.
    let hops: u64 = in_window(LANE).map(|s| s.units).sum();
    let giveups = run.sink.as_ref().map_or(0, |s| s.giveups);
    let transfers = facts.iter().map(|f| f.peer_transfers).sum::<f64>();
    if (hops + giveups) as f64 != transfers {
        return Err(format!(
            "{hops} relay_hop spans + {giveups} give-ups but {transfers} peer transfers"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{AlgoMark, SinkDump, SinkSpan};

    fn name_ok(name: &str) -> bool {
        let charset = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        charset && name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit, e.better))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit, l.better)))
        {
            assert!(name_ok(name), "name {name}");
            assert!(unit_ok(unit), "unit {unit} of {name}");
            assert!(matches!(better, "higher" | "lower"), "{name}");
            assert!(seen.insert(name), "{name} defined twice");
        }
        assert!(!name_ok("bad name") && !name_ok(".x") && !name_ok("µs"));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
        for name in CROSS_REP {
            assert!(PER_LAYER.iter().any(|l| l.name == name), "{name}");
        }
    }

    #[test]
    fn readme_glossary_is_the_definition_tables() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(readme).unwrap();
        assert!(
            readme.contains(&glossary()),
            "paste `ledger --glossary` into README.md"
        );
    }

    fn facts(round: usize, accuracy: f64) -> RoundFacts {
        RoundFacts {
            round,
            accuracy,
            participants: 4,
            virtual_time: 2.0 * (round + 1) as f64,
            uploads: 4.0,
            peer_transfers: 3.0,
            wire_bytes: 7e6,
            raw_bytes: 14e6,
            retransmit_bytes: 1e6,
            cache_hits: 3,
            cache_misses: 0,
            weight_packs: 10 * (round as u64 + 1),
            arena_high_water_bytes: 2_000_000,
            fleet_realised_devices: 9,
            fleet_realised_state_bytes: 3_000_000,
            data_shards_realised: round as u64 + 1,
            data_shard_cache_hits: 3 * (round as u64 + 1),
            data_resident_shard_bytes: 500_000,
        }
    }

    /// Two rounds (one warm-up, one timed) of 1000 ns each; in the timed
    /// one: algo [1100, 1800] -> kmeans [1100, 1150], lanes [1200, 1600]
    /// (train [1250, 1450]) and [1300, 1700], aggregate [1720, 1790];
    /// eval [1850, 1950].
    fn traced_run() -> RepRun {
        let span = |kind, round, lane, start_ns, end_ns| SinkSpan {
            kind,
            round,
            lane,
            start_ns,
            end_ns,
        };
        let mut spans = vec![span(SinkKind::Round, 0, u32::MAX, 0, 1000)];
        spans.extend([
            span(SinkKind::Clustering, 1, u32::MAX, 1100, 1150),
            span(SinkKind::Train, 1, 0, 1250, 1450),
            span(SinkKind::Hop, 1, 0, 1450, 1450),
            span(SinkKind::Hop, 1, 0, 1460, 1460),
            span(SinkKind::Lane, 1, 0, 1200, 1600),
            span(SinkKind::Train, 1, 1, 1350, 1650),
            span(SinkKind::Hop, 1, 1, 1650, 1650),
            span(SinkKind::Retry, 1, 1, 1660, 1660),
            span(SinkKind::Lane, 1, 1, 1300, 1700),
            span(SinkKind::Aggregation, 1, u32::MAX, 1720, 1790),
            span(SinkKind::Evaluation, 1, u32::MAX, 1850, 1950),
            span(SinkKind::Round, 1, u32::MAX, 1000, 2000),
        ]);
        let mark = |round, entry_ns, exit_ns| AlgoMark {
            round,
            participants: 4,
            entry_ns,
            exit_ns,
        };
        RepRun {
            warmup: 1,
            rounds: 1,
            setup_ns: 1100,
            window_wall_ns: 900,
            window_cpu_ns: 1350,
            build_env: (0, 0),
            run_experiment: (0, 2000),
            marks: vec![mark(0, 100, 800), mark(1, 1100, 1800)],
            facts: vec![facts(0, 0.5), facts(1, 0.75)],
            evictions: 2,
            record_fnv: 1,
            kernel_tier: "avx2".into(),
            threads: 2,
            lossy_codec: true,
            sink: Some(SinkDump {
                spans,
                dropped: 0,
                clock_slack_ns: 0,
                retries: 1,
                giveups: 0,
            }),
        }
    }

    fn value(layers: &[(&'static str, f64)], name: &str) -> f64 {
        layers.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn end_to_end_comes_from_the_timed_window() {
        let e = end_to_end(&traced_run(), 80.0);
        assert_eq!(e[0], 1.0 / 900e-9); // rounds_per_s
        assert_eq!(e[1], 1350.0 / 1e6); // cpu_ms_per_round
        assert_eq!(e[2], 1100e-9); // setup_s
        assert_eq!(e[3], 80.0);
        assert_eq!(e[4], 0.75);
        assert_eq!(e[5], 7.0);
        // Entry of the timed round to run_experiment's return.
        assert_eq!(round_ms(&traced_run()), vec![900.0 / 1e6]);
    }

    #[test]
    fn self_times_are_the_remainders_of_the_tree() {
        let run = traced_run();
        let tree = build_tree(&run);
        validate_tree(&run, &tree).unwrap();
        cross_check_counts(&run, &tree).unwrap();
        let l = per_layer(&run, &tree, &Probes::default());
        let ns = |x: f64| (x * 1e6).round();
        assert_eq!(ns(value(&l, "core.algorithm.algo_ms")), 700.0);
        // round 1000 - algo 700 - eval 100
        assert_eq!(ns(value(&l, "core.algorithm.runner_self_ms")), 200.0);
        // algo 700 - kmeans 50 - phase [1200, 1700] 500 - aggregate 70
        assert_eq!(ns(value(&l, "core.fedhisyn.self_ms")), 80.0);
        assert_eq!(ns(value(&l, "core.ring_sim.interval_ms")), 500.0);
        assert_eq!(ns(value(&l, "core.ring_sim.lane_busy_ms")), 800.0);
        // lanes 400 + 400 minus trains 200 + 300
        assert_eq!(ns(value(&l, "core.ring_sim.loop_self_ms")), 300.0);
        assert_eq!(ns(value(&l, "core.local.train_ms")), 500.0);
        assert_eq!(value(&l, "core.ring_sim.lane_imbalance"), 1.0);
        assert_eq!(value(&l, "core.local.train_calls"), 2.0);
        assert_eq!(value(&l, "core.ring_sim.hops"), 3.0);
        assert_eq!(value(&l, "core.ring_sim.delivered_ratio"), 0.75);
        assert_eq!(value(&l, "core.algorithm.virtual_s_per_round"), 2.0);
        assert_eq!(value(&l, "nn.wire.compression_ratio"), 2.0);
        assert_eq!(value(&l, "nn.wire.transform_calls"), 8.0);
        assert_eq!(value(&l, "data.shard.hit_ratio"), 0.75);
        assert_eq!(value(&l, "core.engine.weight_packs"), 10.0);
        assert_eq!(value(&l, "telemetry.span.events"), 12.0);
    }

    #[test]
    fn the_child_reports_every_per_layer_metric_but_the_cross_rep_ones() {
        let run = traced_run();
        let l = per_layer(&run, &build_tree(&run), &Probes::default());
        let mut got: Vec<&str> = l.iter().map(|(n, _)| *n).collect();
        got.extend(CROSS_REP);
        got.sort_unstable();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn a_child_escaping_its_parent_fails_validation() {
        let mut run = traced_run();
        // The algorithm is entered before its round span starts.
        run.marks[1].entry_ns = 900;
        let tree = build_tree(&run);
        let err = validate_tree(&run, &tree).unwrap_err();
        assert!(err.contains("leaves its parent"), "{err}");
    }

    #[test]
    fn span_and_counter_disagreement_is_caught() {
        let mut run = traced_run();
        run.facts[1].peer_transfers = 5.0;
        let tree = build_tree(&run);
        assert!(cross_check_counts(&run, &tree)
            .unwrap_err()
            .contains("relay_hop"));
    }

    #[test]
    fn failed_operations_are_charged_per_round_or_per_repetition() {
        let w = crate::adapter::workload("churn_wire").unwrap();
        let mut run = traced_run();
        run.facts[1].accuracy = 0.95;
        assert!(failed_ops(&run, w, true).is_empty());
        run.facts[1].participants = 0;
        assert_eq!(failed_ops(&run, w, true), vec!["round 1: blackout"]);
        run.facts[1].participants = 4;
        run.facts[1].accuracy = f64::NAN;
        // NaN fails the round and the floor; the floor charges every round.
        assert_eq!(failed_ops(&run, w, true).len(), 1);
        run.facts[1].accuracy = 0.5;
        assert!(failed_ops(&run, w, true)[0].contains("under the floor"));
        assert!(
            failed_ops(&run, w, false).is_empty(),
            "no floors on a smoke run"
        );
        run.facts.pop();
        assert_eq!(failed_ops(&run, w, true).len(), 1);
    }
}
