//! The two axes the paper does not sweep. The paper freezes the fleet and
//! sends full-precision models; `ext_churn` asks how much accuracy each
//! protocol keeps when devices drop out between rounds and die inside
//! rings, and `ext_codec` how many bytes a round of FedHiSyn accuracy
//! costs under int8 quantization with error feedback, on a wire that
//! loses frames. Both are seed-deterministic and
//! replay their most aggressive cell to prove it.

use std::path::Path;

use fedhisyn_baselines::{FedAvg, TFedAvg};
use fedhisyn_core::{run_experiment, ExperimentConfig, FedHiSyn, RunRecord};
use fedhisyn_data::{DatasetProfile, Partition};
use fedhisyn_fleet::FleetDynamics;
use fedhisyn_nn::Codec;
use fedhisyn_simnet::{FaultConfig, TrafficSnapshot};

use crate::harness::BenchScale;
use crate::trace::run_traced;
use crate::{claims, Claim, Series};

/// `ext_churn`'s per-round dropout rates, from a static fleet to heavy
/// churn, and the protocols it compares.
const CHURN_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];
const CHURN_ALGORITHMS: [&str; 3] = ["FedHiSyn", "FedAvg", "TFedAvg"];

/// `ext_codec`'s wire codecs and frame-loss rates. The `Codec::F32` row is
/// the plain fault sweep: retry overhead against loss rate with no
/// compression in the way.
const CODECS: [Codec; 2] = [Codec::F32, Codec::Int8];
const LOSSES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

fn churn_config(scale: &BenchScale, devices: usize, rounds: usize, rate: f64) -> ExperimentConfig {
    let fleet = if rate == 0.0 {
        FleetDynamics::default()
    } else {
        // Dropout at `rate`, plus mid-ring failures at half the rate —
        // churny fleets crash mid-interval too.
        let mut d = FleetDynamics::churn(rate);
        d.mid_round_failure = rate / 2.0;
        d
    };
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(scale.scale)
        .devices(devices)
        .partition(Partition::Dirichlet { beta: 0.3 })
        .fleet(fleet)
        .rounds(rounds)
        .local_epochs(scale.local_epochs)
        .seed(scale.seed)
        .build()
}

fn run_churn_cell(cfg: &ExperimentConfig, which: &str) -> RunRecord {
    let mut env = cfg.build_env();
    match which {
        "FedHiSyn" => {
            let mut a = FedHiSyn::new(cfg, 10.min(cfg.n_devices));
            run_experiment(&mut a, &mut env, cfg.rounds)
        }
        "FedAvg" => run_experiment(&mut FedAvg::new(cfg), &mut env, cfg.rounds),
        "TFedAvg" => run_experiment(&mut TFedAvg::new(cfg), &mut env, cfg.rounds),
        _ => unreachable!("unknown algorithm {which}"),
    }
}

/// `ext_churn`: final accuracy of FedHiSyn and two server-collected
/// baselines per dropout rate, mid-ring failures riding along at half the
/// rate. One series per (rate, protocol) cell.
pub(crate) fn churn(scale: &BenchScale) -> Vec<Series> {
    let (devices, rounds) = (scale.devices, scale.rounds_flat.min(12));
    println!("== accuracy vs churn rate ({devices} devices, {rounds} rounds, Dirichlet(0.3)) ==");
    print!("{:>6}", "churn");
    for which in CHURN_ALGORITHMS {
        print!(" {which:>10}");
    }
    println!();

    let mut series = Vec::new();
    for rate in CHURN_RATES {
        print!("{:>5.0}%", rate * 100.0);
        for which in CHURN_ALGORITHMS {
            let record = run_churn_cell(&churn_config(scale, devices, rounds, rate), which);
            print!(" {:>9.1}%", record.final_accuracy() * 100.0);
            series.push(Series {
                scope: format!("churn {:.0}%", rate * 100.0),
                label: which.to_string(),
                accuracy: record.accuracy_series(),
            });
        }
        println!();
    }

    // Determinism spot-check: replay the churniest FedHiSyn cell and
    // demand an identical record.
    let last_rate = CHURN_RATES[CHURN_RATES.len() - 1];
    let cfg = churn_config(scale, devices, rounds, last_rate);
    let (a, b) = (
        run_churn_cell(&cfg, "FedHiSyn"),
        run_churn_cell(&cfg, "FedHiSyn"),
    );
    assert_eq!(a, b, "churned runs must replay bit-identically");
    println!("\ndeterminism check: churn {last_rate} replayed bit-identically ✓");
    series
}

/// `--trace <path>`: one short churned FedHiSyn cell (at most 8 devices,
/// 3 rounds, 10% churn) with the telemetry sink enabled; the trace goes to
/// `path` and is validated in-process. Kept apart from the sweep so
/// tracing never perturbs the recorded figures.
pub(crate) fn churn_trace(scale: &BenchScale, path: &Path) {
    let cfg = churn_config(scale, 8.min(scale.devices), 3, 0.1);
    let (record, _) = run_traced(&cfg, 10.min(cfg.n_devices), path);
    println!(
        "traced churn smoke: final acc {:.1}%, {} rounds",
        record.final_accuracy() * 100.0,
        record.rounds.len()
    );
}

fn codec_config(scale: &BenchScale, rounds: usize, codec: Codec, loss: f64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(scale.scale)
        .devices(scale.devices)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .rounds(rounds)
        .local_epochs(scale.local_epochs)
        .seed(scale.seed)
        .codec(codec)
        .faults(FaultConfig::lossy(loss))
        .build()
}

fn run_codec_cell(cfg: &ExperimentConfig) -> (RunRecord, TrafficSnapshot) {
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(cfg, 10.min(cfg.n_devices));
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    (record, env.meter.snapshot())
}

/// `ext_codec`: FedHiSyn under every codec × loss cell, charged the
/// *encoded* bytes the traffic meter counted, retries included. One series
/// per cell, and per loss rate three claims on the f32 and int8 cells —
/// the trade the codec layer exists for.
pub(crate) fn codec(scale: &BenchScale) -> (Vec<Series>, Vec<Claim>) {
    let rounds = scale.rounds_flat.min(12);
    println!(
        "== accuracy vs encoded wire bytes ({} devices, {rounds} rounds, Dirichlet(0.1)) ==",
        scale.devices
    );

    let mut series = Vec::new();
    let (mut accuracy, mut ratio, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for loss in LOSSES {
        let scope = format!("loss {:.0}%", loss * 100.0);
        let mut cells = Vec::new();
        for codec in CODECS {
            let (record, traffic) = run_codec_cell(&codec_config(scale, rounds, codec, loss));
            println!(
                "  {:<8} loss {:>4.0}%: acc {:>5.1}%  wire {:>12.0} B  ({:>5.2}x, {:>4.1}% retransmit)",
                codec.label(),
                loss * 100.0,
                record.final_accuracy() * 100.0,
                traffic.wire_bytes,
                traffic.compression_ratio(),
                100.0 * traffic.retransmit_bytes / traffic.wire_bytes
            );
            cells.push((codec.label(), record.final_accuracy(), traffic));
            series.push(Series {
                scope: scope.clone(),
                label: codec.label(),
                accuracy: record.accuracy_series(),
            });
        }
        // The claims read the f32 and int8 cells.
        let evidence = |value: fn(f32, &TrafficSnapshot) -> f64| {
            let traded = cells.iter();
            let traded = traded.map(|(label, acc, t)| (label.clone(), value(*acc, t)));
            (scope.clone(), traded.collect::<Vec<_>>())
        };
        accuracy.push(evidence(|acc, _| f64::from(acc) * 100.0));
        ratio.push(evidence(|_, t| t.compression_ratio()));
        bytes.push(evidence(|_, t| t.wire_bytes));
    }

    // Determinism spot-check: int8 on a lossy wire replays
    // bit-identically, traffic ledgers included.
    let cfg = codec_config(scale, rounds, Codec::Int8, 0.15);
    let (a, ta) = run_codec_cell(&cfg);
    let (b, tb) = run_codec_cell(&cfg);
    assert_eq!(a, b, "compressed lossy runs must replay bit-identically");
    assert_eq!(ta, tb);
    println!("\ndeterminism check: int8 at 15% loss replayed bit-identically ✓");

    let kept = "int8 final accuracy within 2 points of the f32 wire";
    let floors = "compression ratio: f32 1x, int8 >= 3.5x";
    let fall = "encoded bytes, retries included: f32 > int8";
    let mut c = claims("Ext codec", kept, codec_accuracy_kept, accuracy);
    c.extend(claims("Ext codec", floors, codec_ratio_floors, ratio));
    c.extend(claims("Ext codec", fall, codec_bytes_fall, bytes));
    (series, c)
}

/// `ext_codec`, final accuracies in % of f32 and int8: error feedback
/// keeps int8 within 2 points of the f32 wire. The slack absorbs the
/// f32 → f64 widening, so a gap of exactly 2 points holds.
pub(crate) fn codec_accuracy_kept(v: &[f64]) -> bool {
    (v[1] - v[0]).abs() <= 2.0 + 1e-4
}

/// `ext_codec`, whole-run compression ratios of f32 and int8: each codec
/// meets its floor.
pub(crate) fn codec_ratio_floors(v: &[f64]) -> bool {
    v[0] == 1.0 && v[1] >= 3.5
}

/// `ext_codec`, encoded wire bytes of f32 and int8: the smaller frame
/// puts strictly fewer bytes on the wire end to end.
pub(crate) fn codec_bytes_fall(v: &[f64]) -> bool {
    v[0] > v[1]
}
