//! Accuracy vs encoded wire bytes: the compressed-wire trade-off figure.
//!
//! Each cell trains the engine workload end-to-end under one wire codec
//! and one frame-loss rate, recording the accuracy trajectory against the
//! *encoded* bytes the traffic meter charged (retries included) and the
//! raw f32 bytes that traffic represents. The figure answers the question
//! the codec layer exists for: how many bytes does a round of FedHiSyn
//! accuracy cost under int8 quantization and top-k sparsification with
//! error feedback, and does the trade survive a lossy wire?
//!
//! Everything is seed-deterministic — the run double-checks that by
//! replaying the most aggressive cell (top-k on a lossy wire) and
//! asserting bit-identical records. It also asserts the trade itself on
//! the int8 and top-k@100‰ cells (accuracy within 2 points of the f32
//! wire, ratio floors, strictly fewer bytes end-to-end), after the JSON
//! is written.
//!
//! ```sh
//! cargo run -p fedhisyn-bench --release --bin fig_codec [-- --full]
//! ```

use fedhisyn_bench::harness::{write_json, BenchScale};
use fedhisyn_core::{run_experiment, ExperimentConfig, FedHiSyn, RunRecord};
use fedhisyn_data::{DatasetProfile, Partition};
use fedhisyn_nn::Codec;
use fedhisyn_simnet::{FaultConfig, TrafficSnapshot};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    codec: String,
    loss: f64,
    rounds: usize,
    final_accuracy: f32,
    best_accuracy: f32,
    /// Accuracy after every round, so the convergence cost of early
    /// sparsified broadcasts (before error feedback catches up) is
    /// visible, not just the endpoint.
    accuracy_series: Vec<f32>,
    /// Encoded bytes on the wire after every round (cumulative) — the
    /// x-axis of the accuracy-vs-bytes figure.
    wire_bytes_series: Vec<f64>,
    wire_bytes: f64,
    raw_bytes: f64,
    compression_ratio: f64,
    retransmit_bytes: f64,
}

fn config(scale: &BenchScale, rounds: usize, codec: Codec, loss: f64) -> ExperimentConfig {
    let mut b = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(scale.scale)
        .devices(scale.devices)
        .partition(Partition::Dirichlet { beta: 0.1 })
        .rounds(rounds)
        .local_epochs(scale.local_epochs)
        .seed(scale.seed)
        .codec(codec);
    if loss > 0.0 {
        b = b.faults(FaultConfig::lossy(loss));
    }
    b.build()
}

fn run_cell(cfg: &ExperimentConfig) -> (RunRecord, TrafficSnapshot) {
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(cfg, 10.min(cfg.n_devices));
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    (record, env.meter.snapshot())
}

fn main() {
    let scale = BenchScale::from_args();
    let rounds = scale.rounds_flat.min(12);
    let codecs = [
        Codec::F32,
        Codec::Int8,
        Codec::TopK { permille: 100 },
        Codec::TopK { permille: 250 },
    ];
    // The `Codec::F32` row is the plain fault sweep: retry overhead against
    // loss rate with no compression in the way.
    let losses = [0.0, 0.05, 0.15, 0.30];

    println!(
        "== accuracy vs encoded wire bytes ({} devices, {} rounds, Dirichlet(0.1)) ==",
        scale.devices, rounds
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &loss in &losses {
        for &codec in &codecs {
            let cfg = config(&scale, rounds, codec, loss);
            let (record, traffic) = run_cell(&cfg);
            let mut cum = 0.0;
            let wire_bytes_series: Vec<f64> = record
                .rounds
                .iter()
                .map(|r| {
                    cum += r.wire_bytes;
                    cum
                })
                .collect();
            println!(
                "  {:<8} loss {:>4.0}%: acc {:>5.1}%  wire {:>12.0} B  ({:>5.2}x, {:>4.1}% retransmit)",
                codec.label(),
                loss * 100.0,
                record.final_accuracy() * 100.0,
                traffic.wire_bytes,
                traffic.compression_ratio(),
                100.0 * traffic.retransmit_bytes / traffic.wire_bytes
            );
            cells.push(Cell {
                codec: codec.label(),
                loss,
                rounds,
                final_accuracy: record.final_accuracy(),
                best_accuracy: record.best_accuracy(),
                accuracy_series: record.accuracy_series(),
                wire_bytes_series,
                wire_bytes: traffic.wire_bytes,
                raw_bytes: traffic.raw_bytes,
                compression_ratio: traffic.compression_ratio(),
                retransmit_bytes: traffic.retransmit_bytes,
            });
        }
    }

    // Determinism spot-check on the most aggressive cell: top-k on a
    // lossy wire replays bit-identically, traffic ledgers included.
    let cfg = config(&scale, rounds, Codec::TopK { permille: 100 }, 0.15);
    let (a, ta) = run_cell(&cfg);
    let (b, tb) = run_cell(&cfg);
    assert_eq!(a, b, "compressed lossy runs must replay bit-identically");
    assert_eq!(ta, tb);
    println!("\ndeterminism check: topk100 at 15% loss replayed bit-identically ✓");

    write_json("fig_codec", &cells);

    // The trade the figure exists to show, asserted per loss rate on the
    // f32 / int8 / topk100 cells: error feedback keeps each lossy codec
    // within 2 accuracy points of the f32 wire, the whole-run ratio meets
    // the codec's floor, and a codec that claims a smaller frame puts
    // fewer bytes on the wire end-to-end, retries included.
    for row in cells.chunks(codecs.len()) {
        let (f32_cell, lossy) = (&row[0], &row[1..3]);
        assert_eq!(f32_cell.compression_ratio, 1.0);
        for (c, floor) in lossy.iter().zip([3.5, 10.0]) {
            assert!(
                (c.final_accuracy - f32_cell.final_accuracy).abs() <= 0.02,
                "{} at loss {} drifted {:.1} points from the f32 wire",
                c.codec,
                c.loss,
                (c.final_accuracy - f32_cell.final_accuracy) * 100.0
            );
            assert!(
                c.compression_ratio >= floor,
                "{} compressed only {:.2}x (floor {floor}x)",
                c.codec,
                c.compression_ratio
            );
        }
        for w in row[..3].windows(2) {
            assert!(
                w[1].wire_bytes < w[0].wire_bytes,
                "wire bytes rose from {} to {} at loss {}",
                w[0].codec,
                w[1].codec,
                w[0].loss
            );
        }
    }
}
