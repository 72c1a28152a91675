//! Extend the framework: implement a custom FL algorithm against the
//! `FlAlgorithm` trait and benchmark it with the shared runner.
//!
//! The example implements "FedMedian" — coordinate-wise median
//! aggregation, a classic Byzantine-robust rule — in ~40 lines, showing
//! that the public API is enough to build new algorithms without touching
//! the framework.
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use fedhisyn::core::local::train_steps;
use fedhisyn::core::ServerLink;
use fedhisyn::nn::NoHook;
use fedhisyn::prelude::*;
use rayon::prelude::*;

/// FedAvg with coordinate-wise median aggregation.
struct FedMedian {
    participation: f64,
    global: ParamVec,
    link: ServerLink,
}

impl FedMedian {
    fn new(cfg: &ExperimentConfig) -> Self {
        FedMedian {
            participation: cfg.participation,
            global: cfg.initial_params(),
            link: ServerLink::default(),
        }
    }
}

impl FlAlgorithm for FedMedian {
    fn name(&self) -> String {
        "FedMedian".to_string()
    }

    fn participation(&self) -> f64 {
        self.participation
    }

    fn round(&mut self, ctx: &mut RoundContext<'_>) -> ParamVec {
        let (env, round, s) = (ctx.env, ctx.round, ctx.participants);
        // Every transfer crosses the server link: charged at the codec's
        // frame size, and carrying what that frame decodes to.
        self.link.broadcast(env, &self.global, s.len());
        let (link, start) = (&self.link, self.link.received(&self.global));

        // One local step each (like TFedAvg), in parallel.
        let updated: Vec<ParamVec> = s
            .par_iter()
            .map(|&d| {
                let mut trained = train_steps(env, d, start, 1, round, &NoHook);
                link.upload(env, d, &mut trained);
                trained
            })
            .collect();

        // Coordinate-wise median.
        let n_params = env.param_count();
        let mut merged = vec![0.0f32; n_params];
        let mut column = vec![0.0f32; updated.len()];
        for (i, m) in merged.iter_mut().enumerate() {
            for (c, u) in column.iter_mut().zip(&updated) {
                *c = u.as_slice()[i];
            }
            column.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mid = column.len() / 2;
            *m = if column.len() % 2 == 1 {
                column[mid]
            } else {
                0.5 * (column[mid - 1] + column[mid])
            };
        }
        self.global = ParamVec::from_vec(merged);
        self.global.clone()
    }
}

fn main() {
    let cfg = ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(10)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .rounds(5)
        .local_epochs(1)
        .seed(3)
        .build();

    println!("== Custom algorithm vs built-ins ==\n");
    let mut results: Vec<(String, f32)> = Vec::new();

    let mut env = cfg.build_env();
    let mut custom = FedMedian::new(&cfg);
    let rec = run_experiment(&mut custom, &mut env, cfg.rounds);
    results.push((rec.algorithm.clone(), rec.final_accuracy()));

    let mut env = cfg.build_env();
    let mut avg = FedAvg::new(&cfg);
    let rec = run_experiment(&mut avg, &mut env, cfg.rounds);
    results.push((rec.algorithm.clone(), rec.final_accuracy()));

    let mut env = cfg.build_env();
    let mut hisyn = FedHiSyn::new(&cfg, 3);
    let rec = run_experiment(&mut hisyn, &mut env, cfg.rounds);
    results.push((rec.algorithm.clone(), rec.final_accuracy()));

    println!("{:<12} {:>10}", "algorithm", "final acc");
    for (name, acc) in results {
        println!("{name:<12} {:>9.1}%", acc * 100.0);
    }
}
