//! Whole-experiment determinism: identical configs reproduce identical
//! traces bit-for-bit; different seeds diverge.

use fedhisyn::prelude::*;

fn cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(8)
        .participation(0.6)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
        .rounds(3)
        .local_epochs(1)
        .seed(seed)
        .build()
}

fn run_algo(cfg: &ExperimentConfig, which: &str) -> RunRecord {
    let mut env = cfg.build_env();
    match which {
        "fedhisyn" => {
            let mut a = FedHiSyn::new(cfg, 3);
            run_experiment(&mut a, &mut env, cfg.rounds)
        }
        "fedavg" => {
            let mut a = FedAvg::new(cfg);
            run_experiment(&mut a, &mut env, cfg.rounds)
        }
        "scaffold" => {
            let mut a = Scaffold::new(cfg);
            run_experiment(&mut a, &mut env, cfg.rounds)
        }
        "tafedavg" => {
            let mut a = TAFedAvg::new(cfg);
            run_experiment(&mut a, &mut env, cfg.rounds)
        }
        _ => unreachable!(),
    }
}

#[test]
fn identical_seeds_reproduce_identical_traces() {
    for which in ["fedhisyn", "fedavg", "scaffold", "tafedavg"] {
        let a = run_algo(&cfg(42), which);
        let b = run_algo(&cfg(42), which);
        assert_eq!(a, b, "{which} must be bit-deterministic");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = run_algo(&cfg(1), "fedhisyn");
    let b = run_algo(&cfg(2), "fedhisyn");
    assert_ne!(a, b, "different seeds must explore different runs");
}

#[test]
fn environment_construction_is_deterministic() {
    let e1 = cfg(9).build_env();
    let e2 = cfg(9).build_env();
    assert_eq!(e1.test.x.data(), e2.test.x.data());
    assert_eq!(e1.test.y, e2.test.y);
    for d in 0..e1.n_devices() {
        let (a, b) = (e1.shard(d), e2.shard(d));
        assert_eq!(a.y, b.y);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(e1.latency(d), e2.latency(d));
    }
}

#[test]
fn rayon_parallelism_does_not_break_determinism() {
    // The per-class ring simulations run on the rayon pool; results are
    // collected positionally, so thread scheduling must not leak into the
    // trace. Run several times to give interleavings a chance to vary.
    let reference = run_algo(&cfg(77), "fedhisyn");
    for _ in 0..3 {
        assert_eq!(run_algo(&cfg(77), "fedhisyn"), reference);
    }
}

// ---- fleet-dynamics determinism -----------------------------------------

fn churn_cfg(seed: u64, dynamics: FleetDynamics) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(10)
        .partition(Partition::Dirichlet { beta: 0.5 })
        .heterogeneity(HeterogeneityModel::Uniform { h: 5.0 })
        .fleet(dynamics)
        .rounds(3)
        .local_epochs(1)
        .seed(seed)
        .build()
}

#[test]
fn churned_runs_reproduce_identical_traces() {
    // Stochastic fleet dynamics derive entirely from the experiment seed:
    // the same seed + dynamics config must replay the identical run for
    // every algorithm family, including which devices dropped, crashed,
    // or throttled.
    let dynamics = FleetDynamics::edge_fleet(0.25, 0.1);
    for which in ["fedhisyn", "fedavg", "scaffold", "tafedavg"] {
        let a = run_algo(&churn_cfg(42, dynamics.clone()), which);
        let b = run_algo(&churn_cfg(42, dynamics.clone()), which);
        assert_eq!(a, b, "{which} must be bit-deterministic under churn");
    }
}

#[test]
fn different_seeds_realise_different_fleet_trajectories() {
    let dynamics = FleetDynamics::edge_fleet(0.25, 0.1);
    let a = run_algo(&churn_cfg(1, dynamics.clone()), "fedhisyn");
    let b = run_algo(&churn_cfg(2, dynamics), "fedhisyn");
    assert_ne!(a, b, "different seeds must realise different fleets");
}

#[test]
fn dynamics_compose_deterministically_across_rates() {
    // Sweeping the churn rate (fig_churn's axis) must be reproducible
    // point by point.
    for rate in [0.05, 0.1, 0.2] {
        let a = run_algo(&churn_cfg(7, FleetDynamics::churn(rate)), "fedhisyn");
        let b = run_algo(&churn_cfg(7, FleetDynamics::churn(rate)), "fedhisyn");
        assert_eq!(a, b, "churn rate {rate} must be deterministic");
    }
}

// ---- identity dynamics ---------------------------------------------------
//
// `FleetDynamics::default()` must be the *exact* static fleet. An
// *identity* dynamics config — a chain that is dynamically active (every
// dynamic code path executes: trace advancement, multiplier lookups,
// failure schedules, cohort filtering) but numerically neutral
// (multiplier 1.0, no churn, no failures) — must match the default static
// run exactly, for every algorithm family.

fn identity_dynamics() -> FleetDynamics {
    FleetDynamics {
        capacity: CapacityModel::Markov(MarkovCapacity::identity()),
        availability: AvailabilityModel::Churn {
            dropout: 0.0,
            rejoin: 1.0,
        },
        spikes: SpikeModel {
            prob: 0.0,
            magnitude: 1.0,
        },
        mid_round_failure: 0.0,
        ..FleetDynamics::default()
    }
}

fn run_with_dynamics<A: FlAlgorithm>(
    make: impl Fn(&ExperimentConfig) -> A,
    global_of: impl Fn(&A) -> &ParamVec,
    dynamics: FleetDynamics,
) -> (RunRecord, ParamVec) {
    let cfg = churn_cfg(1216, dynamics);
    let mut env = cfg.build_env();
    let mut algo = make(&cfg);
    let record = run_experiment(&mut algo, &mut env, cfg.rounds);
    let global = global_of(&algo).clone();
    (record, global)
}

#[test]
fn identity_fleet_dynamics_match_the_static_path_bit_for_bit() {
    // FedHiSyn exercises re-clustering + the failure-aware relay; FedAvg
    // exercises the baselines' effective-latency/survivor seam; SCAFFOLD
    // additionally routes variate state through the partial-cohort path.
    let fedhisyn = |cfg: &ExperimentConfig| FedHiSyn::new(cfg, 2);
    let (s_rec, s_glob) = run_with_dynamics(fedhisyn, FedHiSyn::global, FleetDynamics::default());
    let (d_rec, d_glob) = run_with_dynamics(fedhisyn, FedHiSyn::global, identity_dynamics());
    assert_eq!(
        s_rec, d_rec,
        "FedHiSyn records diverged under identity dynamics"
    );
    assert_eq!(
        s_glob, d_glob,
        "FedHiSyn global diverged under identity dynamics"
    );

    let (s_rec, s_glob) = run_with_dynamics(FedAvg::new, FedAvg::global, FleetDynamics::default());
    let (d_rec, d_glob) = run_with_dynamics(FedAvg::new, FedAvg::global, identity_dynamics());
    assert_eq!(
        s_rec, d_rec,
        "FedAvg records diverged under identity dynamics"
    );
    assert_eq!(s_glob, d_glob);

    let (s_rec, s_glob) =
        run_with_dynamics(Scaffold::new, Scaffold::global, FleetDynamics::default());
    let (d_rec, d_glob) = run_with_dynamics(Scaffold::new, Scaffold::global, identity_dynamics());
    assert_eq!(
        s_rec, d_rec,
        "SCAFFOLD records diverged under identity dynamics"
    );
    assert_eq!(s_glob, d_glob);
}

// ---- pool placement ------------------------------------------------------

#[test]
fn pool_placement_does_not_leak_into_records_or_fingerprints() {
    // Which thread runs a ring lane is not an input of the run. A
    // background thread keeps unrelated skewed regions on the pool, so the
    // lanes are claimed by different threads in each of the two runs.
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let traced_run = || {
        let cfg = cfg(77);
        let mut env = cfg.build_env();
        env.telemetry = TelemetrySink::enabled(1 << 14);
        let mut algo = FedHiSyn::new(&cfg, 3);
        let record = run_experiment(&mut algo, &mut env, cfg.rounds);
        let fingerprint = env.telemetry.telemetry().expect("enabled").fingerprint();
        (record, fingerprint)
    };
    let stop = AtomicBool::new(false);
    let (a, b) = std::thread::scope(|s| {
        s.spawn(|| {
            let items: Vec<u64> = (0..7).collect();
            while !stop.load(Ordering::SeqCst) {
                items.par_iter().for_each(|&i| {
                    let until = Instant::now() + Duration::from_micros(20 * i * i);
                    while Instant::now() < until {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let runs = (traced_run(), traced_run());
        stop.store(true, Ordering::SeqCst);
        runs
    });
    assert_eq!(a.0, b.0, "RunRecords must not depend on lane placement");
    assert_eq!(a.1, b.1, "fingerprints must not depend on lane placement");
}
