//! Whole-experiment determinism: identical configs reproduce identical
//! traces bit-for-bit; different seeds diverge.

mod common;

use common::ALGORITHMS;
use fedhisyn::prelude::*;
use fedhisyn::simnet::FaultConfig;

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

/// The surviving dynamic fleet: churn, mid-round failures and the
/// fleet-wide diurnal modulator.
fn churning_fleet() -> FleetDynamics {
    let mut dynamics = FleetDynamics::planet_scale(0.25);
    dynamics.mid_round_failure = 0.1;
    dynamics
}

fn run_algo(cfg: &ExperimentConfig, which: &str) -> RunRecord {
    common::run(cfg, which, 3).record
}

#[test]
fn identical_seeds_reproduce_identical_traces() {
    for which in ALGORITHMS {
        let a = run_algo(&cfg(42), which);
        let b = run_algo(&cfg(42), which);
        assert_eq!(a, b, "{which} must be bit-deterministic");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = run_algo(&cfg(1), "FedHiSyn");
    let b = run_algo(&cfg(2), "FedHiSyn");
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
    let reference = run_algo(&cfg(77), "FedHiSyn");
    for _ in 0..3 {
        assert_eq!(run_algo(&cfg(77), "FedHiSyn"), reference);
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
    // every algorithm family, including which devices dropped or crashed
    // and how far the fleet-wide modulator slowed each round.
    let dynamics = churning_fleet();
    for which in ALGORITHMS {
        let a = run_algo(&churn_cfg(42, dynamics.clone()), which);
        let b = run_algo(&churn_cfg(42, dynamics.clone()), which);
        assert_eq!(a, b, "{which} must be bit-deterministic under churn");
    }
}

#[test]
fn different_seeds_realise_different_fleet_trajectories() {
    let dynamics = churning_fleet();
    let a = run_algo(&churn_cfg(1, dynamics.clone()), "FedHiSyn");
    let b = run_algo(&churn_cfg(2, dynamics), "FedHiSyn");
    assert_ne!(a, b, "different seeds must realise different fleets");
}

#[test]
fn dynamics_compose_deterministically_across_rates() {
    // Sweeping the churn rate (the `ext_churn` artefact's axis) must be reproducible
    // point by point.
    for rate in [0.05, 0.1, 0.2] {
        let a = run_algo(&churn_cfg(7, FleetDynamics::churn(rate)), "FedHiSyn");
        let b = run_algo(&churn_cfg(7, FleetDynamics::churn(rate)), "FedHiSyn");
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
        availability: AvailabilityModel::Churn {
            dropout: 0.0,
            rejoin: 1.0,
        },
        mid_round_failure: 0.0,
        modulator: Some(ModulatorChain::identity()),
    }
}

#[test]
fn identity_fleet_dynamics_match_the_static_path_bit_for_bit() {
    // FedHiSyn exercises re-clustering + the failure-aware relay; FedAvg
    // exercises the baselines' effective-latency/survivor seam; SCAFFOLD
    // additionally routes variate state through the partial-cohort path.
    for name in ["FedHiSyn", "FedAvg", "SCAFFOLD"] {
        let on_static = common::run(&churn_cfg(1216, FleetDynamics::default()), name, 2);
        let on_identity = common::run(&churn_cfg(1216, identity_dynamics()), name, 2);
        assert_eq!(
            on_static, on_identity,
            "{name}: record, traffic or global diverged under identity dynamics"
        );
    }
}

// ---- pinned bits ---------------------------------------------------------
//
// The F32 bits of FedHiSyn and the six baselines on a static and on a
// churning, crashing fleet, and of the five serverless modes of Fig 2 on
// the static fleet, one pair per bit-identical kernel tier (training is
// tier-independent at this scale, evaluation is not). The ledger's smoke run prints `record_fnv`s but
// gates none of them; this table is the gate. The FedHiSyn row was
// recorded at commit `14a9b73`, before backprop stopped computing the
// model input's gradient. The `FedAvg CNN` row runs the same fleets
// on `Cifar10Like`, i.e. the smoke CNN through the conv layers, and also
// hashes the final global model: a record holds only accuracies, which a
// last-bit change in the weights rarely moves. It was recorded at commit
// `8f17f46`, before the convolution lowering went tap-major. The
// `FedHiSyn loss` row runs FedHiSyn over a wire that loses 30 % of its
// frames, so every hop takes the retry-with-backoff path and some are
// given up; it was recorded at commit `4c43e7c`. The `churning_fleet`
// column (churn, mid-round failures and the fleet-wide modulator) was
// recorded at commit `7d5bb5d`, before the per-device capacity chain and
// straggler spikes were deleted; the serverless rows lost theirs when
// `DecentralSim` became static-only. The `random+avg` and `rings+avg`
// rows (Fig 2's averaging controls) were recorded at commit `0a61bf3`.

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the serialised record with the best-effort telemetry fields
/// (scheduling-dependent, ignored by `PartialEq`) zeroed — the mask of
/// `ledger/src/adapter.rs::record_fnv`.
fn record_fnv(mut record: RunRecord) -> u64 {
    for r in &mut record.rounds {
        let t = r.telemetry;
        r.telemetry = RoundTelemetry {
            uploads: t.uploads,
            downloads: t.downloads,
            peer_transfers: t.peer_transfers,
            parameters_moved: t.parameters_moved,
            wire_bytes: t.wire_bytes,
            raw_bytes: t.raw_bytes,
            retransmit_bytes: t.retransmit_bytes,
            ..RoundTelemetry::default()
        };
    }
    let json = serde_json::to_string(&record).expect("RunRecord serialises");
    fnv1a(json.bytes())
}

/// FNV-1a over every device model's parameter bits after `cfg.rounds`
/// serverless rounds.
fn decentral_fnv(cfg: &ExperimentConfig, mode: DecentralMode) -> u64 {
    let env = cfg.build_env();
    let mut sim = DecentralSim::new(&env, mode);
    (0..cfg.rounds).for_each(|round| sim.run_round(&env, round));
    let floats = sim.models().iter().flat_map(|m| m.as_slice());
    fnv1a(floats.flat_map(|x| x.to_bits().to_le_bytes()))
}

#[test]
fn f32_baseline_records_and_serverless_models_are_pinned() {
    let rings = DecentralMode::ClusteredRings {
        k: 2,
        order: RingOrder::SmallToLarge,
        average: false,
    };
    let rings_avg = DecentralMode::ClusteredRings {
        k: 2,
        order: RingOrder::SmallToLarge,
        average: true,
    };
    // (subject, [scalar, avx2] x [static, churning_fleet])
    #[rustfmt::skip]
    let pins: [(&str, [[u64; 2]; 2]); 9] = [
        ("FedHiSyn", [[0xe1f110b90dab6ed4, 0x8027af50c6f37b94], [0xfa06c34e0f15ed27, 0x2de85d1a2a4f7a61]]),
        ("FedAvg",   [[0x86c24cba5ce1d72e, 0xc76a7c1639577ea7], [0x481cf9bd5ef8ee5b, 0xa1b7055e09ec802c]]),
        ("FedProx",  [[0x18685b903f3506f3, 0x4bfb92c1ff743edf], [0x6f857f3478aa236e, 0x3db7ac3cf0f928f4]]),
        ("TFedAvg",  [[0x9abba2100343bb9c, 0x24f70f0177f9cd8f], [0x77d2882a45310e63, 0x52737c9b27f62b2c]]),
        ("SCAFFOLD", [[0x081ff261368edfbc, 0x616d1507c8d5002e], [0xbf11edae3d4137bd, 0xf77d9f5231cd73b3]]),
        ("FedAT",    [[0x4479e1b6132ce24e, 0xbeb055634b446248], [0xc3118ee82263c935, 0x926b6ad1b88b32fb]]),
        ("TAFedAvg", [[0xf600d1fbb7c3b2dd, 0x72d3ecd8328e381e], [0x03c773a648b00510, 0x7906b61ca6088cff]]),
        ("FedAvg CNN", [[0xe9f4f2cbac4ee5c0, 0x8a2ac5c181cd7b2f], [0xfe1494e5a43747ca, 0xab02849fb014da11]]),
        ("FedHiSyn loss", [[0x5f5a71515e623753, 0xa7e2e2d102f40740], [0x1d87c43ffe1bc794, 0x10cc85c5f059cf1b]]),
    ];
    // (mode, [scalar, avx2]) on the static fleet, the only one the
    // serverless modes run on.
    #[rustfmt::skip]
    let serverless: [(DecentralMode, [u64; 2]); 5] = [
        (DecentralMode::Isolated,                          [0x3e78d267ca6e0be1; 2]),
        (DecentralMode::RandomExchange { average: false }, [0x95b43c08066c2315; 2]),
        (rings,                                            [0x2814497ddf18a35c; 2]),
        (DecentralMode::RandomExchange { average: true },  [0xd40189f9adcde482; 2]),
        (rings_avg,                                        [0x02b606310b677bf3; 2]),
    ];
    let tier = match fedhisyn::core::ExecutionEngine::kernel_tier() {
        "scalar" => 0,
        "avx2" => 1,
        other => panic!("no pinned fingerprints for kernel tier {other}"),
    };
    let fleets = [cfg(42), churn_cfg(42, churning_fleet())];
    let mut drift = Vec::new();
    for (subject, pinned) in pins {
        for (fleet, cfg) in fleets.iter().enumerate() {
            let got = match subject {
                "FedAvg CNN" => {
                    let cnn = ExperimentConfig {
                        profile: DatasetProfile::Cifar10Like,
                        ..cfg.clone()
                    };
                    let run = common::run(&cnn, "FedAvg", 3);
                    let global = run.global.as_slice().iter();
                    let bits = global.flat_map(|x| x.to_bits().to_le_bytes());
                    fnv1a(record_fnv(run.record).to_le_bytes().into_iter().chain(bits))
                }
                "FedHiSyn loss" => {
                    let lossy = ExperimentConfig {
                        faults: FaultConfig::lossy(0.3),
                        ..cfg.clone()
                    };
                    record_fnv(run_algo(&lossy, "FedHiSyn"))
                }
                algorithm => record_fnv(run_algo(cfg, algorithm)),
            };
            if got != pinned[tier][fleet] {
                drift.push(format!("{subject} tier {tier} fleet {fleet}: {got:#018x}"));
            }
        }
    }
    for (mode, pinned) in serverless {
        let got = decentral_fnv(&fleets[0], mode);
        if got != pinned[tier] {
            drift.push(format!("{} tier {tier}: {got:#018x}", mode.label()));
        }
    }
    assert!(
        drift.is_empty(),
        "pinned F32 bits moved:\n{}",
        drift.join("\n")
    );
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
