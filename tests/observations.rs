//! Reproduce the paper's §3.2 observations as executable assertions
//! (the full curves and their claim verdicts: `paper fig2 fig3 fig4`).

use fedhisyn::prelude::*;

fn base_cfg(devices: usize, h: f64, beta: f64) -> ExperimentConfig {
    ExperimentConfig::builder(DatasetProfile::MnistLike)
        .scale(Scale::Smoke)
        .devices(devices)
        .partition(Partition::Dirichlet { beta })
        .heterogeneity(if h <= 1.0 {
            HeterogeneityModel::Homogeneous
        } else {
            HeterogeneityModel::Uniform { h }
        })
        .local_epochs(1)
        .seed(555)
        .build()
}

fn run_decentral(cfg: &ExperimentConfig, mode: DecentralMode, rounds: usize) -> f32 {
    let env = cfg.build_env();
    let mut sim = DecentralSim::new(&env, mode);
    for round in 0..rounds {
        sim.run_round(&env, round);
    }
    sim.mean_accuracy(&env)
}

#[test]
fn observation1_ring_communication_beats_isolation_on_noniid() {
    // Obs 1: "the model trained through communication between devices will
    // be more accurate than the model trained on individual devices".
    // Figure 2's setting: homogeneous devices, label-skewed data.
    let mut cfg = base_cfg(10, 1.0, 0.3);
    cfg.local_epochs = 2;
    let rounds = 8;
    let isolated = run_decentral(&cfg, DecentralMode::Isolated, rounds);
    let ring = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: false,
        },
        rounds,
    );
    assert!(
        ring > isolated + 0.1,
        "ring ({ring}) must clearly beat isolation ({isolated}) under label skew"
    );
}

#[test]
fn observation1_ring_beats_random_communication() {
    // Figure 2's full ordering: ring relay preserves model lineages, while
    // random targets collide and lose them.
    let mut cfg = base_cfg(10, 1.0, 0.3);
    cfg.local_epochs = 2;
    let rounds = 8;
    let ring = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: false,
        },
        rounds,
    );
    let random = run_decentral(
        &cfg,
        DecentralMode::RandomExchange { average: false },
        rounds,
    );
    assert!(
        ring > random,
        "ring ({ring}) should beat random communication ({random})"
    );
}

#[test]
fn observation1_training_received_beats_averaging() {
    // Obs 1, second part: using the received model directly for training
    // beats aggregating it with the local model first.
    let mut cfg = base_cfg(10, 1.0, 0.3);
    cfg.local_epochs = 2;
    let rounds = 8;
    let direct = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: false,
        },
        rounds,
    );
    let averaged = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: true,
        },
        rounds,
    );
    assert!(
        direct >= averaged - 0.02,
        "direct training ({direct}) should not lose to averaging ({averaged})"
    );
}

#[test]
fn observation3_server_mitigates_forgetting() {
    // §6.2: the paper notes the server's periodic aggregation closes most
    // of the IID/non-IID gap that pure decentralized ring training shows.
    // Compare decentralized ring vs full FedHiSyn on the same non-IID env.
    let cfg = base_cfg(10, 10.0, 0.3);
    let rounds = 4;
    let decentralized = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: false,
        },
        rounds,
    );
    let mut env = cfg.build_env();
    let mut algo = FedHiSyn::new(&cfg, 2);
    let with_server = run_experiment(&mut algo, &mut env, rounds).final_accuracy();
    assert!(
        with_server >= decentralized - 0.02,
        "server aggregation ({with_server}) should not lose to pure rings ({decentralized})"
    );
}

#[test]
fn clustering_preserves_member_partition() {
    // Fig 4 substrate: clustered rings must partition the fleet.
    let cfg = base_cfg(12, 10.0, 0.5);
    let env = cfg.build_env();
    for k in [1usize, 2, 3, 12] {
        let sim = DecentralSim::new(
            &env,
            DecentralMode::ClusteredRings {
                k,
                order: RingOrder::SmallToLarge,
                average: false,
            },
        );
        let mut all: Vec<usize> = sim.classes().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>(), "k={k}");
        assert!(sim.classes().len() <= k);
    }
}

#[test]
fn heterogeneity_makes_random_rings_worse_than_sorted() {
    // Obs 2's mechanism check at smoke scale: with H = 10, a sorted ring
    // lets fast devices chain many informative hops; a random ring mixes
    // slow successors in. Assert sorted >= random - noise.
    let cfg = base_cfg(12, 10.0, 0.3);
    let rounds = 3;
    let sorted = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::SmallToLarge,
            average: false,
        },
        rounds,
    );
    let random = run_decentral(
        &cfg,
        DecentralMode::ClusteredRings {
            k: 1,
            order: RingOrder::Random,
            average: false,
        },
        rounds,
    );
    assert!(
        sorted >= random - 0.03,
        "sorted ring ({sorted}) should not lose to random ring ({random})"
    );
}
