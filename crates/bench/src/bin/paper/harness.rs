//! Scale and output plumbing of the `paper` binary.

use fedhisyn_core::ExperimentConfig;
use fedhisyn_data::{DatasetProfile, Partition, Scale};
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Scale knobs shared by all artefacts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BenchScale {
    /// Paper or smoke data dimensions.
    pub scale: Scale,
    /// Fleet size.
    pub devices: usize,
    /// Communication rounds for MLP (flat) datasets.
    pub rounds_flat: usize,
    /// Communication rounds for CNN (image) datasets.
    pub rounds_image: usize,
    /// Local epochs per step.
    pub local_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl BenchScale {
    /// CI-sized default: finishes the whole suite in minutes on 2 cores.
    /// Keeps the paper's local epochs (E = 5) — the client-drift effects
    /// FedHiSyn exploits only appear with meaningful local work.
    pub(crate) fn smoke() -> Self {
        BenchScale {
            scale: Scale::Smoke,
            devices: 40,
            rounds_flat: 15,
            rounds_image: 18,
            local_epochs: 5,
            seed: 2022,
        }
    }

    /// The paper's dimensions: 100 devices, 100–150 rounds, 5 local epochs.
    pub(crate) fn full() -> Self {
        BenchScale {
            scale: Scale::Paper,
            devices: 100,
            rounds_flat: 100,
            rounds_image: 150,
            local_epochs: 5,
            seed: 2022,
        }
    }

    /// Base experiment config for a (dataset, partition, participation)
    /// cell, with the profile's round budget.
    pub(crate) fn config(
        &self,
        profile: DatasetProfile,
        partition: Partition,
        participation: f64,
    ) -> ExperimentConfig {
        let rounds = if profile.is_image() {
            self.rounds_image
        } else {
            self.rounds_flat
        };
        ExperimentConfig::builder(profile)
            .scale(self.scale)
            .devices(self.devices)
            .participation(participation)
            .partition(partition)
            .rounds(rounds)
            .local_epochs(self.local_epochs)
            .seed(self.seed)
            .build()
    }
}

/// Write `value` as JSON under `results/<name>.json` (best-effort; the
/// printed tables are the primary artifact).
pub(crate) fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_smaller_than_full() {
        let s = BenchScale::smoke();
        let f = BenchScale::full();
        assert!(s.devices < f.devices);
        assert!(s.rounds_flat < f.rounds_flat);
    }

    #[test]
    fn config_uses_profile_rounds() {
        let s = BenchScale::smoke();
        let mnist = s.config(DatasetProfile::MnistLike, Partition::Iid, 1.0);
        let cifar = s.config(DatasetProfile::Cifar10Like, Partition::Iid, 1.0);
        assert_eq!(mnist.rounds, s.rounds_flat);
        assert_eq!(cifar.rounds, s.rounds_image);
    }
}
