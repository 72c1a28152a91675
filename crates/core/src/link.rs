//! The device↔server link: the one way a model moves between the server
//! and a device, for FedHiSyn and every baseline alike.
//!
//! A transfer is two things — bytes charged to the [`TrafficMeter`] at
//! the active codec's frame size, and a pass through that codec so the
//! receiver trains on (or aggregates) exactly what those bytes can carry.
//! The link does both in one call, so no algorithm can be charged for a
//! compressed frame while moving a full-precision model.
//!
//! An algorithm owns a [`ServerLink`] beside its global model. A round is
//! [`ServerLink::broadcast`], then training from [`ServerLink::received`]
//! — the model the devices actually hold — then [`ServerLink::upload`]
//! per reporting device; an asynchronous server hands out its fresh model
//! mid-round with [`ServerLink::pull`].

use fedhisyn_nn::ParamVec;
use fedhisyn_simnet::TrafficMeter;

use crate::env::FlEnv;

/// The server's end of the link, kept across rounds: the decoded
/// broadcast the fleet last received — what [`ServerLink::received`]
/// hands the round's trainers — and the server's own error-feedback
/// residual, which carries what one downlink encode dropped into the
/// next. Both stay empty under [`Codec::F32`](fedhisyn_nn::Codec::F32).
#[derive(Debug, Default)]
pub struct ServerLink {
    held: Option<ParamVec>,
    residual: Option<ParamVec>,
}

impl ServerLink {
    /// Send `global` to `receivers` devices and charge the downloads.
    ///
    /// Under a lossy codec the server compresses **once** — every device
    /// decodes the same reconstruction, which the link remembers. Under
    /// `F32` the receivers hold `global` itself: nothing is copied or
    /// allocated, and the call is one atomic add.
    pub fn broadcast(&mut self, env: &FlEnv, global: &ParamVec, receivers: usize) {
        env.charge(TrafficMeter::record_download, receivers as u64);
        if env.codec.lossy() {
            self.held = Some(self.downlink(env, global));
        } else {
            env.wire_round_trip_check(global, global);
        }
    }

    /// What a receiver decodes `global` to, through the server's residual.
    fn downlink(&mut self, env: &FlEnv, global: &ParamVec) -> ParamVec {
        let mut decoded = global.clone();
        env.codec_transform_with(&mut self.residual, &mut decoded);
        decoded
    }

    /// The model the receivers of the last broadcast hold, given the
    /// `global` that was broadcast: the remembered reconstruction under a
    /// lossy codec, `global` itself — by reference — under `F32`.
    pub fn received<'a>(&'a self, global: &'a ParamVec) -> &'a ParamVec {
        self.held.as_ref().unwrap_or(global)
    }

    /// One device re-downloads `global` mid-round (an asynchronous
    /// server's fresh model): one download through the server's residual.
    /// It leaves [`ServerLink::received`] at the round-start broadcast.
    pub fn pull(&mut self, env: &FlEnv, global: &ParamVec) -> ParamVec {
        env.charge(TrafficMeter::record_download, 1);
        self.downlink(env, global)
    }

    /// `device` uploads `model`: one upload, after which `model` is what
    /// the server decodes — the quantisation error kept in `device`'s
    /// entry of [`FlEnv::residuals`] for its next send. Devices upload
    /// independently, so this is callable from parallel workers; under
    /// `F32` it is one atomic add.
    pub fn upload(&self, env: &FlEnv, device: usize, model: &mut ParamVec) {
        env.charge(TrafficMeter::record_upload, 1);
        env.codec_transform(device, model);
    }

    /// Charge side-channel state that rides along with the models but
    /// never crosses the codec (SCAFFOLD's control variates): whole
    /// model-equivalents at the full-precision frame size, whatever the
    /// codec.
    pub fn charge_uncoded(&self, env: &FlEnv, downloads: u64, uploads: u64) {
        let (n, raw) = (env.param_count(), env.raw_frame_bytes());
        env.meter.record_download(downloads, n, raw, raw);
        env.meter.record_upload(uploads, n, raw, raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use fedhisyn_data::{DatasetProfile, Scale};
    use fedhisyn_nn::Codec;

    fn env(codec: Codec) -> FlEnv {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(4)
            .codec(codec)
            .wire_check(codec.lossy()) // byte-path equivalence per transfer
            .seed(2)
            .build()
            .build_env()
    }

    fn model(env: &FlEnv, phase: f32) -> ParamVec {
        ParamVec::from_vec(
            (0..env.param_count())
                .map(|i| (i as f32 * 0.37 + phase).sin())
                .collect(),
        )
    }

    #[test]
    fn f32_link_moves_the_callers_model_and_only_counts() {
        let env = env(Codec::F32);
        let mut link = ServerLink::default();
        let global = model(&env, 0.0);
        link.broadcast(&env, &global, 3);
        assert!(
            std::ptr::eq(link.received(&global), &global),
            "F32 receivers hold the caller's global, not a copy"
        );
        let mut up = model(&env, 1.0);
        let before = up.clone();
        link.upload(&env, 2, &mut up);
        assert_eq!(up, before, "a full-precision upload arrives unchanged");
        assert_eq!(link.pull(&env, &before), before);
        link.charge_uncoded(&env, 3, 1);
        let s = env.meter.snapshot();
        assert_eq!((s.downloads, s.uploads), (3.0 + 1.0 + 3.0, 1.0 + 1.0));
        assert_eq!(s.wire_bytes, 9.0 * env.frame_bytes() as f64);
        assert_eq!(s.raw_bytes, s.wire_bytes);
        assert!(link.held.is_none() && link.residual.is_none());
    }

    #[test]
    fn lossy_link_compresses_once_and_keeps_what_receivers_hold() {
        let env = env(Codec::Int8);
        let mut link = ServerLink::default();
        let global = model(&env, 0.0);
        link.broadcast(&env, &global, 4);
        let first = link.received(&global).clone();
        assert_ne!(first, global, "Int8 drops information");
        let mut up = model(&env, 1.0);
        let exact = up.clone();
        link.upload(&env, 1, &mut up);
        assert_ne!(up, exact);
        assert!(up.is_finite());
        let kept = env.residuals.take(1).expect("the upload kept its error");
        assert!(kept.norm() > 0.0);
        assert_ne!(link.pull(&env, &exact), exact);
        assert_eq!(link.received(&global), &first, "a pull changes no holder");
        // The server's residual carries the dropped mass into the next
        // broadcast, so the same global does not decode the same twice.
        assert!(link.residual.as_ref().is_some_and(|r| r.norm() > 0.0));
        link.broadcast(&env, &global, 4);
        assert_ne!(link.received(&global), &first);
        let s = env.meter.snapshot();
        assert_eq!((s.downloads, s.uploads), (9.0, 1.0));
        assert_eq!(s.wire_bytes, 10.0 * env.frame_bytes() as f64);
        assert!(s.wire_bytes < s.raw_bytes);
        // Uncoded riders are charged raw under every codec.
        link.charge_uncoded(&env, 1, 1);
        let t = env.meter.snapshot();
        assert_eq!(
            t.wire_bytes - s.wire_bytes,
            2.0 * env.raw_frame_bytes() as f64
        );
    }
}
