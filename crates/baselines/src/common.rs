//! The round body the server-collected baselines share.

use fedhisyn_core::aggregate::Contribution;
use fedhisyn_core::env::FlEnv;
use fedhisyn_core::{AggregationRule, RoundContext, ServerLink};
use fedhisyn_nn::{CodecScratch, ParamVec};
use rayon::prelude::*;

/// Whether device `d` survives `round` without a mid-round crash. A
/// casualty trains but never uploads: server-collected protocols drop its
/// contribution (the round's work is lost with the device). Always true
/// on a static fleet.
pub(crate) fn survives_round(env: &FlEnv, device: usize, round: usize) -> bool {
    env.fleet.fail_frac(device, round).is_none()
}

/// One interval-collected round: broadcast `global` to the participants
/// over `link`, drop the mid-round casualties (partial cohort — static
/// fleets keep everyone), run `device_pass(device, start)` on every
/// survivor in parallel from the model it received, and upload each
/// result from its worker. Returns `(device, model as the server decoded
/// it)` in participant order.
pub(crate) fn collected_round(
    ctx: &RoundContext<'_>,
    link: &mut ServerLink,
    global: &ParamVec,
    device_pass: impl Fn(usize, &ParamVec) -> ParamVec + Sync,
) -> Vec<(usize, ParamVec)> {
    let (env, round) = (ctx.env, ctx.round);
    link.broadcast(env, global, ctx.participants.len());
    let (link, start) = (&*link, link.received(global));
    let survivors: Vec<usize> = ctx
        .participants
        .iter()
        .copied()
        .filter(|&d| survives_round(env, d, round))
        .collect();
    survivors
        .par_iter()
        .map(|&d| {
            let mut trained = device_pass(d, start);
            link.upload(env, d, &mut trained, &mut CodecScratch::new());
            (d, trained)
        })
        .collect()
}

/// Replace `global` with the aggregate of the collected uploads under
/// `rule`, each weighted by its device's shard size (Eq. 3 for
/// [`AggregationRule::SampleWeighted`]). When nobody reported — every
/// participant crashed mid-round — the server keeps its model.
pub(crate) fn aggregate_into(
    global: &mut ParamVec,
    env: &FlEnv,
    round: usize,
    rule: AggregationRule,
    updated: &[(usize, ParamVec)],
) {
    if updated.is_empty() {
        return;
    }
    let contributions: Vec<Contribution<'_>> = updated
        .iter()
        .map(|(d, params)| Contribution {
            params,
            samples: env.shard_len(*d),
            class_mean_time: env.latency_at(*d, round),
        })
        .collect();
    *global = rule.aggregate(&contributions);
}
