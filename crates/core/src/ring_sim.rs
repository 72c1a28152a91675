//! Event-driven simulation of one ring-training interval (Alg. 1, l. 7–16).
//!
//! Within a FedHiSyn class, every device trains continuously: it trains
//! its current working model for one local step (`E` epochs, taking its
//! latency `t_i` of virtual time), forwards the result to its ring
//! successor, and immediately starts the next step on the newest model in
//! its buffer — or keeps refining its own model when nothing has arrived
//! (Eq. 7). The interval ends after `R` virtual seconds; each device then
//! holds the model it most recently finished training, which is what it
//! uploads.
//!
//! There is one entry point, [`RingRound`], which both ring algorithms —
//! FedHiSyn's class rings and the decentralized rings — drive the same
//! way. Everything beyond the ring, its latencies, its crash times and
//! the start models comes from the round's [`FlEnv`]: the receive policy
//! is set on the round, and frame loss, telemetry and the wire codec are
//! the environment's. Each of them is inert at its default — a fault
//! plan for which `FaultPlan::is_none` holds draws nothing, a disabled
//! sink reads no clock, and the `F32` codec with `wire_check` off leaves
//! every model untouched — so the decentralized rings (whose environment
//! is always static, lossless and fault-free) run the paper's plain
//! interval. [`RingRound::settle`] charges the interval's traffic
//! afterwards.
//!
//! # Move-based relay
//!
//! Models flow through the simulation **by value**: the trainer consumes
//! the working [`ParamVec`] and returns the trained one (reusing the same
//! allocation on the engine path), arrivals move into the inbox, and the
//! inbox moves into the next working slot. The only copy a steady-state
//! hop performs is the clone placed on the wire for the ring successor.
//! [`RingStart::Shared`] likewise materialises per-position copies of the
//! interval-start broadcast lazily, exactly once each.
//!
//! # What the relay retains
//!
//! A position holds at most two models while it trains — its working
//! model and the newest pending arrival — and the relay returns one per
//! position, the one its caller reads ([`RingOutcome::models`]):
//!
//! * A [`RingStart::Shared`] start ends in an upload. In Alg. 1 a device
//!   that has spent its step budget uploads its newest trained model, so
//!   a model that reaches it after its final completion is never trained
//!   or uploaded: the relay drops the inbox at that completion and every
//!   later arrival with it.
//! * A [`RingStart::PerPosition`] start carries over into the next
//!   interval. The carry-over model is resolved by move — the pending
//!   arrival, else the position's own model, with the arrival averaged
//!   into the own model in place under
//!   [`ReceivePolicy::AverageThenTrain`] — so nothing is cloned.
//!
//! Dropping those arrivals moves no bit. Sends, codec transforms, fault
//! draws, spans and traffic charges all happen at send time, which is
//! unchanged. A position's final completion falls at or past `R` while
//! crashes are scheduled strictly before it, so a finished position does
//! not crash and salvage its inbox. Float rounding of the summed step
//! times can end a final step one ulp before `R`, so a position with a
//! crash still due keeps its inbox.
//!
//! [`RingRound::relay`] is generic over the actual training function so
//! unit tests can verify the event choreography with arithmetic mocks
//! while [`RingRound::run_lane`] plugs in real SGD.

use fedhisyn_nn::ParamVec;
use fedhisyn_simnet::fault::{backoff, MAX_RETRIES};
use fedhisyn_simnet::{EventQueue, SimTime, TrafficMeter};
use fedhisyn_telemetry::{Phase, SpanCtx, WallStart};

use crate::env::{steps_within, FlEnv};
use crate::local::local_train_plain_owned;
use crate::topology::Ring;

/// Frame-loss accounting for one simulated ring interval.
///
/// All counters are deterministic (pure functions of the fault plan and
/// the ring choreography). Every lost attempt is followed by either a
/// retry or a give-up, so the frames lost number `retries + giveups`.
/// `Default` is the all-zero state with an empty `faults_at`, so the
/// fault-free path allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TransportStats {
    /// Retransmission attempts (frames re-sent after a loss): the
    /// physical frames beyond the logical transfers, charged to the
    /// traffic meter's retransmit ledger.
    pub retries: u64,
    /// Transfers abandoned after [`MAX_RETRIES`] retries were lost too.
    /// The receiver simply keeps refining its own model (Eq. 7) — the
    /// round still completes.
    pub giveups: u64,
    /// Lost frames per *ring position* of the receiving end, the raw
    /// signal the proactive rebuild's EWMA scores fold in. Empty when no
    /// faults were active.
    pub faults_at: Vec<u32>,
}

/// What a device does with a model received from its ring predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReceivePolicy {
    /// Train the received model directly (the paper's choice; Eq. 6 —
    /// Observation 1 found this strictly better).
    TrainReceived,
    /// Average the received model with the local one, then train (the
    /// paper's "averaging" control in Figure 2).
    AverageThenTrain,
}

/// The models ring positions begin an interval with.
#[derive(Debug)]
pub(crate) enum RingStart<'a> {
    /// Every position starts from the same model (FedHiSyn's round-start
    /// broadcast of the global). Positions copy it lazily, once each —
    /// the caller no longer materialises `ring.len()` clones up front.
    Shared(&'a ParamVec),
    /// Each position starts from its own model (decentralized training,
    /// where models persist on devices across intervals).
    PerPosition(Vec<ParamVec>),
}

/// Result of simulating one interval on one ring.
#[derive(Debug, Clone)]
pub(crate) struct RingOutcome {
    /// One model per ring position — the one its caller reads, and the
    /// only one the relay keeps for it:
    ///
    /// * after a [`RingStart::Shared`] start, the model the position
    ///   finished training last, which the device *uploads* in FedHiSyn;
    /// * after a [`RingStart::PerPosition`] start, the model it would
    ///   train next: the newest unconsumed arrival (averaged into its own
    ///   model under [`ReceivePolicy::AverageThenTrain`]), else its own
    ///   latest model. This is the device's buffer state at interval end
    ///   (Alg. 1's `B_i.back()`), which decentralized (server-less)
    ///   training carries into the next interval — without it, a
    ///   homogeneous ring doing one step per interval would never
    ///   circulate models across intervals.
    ///
    /// Unspecified for a position that died mid-interval; check
    /// [`RingOutcome::alive`] before reading it.
    pub models: Vec<ParamVec>,
    /// Device-to-device transfers performed (including failure-repair
    /// forwards).
    pub transfers: usize,
    /// Whether each ring position survived the interval. Dead positions
    /// cannot upload, and their `models` entries are unspecified.
    pub alive: Vec<bool>,
    /// Wire-fault accounting for the interval (all zeroes, empty
    /// `faults_at`, when no fault plan was active).
    pub transport: TransportStats,
}

#[derive(Debug)]
enum Event {
    /// Ring position `pos` finishes the training step it started earlier.
    Completion { pos: usize },
    /// A model sent by `from_pos` arrives at ring position `pos`.
    Arrival { pos: usize, model: ParamVec },
    /// Ring position `pos` crashes mid-interval.
    Failure { pos: usize },
}

/// One round's ring phase as both ring algorithms run it: FedHiSyn's
/// class rings and the decentralized rings differ only in how rings are
/// built, what they start from and what is done with the outcome. The
/// per-position latencies and crash times, frame loss, spans, the codec,
/// the real trainer and the lane span all come from the environment here,
/// and [`RingRound::settle`] charges the traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingRound<'a> {
    /// The experiment environment.
    pub env: &'a FlEnv,
    /// Federated round index: keys the fault draws and tags the spans.
    pub round: usize,
    /// Virtual time at which the interval starts on the experiment clock
    /// (the simulation's own clock starts at zero).
    pub vt_base: f64,
    /// Interval length `R` in virtual seconds.
    pub interval: f64,
    /// What devices do with received models.
    pub policy: ReceivePolicy,
}

/// One ring readied for a round's interval by [`RingRound::lane`].
#[derive(Debug)]
pub(crate) struct Lane {
    /// The ring itself.
    pub ring: Ring,
    /// `latencies[p]`: virtual seconds per local step for the device at
    /// ring position `p`.
    latencies: Vec<f64>,
    /// `failures[p]` is the virtual time within `[0, interval)` at which
    /// the device at ring position `p` crashes (`None` = survives; times
    /// at or past the interval are ignored). Empty when nobody can fail:
    /// no failure events are scheduled at all.
    ///
    /// When a device dies, the step it was training never completes; the
    /// freshest model it held — a pending unconsumed arrival, else the
    /// model it was training — moves on to the next *live* successor.
    /// The ring repairs itself: later sends skip dead positions and
    /// in-flight arrivals addressed to one are re-forwarded. The position
    /// is reported dead in [`RingOutcome::alive`] — it cannot upload this
    /// round.
    failures: Vec<Option<f64>>,
}

impl RingRound<'_> {
    /// Look up `ring`'s per-position latencies and mid-interval crash
    /// times (none on a static fleet). Call it where the ring is built:
    /// fleet queries take the fleet's shard locks, and the lanes that
    /// would otherwise all make them at once run in parallel.
    pub fn lane(&self, ring: Ring) -> Lane {
        let (env, round) = (self.env, self.round);
        let latencies = ring
            .order()
            .iter()
            .map(|&d| env.latency_at(d, round))
            .collect();
        let failures = if env.dynamics_active() {
            ring.order()
                .iter()
                .map(|&d| env.fail_time(d, round, self.interval))
                .collect()
        } else {
            Vec::new()
        };
        Lane {
            ring,
            latencies,
            failures,
        }
    }

    /// Run `lane` for the interval on the calling thread with real local
    /// SGD, tagged as lane `index`. Lanes are independent, so callers fan
    /// them out in parallel.
    pub fn run_lane(&self, index: usize, lane: &Lane, start: RingStart<'_>) -> RingOutcome {
        let (env, round) = (self.env, self.round);
        let wall = env.telemetry.wall_start();
        let outcome = self.relay(index, lane, start, |device, params, salt| {
            local_train_plain_owned(env, device, params, env.local_epochs, round, salt)
        });
        env.telemetry.span(
            Phase::RingInterval,
            round as u32,
            SpanCtx::lane(index as u32),
            (self.vt_base, self.vt_base + self.interval),
            wall,
        );
        outcome
    }

    /// Simulate the interval on `lane`, tagged as lane `index`, from the
    /// `start` models. `train(device, model, salt)` performs one local
    /// step, consuming and returning the model buffer; `salt` is
    /// `position << 32 | step`, unique per (position, step), for
    /// deterministic batch shuffling.
    ///
    /// Each position runs `ceil(interval / latency)` steps (at least one),
    /// matching Alg. 1's budget loop (`R_ci > 0`).
    ///
    /// Under an active fault plan every hop becomes a bounded retry loop
    /// in virtual time: a lost frame is retransmitted after an
    /// exponential backoff, up to [`MAX_RETRIES`] times; a transfer whose
    /// every attempt is lost is *given up* — the receiver keeps refining
    /// its own model (Eq. 7), so the round always completes. The plan's
    /// loss function is pure in `(round, src, dst, attempt)`, so a lane
    /// replays bit-identically at any thread count. The *logical*
    /// transfer is counted in [`RingOutcome::transfers`] exactly as on a
    /// perfect wire; the retries are reported in
    /// [`RingOutcome::transport`].
    ///
    /// Spans: one [`Phase::LocalTrain`] per completed step, one
    /// [`Phase::RelayHop`] per delivered transfer (normal forwards,
    /// dead-position re-forwards and failure salvages alike) and one
    /// [`Phase::RelayAttempt`] per retry frame, all offset onto the
    /// experiment's virtual clock so they nest under the round span.
    pub(crate) fn relay<F>(
        &self,
        index: usize,
        lane: &Lane,
        start: RingStart<'_>,
        mut train: F,
    ) -> RingOutcome
    where
        F: FnMut(usize, ParamVec, u64) -> ParamVec,
    {
        let Lane {
            ring,
            latencies,
            failures,
        } = lane;
        let (interval, policy) = (self.interval, self.policy);
        let n = ring.len();
        assert_eq!(latencies.len(), n, "one latency per ring position");
        assert!(n > 0, "empty ring");
        assert!(interval > 0.0, "interval must be positive");
        assert!(
            failures.is_empty() || failures.len() == n,
            "one failure slot per ring position (or none at all)"
        );

        let allowed: Vec<usize> = latencies
            .iter()
            .map(|&t| steps_within(interval, t))
            .collect();

        // `working[pos]` is the model the position trains next; `None` means
        // "still on the shared start model" (copied lazily at first use).
        let (mut working, shared): (Vec<Option<ParamVec>>, Option<&ParamVec>) = match start {
            RingStart::Shared(global) => (vec![None; n], Some(global)),
            RingStart::PerPosition(models) => {
                assert_eq!(models.len(), n, "one start model per ring position");
                (models.into_iter().map(Some).collect(), None)
            }
        };
        // `latest[pos]` is written at the position's final completion, which
        // every surviving position reaches (`allowed[pos] >= 1`); a position
        // that dies first keeps the placeholder, which callers skip via
        // `alive`.
        let mut latest: Vec<ParamVec> = vec![ParamVec::default(); n];
        let mut inbox: Vec<Option<ParamVec>> = vec![None; n];
        // `closed[pos]`: the position has trained its final model and drops
        // every later arrival (upload starts only).
        let mut closed = vec![false; n];
        let mut steps = vec![0usize; n];
        let mut dead = vec![false; n];

        // The interval's one wire. Without an active fault plan it must
        // stay untouched: no fault state allocated, no draws,
        // bit-identical event choreography.
        let fault_slots = if self.env.faults_active() { n } else { 0 };
        let mut wire = Wire {
            round: self,
            lane: index as u32,
            ring,
            queue: EventQueue::new(),
            transport: TransportStats {
                faults_at: vec![0; fault_slots],
                ..TransportStats::default()
            },
            sent: vec![0; fault_slots],
            transfers: 0,
        };

        for (pos, &latency) in latencies.iter().enumerate() {
            wire.queue.push_class(
                SimTime::new(latency),
                CLASS_COMPLETION,
                Event::Completion { pos },
            );
        }
        for (pos, failure) in failures.iter().enumerate() {
            if let Some(t) = *failure {
                assert!(t.is_finite() && t >= 0.0, "failure time must be >= 0");
                if t < interval {
                    wire.queue
                        .push_class(SimTime::new(t), CLASS_FAILURE, Event::Failure { pos });
                }
            }
        }

        while let Some((now, event)) = wire.queue.pop() {
            match event {
                Event::Arrival { pos, model } => {
                    if dead[pos] {
                        // Ring repair: the sender did not know `pos` died.
                        // Re-forward to the next live successor (one extra
                        // hop on the wire).
                        if let Some(succ) = next_live(ring, &dead, pos) {
                            wire.transmit(now, pos, succ, model);
                        }
                        continue;
                    }
                    // Newest-wins buffer (Alg. 1 trains B.back()); older
                    // pending models are dropped, and so is everything that
                    // reaches a closed position: it is never trained or
                    // uploaded.
                    if !closed[pos] {
                        inbox[pos] = Some(model);
                    }
                }
                Event::Failure { pos } => {
                    dead[pos] = true;
                    // The freshest model the device held — a pending arrival
                    // beats the model it was mid-way through training — moves
                    // on to the next live successor.
                    if let Some(held) = inbox[pos].take().or_else(|| working[pos].take()) {
                        if let Some(succ) = next_live(ring, &dead, pos) {
                            wire.transmit(now, pos, succ, held);
                        }
                    }
                }
                Event::Completion { pos } if dead[pos] => {
                    // The device crashed mid-step: the step never completes,
                    // and its input was already salvaged by the failure
                    // handler.
                }
                Event::Completion { pos } => {
                    let device = ring.order()[pos];
                    let salt = (pos as u64) << 32 | steps[pos] as u64;
                    let input = working[pos]
                        .take()
                        .unwrap_or_else(|| shared.expect("start model").clone());
                    let wall = self.env.telemetry.wall_start();
                    let trained = train(device, input, salt);
                    // The step completing at `now` started one local
                    // latency earlier.
                    let end = self.at(now);
                    let vt = (end - latencies[pos], end);
                    wire.span(Phase::LocalTrain, device, steps[pos], vt, wall);
                    steps[pos] += 1;

                    // Forward along the ring to the next *live* successor
                    // (identical to `next_position` while nobody has failed;
                    // skip degenerate single rings — sending to yourself is
                    // the same as continuing). This clone is the hop's single
                    // copy: the wire needs its own buffer while the sender
                    // keeps training.
                    if n > 1 {
                        if let Some(succ) = next_live(ring, &dead, pos) {
                            wire.transmit(now, pos, succ, trained.clone());
                        }
                    }

                    if steps[pos] < allowed[pos] {
                        // Choose the next working model: newest arrival if any
                        // (Eq. 6), else keep refining what we just trained
                        // (Eq. 7). `latest` is only read after the event loop,
                        // and the position's *final* completion (the `else`
                        // below) always overwrites it — so intermediate
                        // completions never store into it, and `trained` can
                        // be dropped or mixed in place here.
                        working[pos] = Some(match (inbox[pos].take(), policy) {
                            (Some(received), ReceivePolicy::TrainReceived) => received,
                            (Some(received), ReceivePolicy::AverageThenTrain) => {
                                let mut mixed = trained;
                                mixed.lerp(&received, 0.5);
                                mixed
                            }
                            (None, _) => trained,
                        });
                        wire.queue.push_class(
                            now + latencies[pos],
                            CLASS_COMPLETION,
                            Event::Completion { pos },
                        );
                    } else {
                        latest[pos] = trained;
                        // An upload start's position is done: what is
                        // pending or still arrives is never trained or
                        // uploaded, so drop it. A crash still due would
                        // salvage the inbox; crashes fall before `R` and
                        // final completions at or past it, so only float
                        // rounding of the summed step times could leave one
                        // due, and then the position stays open.
                        let crash_due = failures
                            .get(pos)
                            .is_some_and(|f| f.is_some_and(|t| t < interval));
                        if shared.is_some() && !crash_due {
                            inbox[pos] = None;
                            closed[pos] = true;
                        }
                    }
                }
            }
        }

        // What each position keeps: the newest pending arrival — mixed into
        // its own model in place under averaging — else its own model. Only
        // a carry-over start can still hold an arrival here, so an upload
        // start returns the final models unchanged.
        let models = latest
            .into_iter()
            .zip(inbox)
            .map(|(mut own, pending)| match (pending, policy) {
                (Some(received), ReceivePolicy::TrainReceived) => received,
                (Some(received), ReceivePolicy::AverageThenTrain) => {
                    own.lerp(&received, 0.5);
                    own
                }
                (None, _) => own,
            })
            .collect();

        RingOutcome {
            models,
            transfers: wire.transfers,
            alive: dead.iter().map(|&d| !d).collect(),
            transport: wire.transport,
        }
    }

    /// `now` on a ring's clock, as an instant on the experiment's.
    fn at(&self, now: SimTime) -> f64 {
        self.vt_base + now.seconds()
    }

    /// Post-interval accounting for the round's lanes: logical transfers
    /// to the peer ledger, retries to the retransmit ledger, and the
    /// transport counters — tagged with the round's proactive-rebuild
    /// count, which the relay cannot know — to telemetry.
    pub fn settle<'o>(&self, outcomes: impl IntoIterator<Item = &'o RingOutcome>, rebuilds: u64) {
        let env = self.env;
        let (mut retries, mut giveups) = (0, 0);
        for outcome in outcomes {
            env.charge(TrafficMeter::record_peer, outcome.transfers as u64);
            env.charge(TrafficMeter::record_retransmit, outcome.transport.retries);
            retries += outcome.transport.retries;
            giveups += outcome.transport.giveups;
        }
        if env.faults_active() {
            env.telemetry.add_transport(retries, giveups, rebuilds);
        }
    }
}

/// The first live ring position after `pos` (the repaired successor), or
/// `None` when every other position is dead.
fn next_live(ring: &Ring, dead: &[bool], pos: usize) -> Option<usize> {
    let mut p = ring.next_position(pos);
    while p != pos {
        if !dead[p] {
            return Some(p);
        }
        p = ring.next_position(p);
    }
    None
}

// Transfers take no virtual time, so a model sent at a completion
// arrives at that same instant. Arrivals sort before completions at
// equal times so that a handoff between equal-latency devices lands in
// time for the receiver's next step (see `EventQueue` docs). Failures
// sort last: a step finishing at the crash instant still counts.
const CLASS_ARRIVAL: u8 = 0;
const CLASS_COMPLETION: u8 = 1;
const CLASS_FAILURE: u8 = 2;

/// One interval's wire: the event queue arrivals are scheduled on and
/// everything a relay transmission reads or mutates, built once so the
/// three send sites (normal forward, dead-position re-forward, failure
/// salvage) share one attempt loop.
struct Wire<'a> {
    /// The round whose environment supplies frame loss, spans and codec.
    round: &'a RingRound<'a>,
    /// Lane index spans are tagged with.
    lane: u32,
    ring: &'a Ring,
    queue: EventQueue<Event>,
    transport: TransportStats,
    /// Per-source-position monotone frame cursor: every physical attempt
    /// consumes one value, so the pure fault function sees a fresh
    /// `(round, src, dst, attempt)` coordinate per frame regardless of
    /// how many transmissions the edge carries. Empty without faults.
    sent: Vec<u64>,
    transfers: usize,
}

impl Wire<'_> {
    /// Emit one `phase` span for `device` over the experiment-clock
    /// extent `vt` (a no-op on a disabled sink).
    fn span(&self, phase: Phase, device: usize, seq: usize, vt: (f64, f64), wall: WallStart) {
        self.round.env.telemetry.span(
            phase,
            self.round.round as u32,
            SpanCtx::device(self.lane, device as u32, seq as u32),
            vt,
            wall,
        );
    }

    /// Schedule `model`'s arrival at `dst_pos` and emit the hop's span.
    /// Transfers are instantaneous: the model arrives when it is sent.
    fn deliver(&mut self, sent_at: SimTime, dst_pos: usize, seq: usize, model: ParamVec) {
        let arrival = Event::Arrival {
            pos: dst_pos,
            model,
        };
        self.queue.push_class(sent_at, CLASS_ARRIVAL, arrival);
        let at = self.round.at(sent_at);
        let wall = self.round.env.telemetry.wall_start();
        let dst = self.ring.order()[dst_pos];
        self.span(Phase::RelayHop, dst, seq, (at, at), wall);
    }

    /// Put `model` on the wire from ring position `src_pos` to `dst_pos`
    /// at virtual time `now`. Fault-free this is a single arrival and hop
    /// span; under an active fault plan it becomes the bounded retry loop
    /// described on [`RingRound::relay`].
    fn transmit(&mut self, now: SimTime, src_pos: usize, dst_pos: usize, mut model: ParamVec) {
        let RingRound { env, round, .. } = *self.round;
        let src = self.ring.order()[src_pos];
        let dst = self.ring.order()[dst_pos];
        // Every physical send crosses the codec (a no-op under `F32`).
        env.codec_transform(src, &mut model);
        let seq = self.transfers;
        self.transfers += 1;

        if !env.faults_active() {
            self.deliver(now, dst_pos, seq, model);
            return;
        }

        let mut t = now;
        for attempt in 0..=MAX_RETRIES {
            let lost = env
                .faults
                .fault(round as u64, src as u64, dst as u64, self.sent[src_pos]);
            self.sent[src_pos] += 1;
            if attempt > 0 {
                let at = self.round.at(t);
                let wall = env.telemetry.wall_start();
                let retry = self.transport.retries as usize;
                self.span(Phase::RelayAttempt, dst, retry, (at, at), wall);
                self.transport.retries += 1;
            }
            if !lost {
                return self.deliver(t, dst_pos, seq, model);
            }
            // The frame vanished in flight: the sender learns nothing
            // until its (implicit) ack window lapses, then backs off.
            t += backoff(attempt);
            self.transport.faults_at[dst_pos] += 1;
        }
        // Every attempt lost: give the transfer up. No arrival is
        // scheduled; the receiver keeps refining its own model (Eq. 7),
        // so the interval still completes for every live position.
        self.transport.giveups += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::topology::RingOrder;
    use fedhisyn_data::{DatasetProfile, Scale};
    use fedhisyn_simnet::{FaultConfig, FaultPlan};
    use fedhisyn_tensor::rng_from_seed;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// A smoke environment: static fleet, `F32` codec, untraced, no
    /// fault plan. The transport cases set `faults` themselves.
    fn smoke_env() -> FlEnv {
        ExperimentConfig::builder(DatasetProfile::MnistLike)
            .scale(Scale::Smoke)
            .devices(4)
            .build()
            .build_env()
    }

    /// Round 7 of `env`, an `interval`-second interval of the paper's
    /// receive policy.
    fn round_of(env: &FlEnv, interval: f64) -> RingRound<'_> {
        RingRound {
            env,
            round: 7,
            vt_base: 0.0,
            interval,
            policy: ReceivePolicy::TrainReceived,
        }
    }

    /// A small-to-large ring over devices `0..latencies.len()` (device `d`
    /// has latency `latencies[d]`), with per-position crash times
    /// `failures` (empty = nobody fails).
    fn lane_of(latencies: &[f64], failures: &[Option<f64>]) -> Lane {
        let members: Vec<usize> = (0..latencies.len()).collect();
        let mut rng = rng_from_seed(0);
        let ring = Ring::build(&members, latencies, RingOrder::SmallToLarge, &mut rng);
        Lane {
            latencies: ring.order().iter().map(|&d| latencies[d]).collect(),
            failures: failures.to_vec(),
            ring,
        }
    }

    /// A carry-over start: every position begins on its own zero model.
    fn zero_start(n: usize, dims: usize) -> RingStart<'static> {
        RingStart::PerPosition(vec![ParamVec::zeros(dims); n])
    }

    /// Relay `lane` with a mock trainer that adds 1.0 to coordinate
    /// `device`, so model provenance is readable from the params. Returns
    /// the outcome and, per ring position, the models it trained, in
    /// order.
    fn relay_log(
        round: &RingRound<'_>,
        lane: &Lane,
        start: RingStart<'_>,
    ) -> (RingOutcome, Vec<Vec<ParamVec>>) {
        let mut per_device = vec![Vec::new(); lane.ring.len()];
        let out = round.relay(0, lane, start, |device, mut model, _salt| {
            model.as_mut_slice()[device] += 1.0;
            per_device[device].push(model.clone());
            model
        });
        let trained = lane
            .ring
            .order()
            .iter()
            .map(|&d| std::mem::take(&mut per_device[d]))
            .collect();
        (out, trained)
    }

    /// [`relay_log`], with the local steps each ring position completed.
    fn relay(
        round: &RingRound<'_>,
        lane: &Lane,
        start: RingStart<'_>,
    ) -> (RingOutcome, Vec<usize>) {
        let (out, trained) = relay_log(round, lane, start);
        (out, trained.iter().map(Vec::len).collect())
    }

    #[test]
    fn step_budget_is_ceil_of_interval_over_latency() {
        let env = smoke_env();
        let (out, steps) = relay(
            &round_of(&env, 4.0),
            &lane_of(&[1.0, 2.0, 4.0], &[]),
            zero_start(3, 3),
        );
        // Positions sorted by latency: 1.0 → 4 steps, 2.0 → 2, 4.0 → 1.
        assert_eq!(steps, vec![4, 2, 1]);
        // Every step sends one transfer.
        assert_eq!(out.transfers, 7);
    }

    #[test]
    fn shared_start_is_equivalent_to_per_position_copies() {
        // The two starts train the same models; only what they return
        // differs — the final model for an upload, the carry-over model
        // otherwise.
        let env = smoke_env();
        let lane = lane_of(&[1.0, 2.0, 3.0], &[]);
        let global = ParamVec::from_vec(vec![0.5, -1.0, 2.0]);
        let run = |start: RingStart<'_>| relay_log(&round_of(&env, 5.0), &lane, start);
        let (shared, shared_trained) = run(RingStart::Shared(&global));
        let (cloned, cloned_trained) = run(RingStart::PerPosition(vec![global.clone(); 3]));
        assert_eq!(shared_trained, cloned_trained);
        assert_eq!(shared.transfers, cloned.transfers);
        let last: Vec<&ParamVec> = shared_trained.iter().flat_map(|t| t.last()).collect();
        assert_eq!(shared.models.iter().collect::<Vec<_>>(), last);
    }

    #[test]
    fn slowest_device_always_completes_one_step() {
        let env = smoke_env();
        let (_, steps) = relay(
            &round_of(&env, 1.0),
            &lane_of(&[1.0, 100.0], &[]),
            zero_start(2, 2),
        );
        assert!(steps.iter().all(|&s| s >= 1));
    }

    #[test]
    fn models_traverse_the_ring() {
        // Two homogeneous devices, long interval: models ping-pong, so each
        // device's final model must contain training from both devices.
        let env = smoke_env();
        let (out, _) = relay(
            &round_of(&env, 4.0),
            &lane_of(&[1.0, 1.0], &[]),
            RingStart::Shared(&ParamVec::zeros(2)),
        );
        for m in &out.models {
            assert!(
                m.as_slice().iter().all(|&x| x > 0.0),
                "model {m:?} should have been trained on both devices"
            );
        }
    }

    #[test]
    fn without_arrivals_devices_refine_their_own_model() {
        // Single device: trains its own model `ceil(R/t)` times.
        let env = smoke_env();
        let (out, steps) = relay(
            &round_of(&env, 3.0),
            &lane_of(&[1.0], &[]),
            zero_start(1, 1),
        );
        assert_eq!(steps, vec![3]);
        assert_eq!(out.transfers, 0, "singleton rings never transfer");
        assert_eq!(out.models[0].as_slice()[0], 3.0);
    }

    #[test]
    fn fast_device_trains_foreign_models_in_long_intervals() {
        // Fast (t=1) and slow (t=4): at the fast device's 5th step in an
        // interval of 8, it must have adopted the slow device's model at
        // least once (arrival at t=4).
        let env = smoke_env();
        let (out, _) = relay(
            &round_of(&env, 8.0),
            &lane_of(&[1.0, 4.0], &[]),
            RingStart::Shared(&ParamVec::zeros(2)),
        );
        // Fast position is 0 (sorted small-to-large). Its final model must
        // include slow-device training (coordinate 1 > 0).
        assert!(out.models[0].as_slice()[1] > 0.0);
    }

    #[test]
    fn zero_delay_handoff_lands_before_the_receivers_step() {
        // Two devices with t = 1 over R = 2 take two steps each, and both
        // complete at t = 1 and t = 2. Transfers take no time, so a model
        // sent at a completion arrives at that instant, tied with the
        // receiver's completion; arrivals pop first.
        //   t = 1: p0 trains [0,0] → [1,0] and sends it; its inbox is
        //          empty, so it keeps [1,0] for its next step. That
        //          arrival pops before p1's completion, so p1 trains
        //          [0,0] → [0,1], sends it, and adopts [1,0] next. p1's
        //          send reaches p0 after p0 has already chosen.
        //   t = 2: p0 trains [1,0] → [2,0] and sends it; again the
        //          arrival pops first, and p1 trains [1,0] → [1,1].
        // Final models are [2,0] and [1,1], which an upload start
        // returns. Each inbox ends on the newest arrival, so a carry-over
        // start returns the swap: p0 holds [1,1], p1 holds [2,0]. Four
        // sends in all. Had completions popped first, p1 would have
        // refined its own [0,1] into [0,2].
        let env = smoke_env();
        let lane = lane_of(&[1.0, 1.0], &[]);
        let zeros = ParamVec::zeros(2);
        let slices = |start: RingStart<'_>| -> (Vec<Vec<f32>>, usize) {
            let (out, _) = relay(&round_of(&env, 2.0), &lane, start);
            let models = out.models.iter().map(|m| m.as_slice().to_vec()).collect();
            (models, out.transfers)
        };
        assert_eq!(
            slices(RingStart::Shared(&zeros)),
            (vec![vec![2.0, 0.0], vec![1.0, 1.0]], 4)
        );
        assert_eq!(
            slices(zero_start(2, 2)),
            (vec![vec![1.0, 1.0], vec![2.0, 0.0]], 4)
        );
    }

    #[test]
    fn average_policy_mixes_models() {
        // Three steps: an arrival sent at t=1 is available at the t=2 step
        // boundary, where the averaging policy halves it into the local
        // model — fractional provenance must appear.
        let env = smoke_env();
        let round = RingRound {
            policy: ReceivePolicy::AverageThenTrain,
            ..round_of(&env, 3.0)
        };
        let zeros = ParamVec::zeros(2);
        let (out, _) = relay(
            &round,
            &lane_of(&[1.0, 1.0], &[]),
            RingStart::Shared(&zeros),
        );
        let has_fraction = out
            .models
            .iter()
            .flat_map(|m| m.as_slice())
            .any(|&x| x.fract() != 0.0);
        assert!(
            has_fraction,
            "averaging should produce fractional provenance: {:?}",
            out.models
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let env = smoke_env();
        let lane = lane_of(&[1.0, 2.0, 3.0, 5.0], &[]);
        let run = || relay(&round_of(&env, 6.0), &lane, zero_start(4, 4));
        let (a, a_steps) = run();
        let (b, b_steps) = run();
        assert_eq!(a_steps, b_steps);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.models, b.models);
    }

    #[test]
    fn salts_are_unique_per_step() {
        let env = smoke_env();
        let lane = lane_of(&[1.0, 1.0], &[]);
        let mut salts = Vec::new();
        let _ = round_of(&env, 3.0).relay(0, &lane, zero_start(2, 2), |_, m, salt| {
            salts.push(salt);
            m
        });
        let mut dedup = salts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), salts.len(), "salts must be unique: {salts:?}");
    }

    #[test]
    fn trainer_keeps_buffer_identity_across_refinement() {
        // A single device refining its own model must hand the trainer the
        // same allocation every step (move-based relay, no hidden clones).
        let env = smoke_env();
        let lane = lane_of(&[1.0], &[]);
        let mut ptrs = Vec::new();
        let _ = round_of(&env, 4.0).relay(0, &lane, zero_start(1, 2), |_, m, _| {
            ptrs.push(m.as_slice().as_ptr());
            m
        });
        assert!(ptrs.len() >= 2);
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "refinement steps must reuse the same model buffer"
        );
    }

    /// Relay over `latencies` for `interval` with crash times `failures`,
    /// on `env`'s wire, from an upload start of zeros (crashes and frame
    /// loss only occur on FedHiSyn's rings).
    fn run_faulty(
        env: &FlEnv,
        latencies: &[f64],
        interval: f64,
        failures: &[Option<f64>],
    ) -> (RingOutcome, Vec<usize>, Ring) {
        let n = latencies.len();
        let lane = lane_of(latencies, failures);
        let zeros = ParamVec::zeros(n);
        let (out, steps) = relay(&round_of(env, interval), &lane, RingStart::Shared(&zeros));
        (out, steps, lane.ring)
    }

    #[test]
    fn explicit_no_failures_match_the_static_path() {
        let env = smoke_env();
        let latencies = [1.0, 2.0, 3.0];
        let (none, none_steps, _) = run_faulty(&env, &latencies, 5.0, &[]);
        let (explicit, explicit_steps, _) = run_faulty(&env, &latencies, 5.0, &[None; 3]);
        assert_eq!(none.models, explicit.models);
        assert_eq!(none_steps, explicit_steps);
        assert_eq!(none.transfers, explicit.transfers);
        assert!(none.alive.iter().all(|&a| a));
    }

    #[test]
    fn mid_ring_failure_stops_the_dead_position() {
        // Three equal devices, 4 steps each; position 1 dies at t = 1.5
        // (after its first completion, mid-second-step).
        let env = smoke_env();
        let (out, steps, _) = run_faulty(&env, &[1.0, 1.0, 1.0], 4.0, &[None, Some(1.5), None]);
        assert_eq!(out.alive, vec![true, false, true]);
        assert_eq!(steps[1], 1, "one completed step before the crash");
        assert_eq!(steps[0], 4);
        assert_eq!(steps[2], 4);
    }

    #[test]
    fn forward_policy_salvages_the_in_flight_model() {
        // Two devices, position 1 starts with a marked model ([0, 100]) and
        // dies at t = 0.5, before its first completion.
        let env = smoke_env();
        let start = vec![ParamVec::zeros(2), ParamVec::from_vec(vec![0.0, 100.0])];
        let (out, _) = relay(
            &round_of(&env, 3.0),
            &lane_of(&[1.0, 1.0], &[None, Some(0.5)]),
            RingStart::PerPosition(start),
        );
        assert_eq!(out.alive, vec![true, false]);
        // The dead device's held model was forwarded: the survivor
        // adopted the marked model and kept training it.
        assert_eq!(
            out.models[0].as_slice()[1],
            100.0,
            "survivor must have adopted the salvaged model: {:?}",
            out.models[0]
        );
        // Exactly one transfer: the salvage forward (the survivor has no
        // live successor to send to afterwards).
        assert_eq!(out.transfers, 1);
    }

    #[test]
    fn ring_repairs_around_dead_position() {
        // Three devices; middle position dies instantly. The ring must
        // keep circulating between the two survivors: both end up with
        // each other's provenance.
        let env = smoke_env();
        let (out, _, ring) = run_faulty(&env, &[1.0, 1.0, 1.0], 6.0, &[None, Some(0.1), None]);
        let d0 = ring.order()[0];
        let d2 = ring.order()[2];
        assert!(out.models[0].as_slice()[d2] > 0.0, "0 got 2's work");
        assert!(out.models[2].as_slice()[d0] > 0.0, "2 got 0's work");
    }

    #[test]
    fn a_crash_due_after_the_final_step_still_salvages_the_inbox() {
        // Six steps of `t` summed in floats end one ulp before `R = 6t`,
        // so a crash drawn at that instant (before `R`) follows both
        // positions' final completions. Position 1's last send reaches
        // position 0 first; the crash then salvages it onto the wire —
        // one transfer more than the twelve steps — so position 0 must
        // not close at its final step.
        let (t, interval) = (3.783331467073774, 22.699988802442643);
        let last = (0..6).fold(0.0, |at, _| at + t);
        assert!(last < interval, "the float premise of this test");
        let env = smoke_env();
        let (out, steps, _) = run_faulty(&env, &[t, t], interval, &[Some(last), None]);
        assert_eq!(steps, vec![6, 6]);
        assert_eq!(out.alive, vec![false, true]);
        assert_eq!(out.transfers, 13);
    }

    #[test]
    fn all_but_one_dead_degenerates_to_solo_refinement() {
        let env = smoke_env();
        let failures = [Some(0.1), None, Some(0.2)];
        let (out, steps, _) = run_faulty(&env, &[1.0, 1.0, 1.0], 3.0, &failures);
        assert_eq!(out.alive, vec![false, true, false]);
        assert_eq!(steps[1], 3, "survivor trains its full budget");
    }

    #[test]
    fn failures_at_or_past_interval_are_ignored() {
        let env = smoke_env();
        let (clean, clean_steps, _) = run_faulty(&env, &[1.0, 2.0], 4.0, &[None, None]);
        let (late, late_steps, _) = run_faulty(&env, &[1.0, 2.0], 4.0, &[Some(4.0), Some(100.0)]);
        assert_eq!(clean.models, late.models);
        assert_eq!(clean_steps, late_steps);
        assert!(late.alive.iter().all(|&a| a));
    }

    #[test]
    fn faulty_simulation_is_deterministic() {
        let env = smoke_env();
        let run = || {
            run_faulty(
                &env,
                &[1.0, 2.0, 3.0, 4.0],
                6.0,
                &[None, Some(2.5), None, Some(1.0)],
            )
        };
        let (a, a_steps, _) = run();
        let (b, b_steps, _) = run();
        assert_eq!(a.models, b.models);
        assert_eq!(a_steps, b_steps);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.alive, b.alive);
    }

    /// A smoke environment whose wire follows `plan`.
    fn env_with_faults(plan: FaultPlan) -> FlEnv {
        let mut env = smoke_env();
        env.faults = plan;
        env
    }

    #[test]
    fn none_plan_is_identical_to_the_faultless_path() {
        // A seeded plan that loses nothing is inactive: it must draw
        // nothing and allocate no fault state.
        let latencies = [1.0, 2.0, 3.0];
        let zero_loss = env_with_faults(FaultPlan::new(42, FaultConfig::lossy(0.0)));
        let (with, with_steps, _) = run_faulty(&zero_loss, &latencies, 5.0, &[]);
        let (without, without_steps, _) = run_faulty(&smoke_env(), &latencies, 5.0, &[]);
        assert_eq!(with.models, without.models);
        assert_eq!(with_steps, without_steps);
        assert_eq!(with.transfers, without.transfers);
        assert_eq!(with.transport, TransportStats::default());
        assert!(
            with.transport.faults_at.is_empty(),
            "no fault state allocated"
        );
    }

    #[test]
    fn certain_loss_exhausts_retries_and_gives_up() {
        let env = env_with_faults(FaultPlan::new(42, FaultConfig::lossy(1.0)));
        let (out, steps, _) = run_faulty(&env, &[1.0, 1.0], 3.0, &[]);
        // Nothing ever arrives: both devices refine their own model only.
        for (p, m) in out.models.iter().enumerate() {
            assert_eq!(m.as_slice()[p] as usize, steps[p]);
        }
        // Every logical transfer is still counted, burned its full retry
        // budget (1 + 3 attempts) and was given up.
        let t = out.transfers as u64;
        assert!(t > 0);
        assert_eq!(out.transport.retries, 3 * t);
        assert_eq!(out.transport.giveups, t);
        assert_eq!(
            out.transport
                .faults_at
                .iter()
                .map(|&c| c as u64)
                .sum::<u64>(),
            4 * t
        );
    }

    #[test]
    fn double_and_last_position_failure_under_loss_completes() {
        // Two positions die (including the last ring position) while the
        // wire is lossy. The round must still complete, with the lone
        // survivor training its full budget and the dead positions' held
        // models salvaged onto the wire.
        let env = env_with_faults(FaultPlan::new(3, FaultConfig::lossy(0.5)));
        let failures = [None, Some(0.5), Some(1.5)];
        let (out, steps, _) = run_faulty(&env, &[1.0, 1.0, 1.0], 4.0, &failures);
        assert_eq!(out.alive, vec![true, false, false]);
        assert_eq!(steps[0], 4, "survivor trains its full budget");
        assert_eq!(steps[2], 1, "one completed step before the t=1.5 crash");
        assert!(out.transfers >= 1, "the salvage forward reaches the wire");
    }

    #[test]
    fn transport_replays_bit_identically() {
        let env = env_with_faults(FaultPlan::new(0xDEAD_BEEF, FaultConfig::lossy(0.1)));
        let run = || run_faulty(&env, &[1.0, 2.0, 3.0, 4.0], 6.0, &[]);
        let ((a, a_steps, _), (b, b_steps, _)) = (run(), run());
        assert_eq!(a.models, b.models);
        assert_eq!(a_steps, b_steps);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.alive, b.alive);
        assert_eq!(a.transport, b.transport);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let env = smoke_env();
        let _ = relay(
            &round_of(&env, 0.0),
            &lane_of(&[1.0], &[]),
            zero_start(1, 1),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ring_sim_step_budget_is_ceil(
            lats in pvec(1.0f64..10.0, 1..8),
            interval in 1.0f64..30.0,
        ) {
            let env = smoke_env();
            let lane = lane_of(&lats, &[]);
            let start = RingStart::PerPosition(vec![ParamVec::zeros(lats.len()); lats.len()]);
            let (out, steps) = relay(&round_of(&env, interval), &lane, start);
            for (pos, &steps) in steps.iter().enumerate() {
                let expect = ((interval / lane.latencies[pos]).ceil() as usize).max(1);
                prop_assert_eq!(steps, expect, "position {}", pos);
            }
            // Transfers = total steps when the ring has >1 member.
            let total: usize = steps.iter().sum();
            if lane.ring.len() > 1 {
                prop_assert_eq!(out.transfers, total);
            } else {
                prop_assert_eq!(out.transfers, 0);
            }
        }

        #[test]
        fn faulty_ring_outcomes_are_deterministic_and_conservative(
            n in 2usize..10,
            seed in 0u64..200,
            interval_factor in 1.0f64..6.0,
            fail_mask in 0u32..64,
        ) {
            // Arbitrary failure schedules: a masked subset of positions dies
            // at seed-derived times. The relay must (a) reproduce identical
            // outcomes on replay, (b) keep exactly the non-failed positions
            // alive, (c) hand back one model per position regardless, and
            // (d) return each survivor's last trained model from an upload
            // start.
            let members: Vec<usize> = (0..n).collect();
            let latencies: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 + seed as usize) % 5) as f64).collect();
            let mut rng = rng_from_seed(seed);
            let ring = Ring::build(&members, &latencies, RingOrder::SmallToLarge, &mut rng);
            let ring_lat: Vec<f64> = ring.order().iter().map(|&d| latencies[d]).collect();
            let interval = interval_factor * ring_lat.iter().cloned().fold(0.0, f64::max);
            let failures: Vec<Option<f64>> = (0..n)
                .map(|p| {
                    if fail_mask & (1 << (p % 32)) != 0 {
                        Some(interval * ((p as f64 * 0.37 + seed as f64 * 0.11) % 1.0))
                    } else {
                        None
                    }
                })
                .collect();
            let lane = Lane { ring, latencies: ring_lat, failures: failures.clone() };
            let env = smoke_env();
            let zeros = ParamVec::zeros(n);
            let run = || relay_log(&round_of(&env, interval), &lane, RingStart::Shared(&zeros));
            let (a, a_trained) = run();
            let (b, b_trained) = run();
            prop_assert_eq!(&a.models, &b.models);
            prop_assert_eq!(&a_trained, &b_trained);
            prop_assert_eq!(a.transfers, b.transfers);
            prop_assert_eq!(&a.alive, &b.alive);
            prop_assert_eq!(a.models.len(), n);
            for (p, alive) in a.alive.iter().enumerate() {
                prop_assert_eq!(*alive, failures[p].is_none(), "position {}", p);
                if *alive {
                    let last = a_trained[p].last();
                    prop_assert!(last.is_some(), "survivors complete at least one step");
                    prop_assert_eq!(Some(&a.models[p]), last, "position {}", p);
                }
            }
        }
    }
}
