//! The original `BTreeMap`-based bus simulator, kept verbatim as the oracle
//! the dense-table [`super::FlexRayBus`] is pinned to.
//!
//! Frames live in a `BTreeMap` keyed by id; every static slot of every cycle
//! scans all frames for its owner and the `pending` vector for a ready
//! payload, and the dynamic segment filters and sorts `pending` into
//! arbitration order. That is slow but obviously faithful to the cycle
//! semantics, which is what an oracle needs. The equivalence proptest below
//! drives both buses through the same random call scripts and compares them
//! after every call.

use super::BusStatistics;
use crate::config::FlexRayConfig;
use crate::error::{FlexRayError, Result};
use crate::fault::FaultModel;
use crate::frame::{Frame, Segment, Transmission};
use crate::rng::SimRng;
use std::collections::BTreeMap;

/// A queued, not yet transmitted payload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingTransmission {
    frame_id: u32,
    queued_at: f64,
}

/// The FlexRay bus simulator.
#[derive(Debug, Clone)]
pub struct FlexRayBus {
    config: FlexRayConfig,
    frames: BTreeMap<u32, Frame>,
    pending: Vec<PendingTransmission>,
    log: Vec<Transmission>,
    statistics: BusStatistics,
    completed_cycles: u64,
    /// Installed fault model; `None` = nominal bus, zero RNG consumption.
    fault: Option<FaultModel>,
    /// The fault layer's RNG stream (reseeded from the model on install and
    /// on [`FlexRayBus::reset`]).
    fault_rng: SimRng,
    /// Current Gilbert–Elliott channel state (`true` = bad/bursty).
    burst_bad: bool,
    /// Per-frame lost-transmission counters, filled at registration; linear
    /// search keeps the hot path allocation- and hash-free (fleets register
    /// a handful of frames).
    frame_losses: Vec<(u32, u64)>,
    /// Whether completed transmissions are appended to the log. Streaming
    /// campaigns disable this so a long run stays O(1) in memory.
    logging: bool,
    /// Reusable scratch for the dynamic-segment arbitration order.
    dynamic_scratch: Vec<PendingTransmission>,
}

impl FlexRayBus {
    /// Creates a bus with the given cycle configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: FlexRayConfig) -> Result<Self> {
        config.validate()?;
        Ok(FlexRayBus {
            config,
            frames: BTreeMap::new(),
            pending: Vec::new(),
            log: Vec::new(),
            statistics: BusStatistics::default(),
            completed_cycles: 0,
            fault: None,
            fault_rng: SimRng::seeded(0),
            burst_bad: false,
            frame_losses: Vec::new(),
            logging: true,
            dynamic_scratch: Vec::new(),
        })
    }

    /// The bus configuration.
    pub fn config(&self) -> &FlexRayConfig {
        &self.config
    }

    /// Current simulation time (start of the next cycle to simulate).
    pub fn time(&self) -> f64 {
        self.completed_cycles as f64 * self.config.cycle_length
    }

    /// Usage counters accumulated so far.
    pub fn statistics(&self) -> BusStatistics {
        self.statistics
    }

    /// All completed transmissions in completion order (empty while logging
    /// is disabled — see [`FlexRayBus::set_logging`]).
    pub fn transmissions(&self) -> &[Transmission] {
        &self.log
    }

    /// Installs (or removes, with `None`) the fault model. The fault RNG is
    /// reseeded from the model's seed, so installing the same model twice
    /// replays the same fault sequence.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidConfig`] if any model probability is
    /// outside `[0, 1]`.
    pub fn set_fault_model(&mut self, model: Option<FaultModel>) -> Result<()> {
        if let Some(model) = &model {
            model.validate()?;
        }
        self.fault = model;
        self.reseed_faults();
        Ok(())
    }

    /// The currently installed fault model, if any.
    pub fn fault_model(&self) -> Option<FaultModel> {
        self.fault
    }

    /// Enables or disables the transmission log. Disabling keeps long runs
    /// O(1) in memory (the counters still accumulate); the log contents are
    /// unchanged until the next completed transmission or reset.
    pub fn set_logging(&mut self, logging: bool) {
        self.logging = logging;
    }

    /// Whether completed transmissions are appended to the log.
    pub fn logging(&self) -> bool {
        self.logging
    }

    /// Number of transmission attempts of `frame_id` lost to the fault layer
    /// (drops plus detected corruptions) since the last reset.
    pub fn losses_of(&self, frame_id: u32) -> u64 {
        self.frame_losses
            .iter()
            .find(|(id, _)| *id == frame_id)
            .map(|(_, losses)| *losses)
            .unwrap_or(0)
    }

    /// Registers a frame on the bus.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the identifier is already
    /// registered, the frame references a non-existent static slot, the slot
    /// is already owned by another frame, or the frame needs more minislots
    /// than the dynamic segment offers.
    pub fn register_frame(&mut self, frame: Frame) -> Result<()> {
        if self.frames.contains_key(&frame.id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {} is already registered", frame.id),
            });
        }
        if frame.dynamic_minislots > self.config.minislot_count {
            return Err(FlexRayError::InvalidFrame {
                reason: format!(
                    "frame {} needs {} minislots but the dynamic segment has only {}",
                    frame.id, frame.dynamic_minislots, self.config.minislot_count
                ),
            });
        }
        if let Segment::Static { slot } = frame.segment {
            self.validate_static_assignment(frame.id, slot)?;
        }
        self.frame_losses.push((frame.id, 0));
        self.frames.insert(frame.id, frame);
        Ok(())
    }

    fn validate_static_assignment(&self, frame_id: u32, slot: usize) -> Result<()> {
        self.config.static_slot_start(slot)?;
        if let Some(owner) = self
            .frames
            .values()
            .find(|f| f.id != frame_id && f.segment == Segment::Static { slot })
        {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("static slot {slot} is already owned by frame {}", owner.id),
            });
        }
        Ok(())
    }

    /// Moves a frame between the static and dynamic segments — the bus-level
    /// primitive behind the paper's dynamic resource-allocation scheme
    /// (Figure 1): a control signal requests a TT slot during a transient and
    /// relinquishes it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the frame is unknown or the
    /// requested static slot is invalid or occupied.
    pub fn reassign_frame(&mut self, frame_id: u32, segment: Segment) -> Result<()> {
        if !self.frames.contains_key(&frame_id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {frame_id} is not registered"),
            });
        }
        if let Segment::Static { slot } = segment {
            self.validate_static_assignment(frame_id, slot)?;
        }
        if let Some(frame) = self.frames.get_mut(&frame_id) {
            frame.segment = segment;
        }
        Ok(())
    }

    /// Returns the frame registered under `frame_id`, if any.
    pub fn frame(&self, frame_id: u32) -> Option<&Frame> {
        self.frames.get(&frame_id)
    }

    /// Queues a payload of `frame_id` for transmission at time `queued_at`.
    ///
    /// Earlier queued payloads of the same frame that are still pending are
    /// replaced (a control signal always transmits its freshest value).
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the frame is unknown.
    pub fn queue_message(&mut self, frame_id: u32, queued_at: f64) -> Result<()> {
        if !self.frames.contains_key(&frame_id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {frame_id} is not registered"),
            });
        }
        self.pending.retain(|p| p.frame_id != frame_id);
        self.pending.push(PendingTransmission { frame_id, queued_at });
        Ok(())
    }

    /// Routes one transmission attempt through the fault layer. Returns
    /// `true` if the payload arrives intact; losses bump the statistics and
    /// the per-frame counter. See [`crate::fault`] for the draw order.
    fn transmission_survives(&mut self, frame_id: u32) -> bool {
        let Some(model) = self.fault else {
            return true;
        };
        if let Some(burst) = model.burst {
            let transition = if self.burst_bad {
                burst.recover_probability
            } else {
                burst.degrade_probability
            };
            if self.fault_rng.next_unit() < transition {
                self.burst_bad = !self.burst_bad;
            }
        }
        let drop_probability = match (model.burst, self.burst_bad) {
            (Some(burst), true) => burst.bad_drop_probability,
            _ => model.drop_probability,
        };
        if self.fault_rng.next_unit() < drop_probability {
            self.statistics.dropped_frames += 1;
            self.record_loss(frame_id);
            return false;
        }
        if self.fault_rng.next_unit() < model.corruption_probability {
            self.statistics.corrupted_frames += 1;
            self.record_loss(frame_id);
            return false;
        }
        true
    }

    fn record_loss(&mut self, frame_id: u32) {
        if let Some(entry) = self.frame_losses.iter_mut().find(|(id, _)| *id == frame_id) {
            entry.1 += 1;
        }
    }

    /// Simulates one full communication cycle; completed transmissions go to
    /// the log (when logging) and to `out` (when given). Allocation-free:
    /// the arbitration order lives in a reusable scratch buffer.
    fn cycle_into(&mut self, mut out: Option<&mut Vec<Transmission>>) {
        let cycle_start = self.time();

        // Static (TT) segment: each slot carries its owner's payload if one
        // was queued before the slot begins. A lost payload still consumed
        // its slot (the wire was busy), so the TDMA timetable is unaffected.
        for slot in 0..self.config.static_slot_count {
            let slot_start = cycle_start
                + self.config.static_slot_start(slot).expect("slot index within configured range");
            let owner = self
                .frames
                .values()
                .find(|f| f.segment == Segment::Static { slot })
                .map(|f| f.id);
            let Some(owner_id) = owner else {
                continue;
            };
            let ready = self
                .pending
                .iter()
                .position(|p| p.frame_id == owner_id && p.queued_at <= slot_start);
            match ready {
                Some(index) => {
                    let request = self.pending.remove(index);
                    if self.transmission_survives(owner_id) {
                        let tx = Transmission {
                            frame_id: owner_id,
                            queued_at: request.queued_at,
                            completed_at: slot_start + self.config.static_slot_length,
                            used_static_slot: true,
                        };
                        self.statistics.static_transmissions += 1;
                        if self.logging {
                            self.log.push(tx);
                        }
                        if let Some(sink) = out.as_deref_mut() {
                            sink.push(tx);
                        }
                    }
                }
                None => {
                    self.statistics.wasted_static_slots += 1;
                }
            }
        }

        // Dynamic (ET) segment: background contention (if modelled) occupies
        // the head of the minislot budget, then pending dynamic frames
        // arbitrate in identifier order over what is left.
        let dynamic_start = cycle_start + self.config.dynamic_segment_start();
        let mut used_minislots = 0usize;
        if let Some(contention) = self.fault.and_then(|m| m.dynamic_contention) {
            let background = self
                .fault_rng
                .next_below(contention.max_background_minislots as u64 + 1)
                as usize;
            used_minislots = background.min(self.config.minislot_count);
            self.statistics.background_minislots += used_minislots as u64;
        }
        let mut ready = std::mem::take(&mut self.dynamic_scratch);
        ready.clear();
        ready.extend(self.pending.iter().copied().filter(|p| {
            p.queued_at <= dynamic_start
                && self.frames.get(&p.frame_id).map(|f| !f.is_static()).unwrap_or(false)
        }));
        ready.sort_by_key(|p| p.frame_id);
        for request in &ready {
            let minislots = self.frames[&request.frame_id].dynamic_minislots;
            if used_minislots + minislots > self.config.minislot_count {
                // Does not fit any more: deferred to the next cycle.
                self.statistics.deferred_dynamic_transmissions += 1;
                continue;
            }
            used_minislots += minislots;
            self.pending.retain(|p| p.frame_id != request.frame_id);
            if self.transmission_survives(request.frame_id) {
                let tx = Transmission {
                    frame_id: request.frame_id,
                    queued_at: request.queued_at,
                    completed_at: dynamic_start
                        + used_minislots as f64 * self.config.minislot_length,
                    used_static_slot: false,
                };
                self.statistics.dynamic_transmissions += 1;
                if self.logging {
                    self.log.push(tx);
                }
                if let Some(sink) = out.as_deref_mut() {
                    sink.push(tx);
                }
            }
        }
        self.dynamic_scratch = ready;

        self.statistics.cycles += 1;
        self.completed_cycles += 1;
    }

    /// Simulates one full communication cycle and returns the transmissions
    /// completed during it.
    pub fn run_cycle(&mut self) -> Vec<Transmission> {
        let mut completed = Vec::new();
        self.cycle_into(Some(&mut completed));
        completed
    }

    /// Simulates one full communication cycle without materialising the
    /// completed transmissions — the allocation-free twin of
    /// [`FlexRayBus::run_cycle`] for streaming workloads (combine with
    /// [`FlexRayBus::set_logging`]`(false)` for O(1) memory).
    pub fn advance_cycle(&mut self) {
        self.cycle_into(None);
    }

    /// Runs full cycles until the simulation time reaches at least `time`,
    /// returning all transmissions completed on the way.
    pub fn run_until(&mut self, time: f64) -> Vec<Transmission> {
        let mut all = Vec::new();
        while self.time() < time {
            self.cycle_into(Some(&mut all));
        }
        all
    }

    /// Runs full cycles until the simulation time reaches at least `time`
    /// without materialising transmissions — the allocation-free twin of
    /// [`FlexRayBus::run_until`].
    pub fn advance_until(&mut self, time: f64) {
        while self.time() < time {
            self.cycle_into(None);
        }
    }

    /// Latencies of all completed transmissions of the given frame.
    pub fn latencies_of(&self, frame_id: u32) -> Vec<f64> {
        self.log.iter().filter(|t| t.frame_id == frame_id).map(Transmission::latency).collect()
    }

    /// Rewinds the bus to time zero: pending payloads, the transmission log,
    /// the usage counters, the cycle counter, the per-frame loss counters
    /// and the fault layer's RNG/burst state are cleared (the fault RNG is
    /// reseeded from the installed model, so a rerun replays the same fault
    /// sequence). Registered frames, the installed fault model and the
    /// logging flag are kept, so a simulation can be rerun without
    /// rebuilding the bus — the primitive behind `CoSimulation::reset` and
    /// the scenario/campaign engines.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.log.clear();
        self.statistics = BusStatistics::default();
        self.completed_cycles = 0;
        for entry in &mut self.frame_losses {
            entry.1 = 0;
        }
        self.reseed_faults();
    }

    /// Rewinds the fault RNG stream to the installed model's seed and the
    /// burst channel to the good state.
    fn reseed_faults(&mut self) {
        self.fault_rng = SimRng::seeded(self.fault.map(|m| m.seed).unwrap_or(0));
        self.burst_bad = false;
    }
}

#[cfg(test)]
mod tests {
    use super::FlexRayBus as ReferenceBus;
    use crate::bus::FlexRayBus;
    use crate::config::FlexRayConfig;
    use crate::fault::{FaultModel, GilbertElliott};
    use crate::frame::{Frame, Segment, Transmission};
    use proptest::prelude::*;

    /// Non-contiguous, out-of-order identifiers. Scripts register only some
    /// of them, so calls naming an unknown id are exercised too.
    const IDS: [u32; 8] = [10, 2, 7, 99, 1, 50, 3, 1234];

    /// The paper's bus, or a small one (4 slots, 12 minislots) where slot
    /// collisions and dynamic overflow are frequent.
    fn config(choice: usize) -> FlexRayConfig {
        if choice % 2 == 0 {
            FlexRayConfig::paper_case_study()
        } else {
            FlexRayConfig {
                cycle_length: 0.001,
                static_slot_count: 4,
                static_slot_length: 0.0001,
                minislot_count: 12,
                minislot_length: 0.00004,
            }
        }
    }

    /// Every fault mix, plus an invalid model that must be rejected alike.
    fn fault_mix(choice: usize, seed: u64, p: f64) -> Option<FaultModel> {
        let burst = GilbertElliott {
            degrade_probability: 0.1,
            recover_probability: 0.3,
            bad_drop_probability: 0.9,
        };
        match choice % 8 {
            0 => None,
            1 => Some(FaultModel::drops(seed, p)),
            2 => Some(FaultModel::drops(seed, p * 0.2).with_burst(burst)),
            3 => Some(FaultModel::drops(seed, 0.0).with_corruption(p)),
            4 => Some(FaultModel { seed, ..FaultModel::default() }.with_dynamic_contention(60)),
            5 => Some(
                FaultModel::drops(seed, p * 0.3)
                    .with_burst(burst)
                    .with_corruption(p * 0.2)
                    .with_dynamic_contention(8),
            ),
            6 => Some(FaultModel { seed, ..FaultModel::default() }),
            _ => Some(FaultModel::drops(seed, 1.0 + p)),
        }
    }

    fn bits(txs: &[Transmission]) -> Vec<(u32, u64, u64, bool)> {
        txs.iter()
            .map(|t| {
                (t.frame_id, t.queued_at.to_bits(), t.completed_at.to_bits(), t.used_static_slot)
            })
            .collect()
    }

    fn assert_same(dense: &FlexRayBus, reference: &ReferenceBus, step: usize) {
        assert_eq!(dense.time().to_bits(), reference.time().to_bits(), "time after step {step}");
        assert_eq!(dense.statistics(), reference.statistics(), "statistics after step {step}");
        assert_eq!(
            bits(dense.transmissions()),
            bits(reference.transmissions()),
            "log after step {step}"
        );
        assert_eq!(dense.config(), reference.config());
        assert_eq!(dense.fault_model(), reference.fault_model(), "fault model after step {step}");
        assert_eq!(dense.logging(), reference.logging(), "logging after step {step}");
        for id in IDS {
            assert_eq!(dense.losses_of(id), reference.losses_of(id), "losses of {id} at {step}");
            assert_eq!(dense.frame(id), reference.frame(id), "frame {id} after step {step}");
            let dense_latencies: Vec<u64> =
                dense.latencies_of(id).iter().map(|l| l.to_bits()).collect();
            let reference_latencies: Vec<u64> =
                reference.latencies_of(id).iter().map(|l| l.to_bits()).collect();
            assert_eq!(dense_latencies, reference_latencies, "latencies of {id} at {step}");
        }
    }

    /// Applies one call to both buses and asserts both return the same.
    macro_rules! on_both {
        ($dense:ident, $reference:ident, |$bus:ident| $call:expr) => {{
            let from_dense = {
                let $bus = &mut $dense;
                $call
            };
            let from_reference = {
                let $bus = &mut $reference;
                $call
            };
            (from_dense, from_reference)
        }};
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn dense_bus_matches_reference_call_for_call(
            setup in (0usize..2, 0usize..8, 0usize..1000, 0.0f64..1.0),
            script in proptest::collection::vec(
                (0usize..16, 0usize..64, 0usize..64, 0.0f64..1.0),
                1..120,
            ),
        ) {
            let (config_choice, fault_choice, seed, p) = setup;
            let config = config(config_choice);
            let mut dense = FlexRayBus::new(config).unwrap();
            let mut reference = ReferenceBus::new(config).unwrap();
            let model = fault_mix(fault_choice, seed as u64, p);
            let (d, r) = on_both!(dense, reference, |bus| bus.set_fault_model(model));
            prop_assert_eq!(d, r);
            assert_same(&dense, &reference, 0);

            let slots = config.static_slot_count;
            for (step, &(kind, a, b, x)) in script.iter().enumerate() {
                let id = IDS[a % IDS.len()];
                let now = reference.time();
                match kind {
                    0 | 1 => {
                        let minislots = 1 + b % (config.minislot_count + 10);
                        let frame = Frame::dynamic(id, "et", minislots).unwrap();
                        let (d, r) =
                            on_both!(dense, reference, |bus| bus.register_frame(frame.clone()));
                        prop_assert_eq!(d, r, "register dynamic {} at {}", id, step);
                    }
                    2 => {
                        let frame =
                            Frame::static_slot(id, "tt", b % (slots + 2), 1 + (a / 8) % 8).unwrap();
                        let (d, r) =
                            on_both!(dense, reference, |bus| bus.register_frame(frame.clone()));
                        prop_assert_eq!(d, r, "register static {} at {}", id, step);
                    }
                    3 | 4 => {
                        let segment = if b % 3 == 0 {
                            Segment::Dynamic
                        } else {
                            Segment::Static { slot: b % (slots + 2) }
                        };
                        let (d, r) =
                            on_both!(dense, reference, |bus| bus.reassign_frame(id, segment));
                        prop_assert_eq!(d, r, "reassign {} to {:?} at {}", id, segment, step);
                    }
                    5..=7 => {
                        // Exactly at a slot start or the dynamic-segment start
                        // (the `<=` boundary), or anywhere from just inside the
                        // previous cycle to a few cycles ahead.
                        let t = match b % 6 {
                            0 => now + (a % slots) as f64 * config.static_slot_length,
                            1 => now + config.dynamic_segment_start(),
                            _ => now + (x * 3.0 - 0.8) * config.cycle_length,
                        };
                        let (d, r) = on_both!(dense, reference, |bus| bus.queue_message(id, t));
                        prop_assert_eq!(d, r, "queue {} at {} (step {})", id, t, step);
                    }
                    8 | 9 => on_both!(dense, reference, |bus| bus.advance_cycle()).0,
                    10 => {
                        let (d, r) = on_both!(dense, reference, |bus| bus.run_cycle());
                        prop_assert_eq!(bits(&d), bits(&r), "run_cycle at {}", step);
                    }
                    11 => {
                        let until = now + x * 3.0 * config.cycle_length;
                        let (d, r) = on_both!(dense, reference, |bus| bus.run_until(until));
                        prop_assert_eq!(bits(&d), bits(&r), "run_until at {}", step);
                    }
                    12 => {
                        let until = now + x * 3.0 * config.cycle_length;
                        on_both!(dense, reference, |bus| bus.advance_until(until));
                    }
                    13 => on_both!(dense, reference, |bus| bus.reset()).0,
                    14 => on_both!(dense, reference, |bus| bus.set_logging(b % 2 == 0)).0,
                    _ => {
                        let model = fault_mix(b, a as u64, x);
                        let (d, r) = on_both!(dense, reference, |bus| bus.set_fault_model(model));
                        prop_assert_eq!(d, r, "set_fault_model at {}", step);
                    }
                }
                assert_same(&dense, &reference, step + 1);
            }
        }
    }
}
