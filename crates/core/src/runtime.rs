//! The dynamic resource-allocation runtime of Figure 1: per-application
//! mode state machines plus the non-preemptive, priority-ordered arbiter of
//! each shared TT slot.

use crate::error::{CoreError, Result};
use cps_control::CommunicationMode;

/// Phase of one application in the Figure 1 scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AppPhase {
    /// Steady state (‖x‖ ≤ E_th): the control signal uses ET communication.
    #[default]
    Steady,
    /// Transient (‖x‖ > E_th) but the TT slot is held by someone else: the
    /// signal keeps using ET communication while waiting.
    Waiting,
    /// Transient and in possession of the TT slot.
    UsingSlot,
}

/// Configuration of one application as seen by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeApp {
    /// Application name (for reporting).
    pub name: String,
    /// Switching threshold E_th of this application.
    pub threshold: f64,
    /// Index of the TT slot this application shares (from the offline slot
    /// allocation), or `None` if it never uses TT communication.
    pub slot: Option<usize>,
    /// Priority: smaller value = higher priority (the paper uses the
    /// deadline).
    pub priority: f64,
}

/// The runtime: application phases plus per-slot ownership.
#[derive(Debug, Clone)]
pub struct AllocationRuntime {
    apps: Vec<RuntimeApp>,
    phases: Vec<AppPhase>,
    /// Current holder of each slot.
    holders: Vec<Option<usize>>,
}

impl AllocationRuntime {
    /// Creates the runtime for the given applications and number of TT slots.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if an application references a
    /// slot index out of range or has a non-positive threshold.
    pub fn new(apps: Vec<RuntimeApp>, slot_count: usize) -> Result<Self> {
        for app in &apps {
            if let Some(slot) = app.slot {
                if slot >= slot_count {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "{} references slot {slot} but only {slot_count} slots exist",
                            app.name
                        ),
                    });
                }
            }
            if !(app.threshold > 0.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{}: threshold must be positive", app.name),
                });
            }
        }
        let phases = vec![AppPhase::Steady; apps.len()];
        Ok(AllocationRuntime { apps, phases, holders: vec![None; slot_count] })
    }

    /// Current phase of each application.
    pub fn phases(&self) -> &[AppPhase] {
        &self.phases
    }

    /// Number of applications managed by the runtime.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Returns every application to the steady phase and frees all slots,
    /// so the runtime can be rerun without reconstruction.
    pub fn reset(&mut self) {
        self.phases.fill(AppPhase::Steady);
        self.holders.fill(None);
    }

    /// Overrides the switching threshold of one application — the primitive
    /// behind threshold-sweep scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the index is out of range or
    /// the threshold is not positive.
    pub fn set_threshold(&mut self, index: usize, threshold: f64) -> Result<()> {
        if index >= self.apps.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!("application index {index} out of range"),
            });
        }
        if !(threshold > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("{}: threshold must be positive", self.apps[index].name),
            });
        }
        self.apps[index].threshold = threshold;
        Ok(())
    }

    /// Current holder (application index) of each TT slot.
    pub fn slot_holders(&self) -> &[Option<usize>] {
        &self.holders
    }

    /// Replaces every application's slot assignment and the slot count in
    /// one atomic step — the primitive behind slot-map sweep scenarios.
    /// All phases return to steady and every slot is freed (a slot map only
    /// changes between runs); thresholds are preserved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the assignment list does not
    /// cover every application or references a slot out of range; the
    /// runtime is left unchanged on error.
    pub fn set_allocation(
        &mut self,
        assignments: &[Option<usize>],
        slot_count: usize,
    ) -> Result<()> {
        if assignments.len() != self.apps.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "expected {} slot assignments, got {}",
                    self.apps.len(),
                    assignments.len()
                ),
            });
        }
        for (app, assignment) in self.apps.iter().zip(assignments) {
            if let Some(slot) = assignment {
                if *slot >= slot_count {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "{} references slot {slot} but only {slot_count} slots exist",
                            app.name
                        ),
                    });
                }
            }
        }
        for (app, assignment) in self.apps.iter_mut().zip(assignments) {
            app.slot = *assignment;
        }
        self.holders.clear();
        self.holders.resize(slot_count, None);
        self.phases.fill(AppPhase::Steady);
        Ok(())
    }

    /// Advances the scheme by one sampling period given the current
    /// plant-state norms, returning the communication mode each application
    /// must use for the upcoming period.
    ///
    /// The update follows Figure 1:
    /// 1. applications whose norm dropped to or below their threshold release
    ///    their slot and return to the steady phase;
    /// 2. applications whose norm exceeds the threshold request their slot;
    /// 3. each free slot is granted to the highest-priority waiting
    ///    application (non-preemptive — a holder is never evicted).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `norms` has the wrong length.
    pub fn step(&mut self, norms: &[f64]) -> Result<Vec<CommunicationMode>> {
        let mut modes = Vec::with_capacity(self.apps.len());
        self.step_into(norms, &mut modes)?;
        Ok(modes)
    }

    /// Allocation-free variant of [`AllocationRuntime::step`]: the modes are
    /// written into `modes` (cleared first), reusing its capacity. The
    /// co-simulation engine calls this every period with one long-lived
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `norms` has the wrong length.
    pub fn step_into(
        &mut self,
        norms: &[f64],
        modes: &mut Vec<CommunicationMode>,
    ) -> Result<()> {
        modes.clear();
        if norms.len() != self.apps.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "expected {} norms, got {}",
                    self.apps.len(),
                    norms.len()
                ),
            });
        }
        // 1. Releases and steady-state transitions.
        for (index, app) in self.apps.iter().enumerate() {
            let in_transient = norms[index] > app.threshold;
            match self.phases[index] {
                AppPhase::UsingSlot if !in_transient => {
                    if let Some(slot) = app.slot {
                        if self.holders[slot] == Some(index) {
                            self.holders[slot] = None;
                        }
                    }
                    self.phases[index] = AppPhase::Steady;
                }
                AppPhase::Waiting if !in_transient => {
                    // The ET controller rejected the disturbance before the
                    // slot was ever granted.
                    self.phases[index] = AppPhase::Steady;
                }
                AppPhase::Steady if in_transient => {
                    self.phases[index] =
                        if app.slot.is_some() { AppPhase::Waiting } else { AppPhase::Steady };
                }
                _ => {}
            }
        }
        // 2./3. Grant each free slot to its highest-priority waiter.
        for slot in 0..self.holders.len() {
            if self.holders[slot].is_some() {
                continue;
            }
            let waiter = self
                .apps
                .iter()
                .enumerate()
                .filter(|(index, app)| {
                    app.slot == Some(slot) && self.phases[*index] == AppPhase::Waiting
                })
                .min_by(|(_, a), (_, b)| {
                    a.priority.partial_cmp(&b.priority).expect("finite priorities")
                })
                .map(|(index, _)| index);
            if let Some(index) = waiter {
                self.holders[slot] = Some(index);
                self.phases[index] = AppPhase::UsingSlot;
            }
        }
        // Communication modes for the upcoming period.
        modes.extend(self.phases.iter().map(|phase| match phase {
            AppPhase::UsingSlot => CommunicationMode::TimeTriggered,
            _ => CommunicationMode::EventTriggered,
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_apps_one_slot() -> AllocationRuntime {
        AllocationRuntime::new(
            vec![
                RuntimeApp { name: "high".into(), threshold: 0.1, slot: Some(0), priority: 1.0 },
                RuntimeApp { name: "low".into(), threshold: 0.1, slot: Some(0), priority: 2.0 },
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn steady_state_uses_et() {
        let mut runtime = two_apps_one_slot();
        let modes = runtime.step(&[0.05, 0.05]).unwrap();
        assert!(modes.iter().all(|m| *m == CommunicationMode::EventTriggered));
        assert_eq!(runtime.slot_holders(), &[None]);
    }

    #[test]
    fn transient_application_gets_the_slot() {
        let mut runtime = two_apps_one_slot();
        let modes = runtime.step(&[0.5, 0.05]).unwrap();
        assert_eq!(modes[0], CommunicationMode::TimeTriggered);
        assert_eq!(modes[1], CommunicationMode::EventTriggered);
        assert_eq!(runtime.slot_holders(), &[Some(0)]);
        assert_eq!(runtime.phases()[0], AppPhase::UsingSlot);
    }

    #[test]
    fn slot_is_non_preemptive() {
        let mut runtime = two_apps_one_slot();
        // The low-priority application grabs the slot first.
        runtime.step(&[0.05, 0.5]).unwrap();
        assert_eq!(runtime.slot_holders(), &[Some(1)]);
        // Now the high-priority application also becomes transient: it must
        // wait (no preemption).
        let modes = runtime.step(&[0.5, 0.5]).unwrap();
        assert_eq!(runtime.slot_holders(), &[Some(1)]);
        assert_eq!(modes[0], CommunicationMode::EventTriggered);
        assert_eq!(runtime.phases()[0], AppPhase::Waiting);
        // Once the holder settles, the slot passes to the waiting application.
        let modes = runtime.step(&[0.5, 0.05]).unwrap();
        assert_eq!(runtime.slot_holders(), &[Some(0)]);
        assert_eq!(modes[0], CommunicationMode::TimeTriggered);
        assert_eq!(modes[1], CommunicationMode::EventTriggered);
    }

    #[test]
    fn priority_decides_between_simultaneous_requests() {
        let mut runtime = two_apps_one_slot();
        let modes = runtime.step(&[0.5, 0.5]).unwrap();
        assert_eq!(modes[0], CommunicationMode::TimeTriggered);
        assert_eq!(modes[1], CommunicationMode::EventTriggered);
    }

    #[test]
    fn waiting_application_can_settle_on_et_alone() {
        let mut runtime = two_apps_one_slot();
        runtime.step(&[0.05, 0.5]).unwrap(); // low holds the slot
        runtime.step(&[0.5, 0.5]).unwrap(); // high waits
        // The high-priority application settles while still waiting.
        runtime.step(&[0.05, 0.5]).unwrap();
        assert_eq!(runtime.phases()[0], AppPhase::Steady);
        assert_eq!(runtime.slot_holders(), &[Some(1)]);
    }

    #[test]
    fn application_without_slot_stays_on_et() {
        let mut runtime = AllocationRuntime::new(
            vec![RuntimeApp { name: "noslot".into(), threshold: 0.1, slot: None, priority: 1.0 }],
            0,
        )
        .unwrap();
        let modes = runtime.step(&[5.0]).unwrap();
        assert_eq!(modes[0], CommunicationMode::EventTriggered);
        assert_eq!(runtime.phases()[0], AppPhase::Steady);
    }

    #[test]
    fn reset_frees_slots_and_steadies_phases() {
        let mut runtime = two_apps_one_slot();
        runtime.step(&[0.5, 0.5]).unwrap();
        assert_eq!(runtime.slot_holders(), &[Some(0)]);
        runtime.reset();
        assert_eq!(runtime.slot_holders(), &[None]);
        assert!(runtime.phases().iter().all(|p| *p == AppPhase::Steady));
        assert_eq!(runtime.app_count(), 2);
        // The rerun reproduces the original grant.
        let modes = runtime.step(&[0.5, 0.5]).unwrap();
        assert_eq!(modes[0], CommunicationMode::TimeTriggered);
    }

    #[test]
    fn step_into_reuses_the_buffer() {
        let mut runtime = two_apps_one_slot();
        let mut modes = Vec::new();
        runtime.step_into(&[0.5, 0.05], &mut modes).unwrap();
        assert_eq!(modes, vec![CommunicationMode::TimeTriggered, CommunicationMode::EventTriggered]);
        runtime.step_into(&[0.01, 0.05], &mut modes).unwrap();
        assert_eq!(modes.len(), 2);
        assert!(runtime.step_into(&[0.1], &mut modes).is_err());
    }

    #[test]
    fn threshold_override() {
        let mut runtime = two_apps_one_slot();
        runtime.set_threshold(0, 1.0).unwrap();
        // Norm 0.5 is now below app 0's threshold: no slot request.
        let modes = runtime.step(&[0.5, 0.05]).unwrap();
        assert_eq!(modes[0], CommunicationMode::EventTriggered);
        assert!(runtime.set_threshold(5, 1.0).is_err());
        assert!(runtime.set_threshold(0, 0.0).is_err());
    }

    #[test]
    fn every_tt_grant_holds_a_slot() {
        // Three apps share slot 0, two share slot 1 and one has no slot;
        // norms drawn around the thresholds drive every phase transition.
        let apps = [Some(0), Some(1), Some(0), Some(1), Some(0), None]
            .into_iter()
            .enumerate()
            .map(|(index, slot)| RuntimeApp {
                name: format!("app{index}"),
                threshold: 0.1,
                slot,
                priority: (index % 4) as f64,
            })
            .collect();
        let mut runtime = AllocationRuntime::new(apps, 2).unwrap();
        let mut rng = cps_flexray::SimRng::seeded(7);
        let mut norms = vec![0.0; 6];
        let mut modes = Vec::new();
        let mut grants = 0;
        for _ in 0..2000 {
            for norm in &mut norms {
                *norm = 0.2 * rng.next_unit();
            }
            runtime.step_into(&norms, &mut modes).unwrap();
            for (index, mode) in modes.iter().enumerate() {
                if *mode == CommunicationMode::TimeTriggered {
                    grants += 1;
                    assert!(
                        runtime.slot_holders().contains(&Some(index)),
                        "app {index} runs TT without holding a slot: {:?}",
                        runtime.slot_holders()
                    );
                }
            }
        }
        assert!(grants > 1000, "only {grants} TT grants: the sequence barely exercises the slots");
    }

    #[test]
    fn validation() {
        assert!(AllocationRuntime::new(
            vec![RuntimeApp { name: "x".into(), threshold: 0.1, slot: Some(3), priority: 1.0 }],
            1,
        )
        .is_err());
        assert!(AllocationRuntime::new(
            vec![RuntimeApp { name: "x".into(), threshold: 0.0, slot: None, priority: 1.0 }],
            0,
        )
        .is_err());
        let mut runtime = two_apps_one_slot();
        assert!(runtime.step(&[0.1]).is_err());
    }
}
