//! The fault-detector supervisor — the paper's Section 3 mechanism wired
//! to the simulator.
//!
//! One periodic detector per task: period `T_i`, first release
//! `O_i + threshold_i` (threshold = WCRT, or the inflated WCRT for the
//! equitable treatment), quantized by the platform timer model exactly as
//! jRate quantized the authors' `PeriodicTimer`s. The `k`-th firing
//! inspects job `k`: if that job has not finished, a cost overrun has
//! necessarily occurred — a temporal fault — and the configured treatment
//! reacts (log, stop now, or grant allowance and arm a stop point).

use crate::manager::AllowanceManager;
use crate::treatment::Treatment;
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_sim::engine::{SimState, Simulator};
use rtft_sim::process::JobOutcome;
use rtft_sim::stop::StopMode;
use rtft_sim::supervisor::{Command, Occurrence, Supervisor};
use rtft_trace::EventKind;
use std::collections::BTreeMap;

/// Encode a `(rank, job)` pair into a one-shot tag.
fn stop_tag(rank: usize, job: u64) -> u64 {
    ((rank as u64) << 40) | (job & 0xff_ffff_ffff)
}

/// Decode a one-shot tag back into `(rank, job)`.
fn untag(tag: u64) -> (usize, u64) {
    ((tag >> 40) as usize, tag & 0xff_ffff_ffff)
}

/// An armed allowance grant, waiting for either job completion or the
/// stop point.
#[derive(Clone, Copy, Debug)]
struct Grant {
    /// Extra time granted past the WCRT.
    amount: Duration,
}

/// The supervisor implementing detection + treatment.
pub struct FtSupervisor {
    treatment: Treatment,
    /// Per-rank detection thresholds (relative to each release).
    thresholds: Vec<Duration>,
    /// Per-rank analytic WCRTs (stop-point arithmetic).
    wcrt: Vec<Duration>,
    /// System-allowance ledger (only for that treatment).
    manager: Option<AllowanceManager>,
    /// Outstanding grants by `(rank, job)`.
    grants: BTreeMap<(usize, u64), Grant>,
    /// Faults detected, in order (rank, job, when).
    detected: Vec<(usize, u64, Instant)>,
}

impl FtSupervisor {
    /// Build the supervisor.
    ///
    /// * `thresholds[i]` — detector offset after each release of rank `i`;
    /// * `wcrt[i]` — analytic WCRT (equals `thresholds[i]` except for the
    ///   equitable treatment, whose thresholds are inflated);
    /// * `manager` — required iff `treatment` is
    ///   [`Treatment::SystemAllowance`].
    pub fn new(
        treatment: Treatment,
        thresholds: Vec<Duration>,
        wcrt: Vec<Duration>,
        manager: Option<AllowanceManager>,
    ) -> Self {
        assert_eq!(thresholds.len(), wcrt.len());
        if matches!(treatment, Treatment::SystemAllowance { .. }) {
            assert!(manager.is_some(), "system allowance needs a manager");
        }
        FtSupervisor {
            treatment,
            thresholds,
            wcrt,
            manager,
            grants: BTreeMap::new(),
            detected: Vec::new(),
        }
    }

    /// Install one periodic detector per task on `sim` (no-op for
    /// [`Treatment::NoDetection`]): period `T_i`, first release
    /// `O_i + threshold_i`, tagged with the rank. Must be called before
    /// `run`.
    pub fn install_detectors(&self, sim: &mut Simulator, set: &TaskSet) {
        if !self.treatment.has_detection() {
            return;
        }
        for rank in 0..set.len() {
            let spec = set.by_rank(rank);
            sim.add_periodic_timer(
                spec.offset + self.thresholds[rank],
                spec.period,
                rank as u64,
            );
        }
    }

    /// Faults detected so far, as `(rank, job, when)`.
    pub fn detected(&self) -> &[(usize, u64, Instant)] {
        &self.detected
    }

    /// The allowance ledger, when present.
    pub fn manager(&self) -> Option<&AllowanceManager> {
        self.manager.as_ref()
    }

    /// Nominal release instant of a job (releases are strictly periodic).
    fn release_of(set: &TaskSet, rank: usize, job: u64) -> Instant {
        let spec = set.by_rank(rank);
        Instant::EPOCH + spec.offset + spec.period * job as i64
    }

    fn on_detector_fire(
        &mut self,
        state: &SimState,
        rank: usize,
        job: u64,
        out: &mut Vec<Command>,
    ) {
        let set = state.task_set();
        let task = set.by_rank(rank).id;
        out.push(Command::Trace(EventKind::DetectorRelease { task, job }));
        if state.is_dead(rank) {
            return;
        }
        match state.outcome(rank, job) {
            JobOutcome::Finished | JobOutcome::Abandoned => return,
            JobOutcome::Pending => {}
        }
        // The inspected job is past its (possibly inflated) WCRT and
        // unfinished: temporal fault.
        self.detected.push((rank, job, state.now()));
        out.push(Command::Trace(EventKind::FaultDetected { task, job }));
        match self.treatment {
            Treatment::NoDetection | Treatment::DetectOnly => {}
            Treatment::ImmediateStop { mode } | Treatment::EquitableAllowance { mode } => {
                // For the equitable treatment the threshold already
                // includes the allowance: stopping now is the §4.2 rule.
                out.push(Command::Stop { rank, mode });
            }
            Treatment::SystemAllowance { mode, .. } => {
                // §4.3: the stop point is the *static* `WCRT_i + M_i`.
                // The paper's "subtracting the more priority tasks
                // overrun" happens automatically in the schedule: if a
                // higher task consumed δ of the slack, this task's
                // completion is pushed back by δ, so the fixed stop point
                // leaves it exactly `M_i − δ` of its own overrun — the
                // remainder-redistribution rule. (A ledger-based deduction
                // would wrongly stop *victim* tasks that merely inherited
                // the delay: in Figure 7, τ2 and τ3 overrun their WCRTs
                // only because τ1 was granted the slack, and both finish
                // exactly at `WCRT + 33`.)
                let grant = self
                    .manager
                    .as_ref()
                    .expect("manager checked at construction")
                    .max_overrun(rank);
                if grant.is_zero() {
                    out.push(Command::Stop { rank, mode });
                } else {
                    let stop_at = Self::release_of(set, rank, job) + self.wcrt[rank] + grant;
                    self.grants.insert((rank, job), Grant { amount: grant });
                    out.push(Command::Trace(EventKind::AllowanceGranted {
                        task,
                        job,
                        amount: grant,
                    }));
                    out.push(Command::ScheduleOneShot {
                        at: stop_at,
                        tag: stop_tag(rank, job),
                    });
                }
            }
        }
    }

    fn on_stop_point(&mut self, state: &SimState, rank: usize, job: u64, out: &mut Vec<Command>) {
        let Some(grant) = self.grants.remove(&(rank, job)) else {
            return;
        };
        // Finished or already abandoned between detection and the stop
        // point: consumption was recorded by `on_job_finished`.
        if state.outcome(rank, job) == JobOutcome::Pending {
            // Still running at the stop point: the whole grant is gone.
            if let Some(m) = self.manager.as_mut() {
                m.record(rank, grant.amount);
            }
            let mode = self.treatment.stop_mode().unwrap_or(StopMode::Permanent);
            out.push(Command::Stop { rank, mode });
        }
    }

    fn on_job_finished(&mut self, state: &SimState, rank: usize, job: u64) {
        if let Some(grant) = self.grants.remove(&(rank, job)) {
            // A granted job finished early: record only what it actually
            // used past the WCRT; the remainder stays available — the
            // paper's remainder-redistribution rule.
            let release = Self::release_of(state.task_set(), rank, job);
            let used = (state.now() - release - self.wcrt[rank])
                .max(Duration::ZERO)
                .min(grant.amount);
            if let Some(m) = self.manager.as_mut() {
                m.record(rank, used);
            }
        }
    }
}

impl Supervisor for FtSupervisor {
    fn on_occurrence(&mut self, state: &SimState, occ: Occurrence, out: &mut Vec<Command>) {
        match occ {
            Occurrence::TimerFired { tag, count, .. } => {
                self.on_detector_fire(state, tag as usize, count, out)
            }
            Occurrence::OneShotFired { tag } => {
                let (rank, job) = untag(tag);
                self.on_stop_point(state, rank, job, out)
            }
            Occurrence::JobFinished { rank, job } => self.on_job_finished(state, rank, job),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::{TaskBuilder, TaskId};
    use rtft_sim::engine::SimConfig;
    use rtft_sim::fault::FaultPlan;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn t(v: i64) -> Instant {
        Instant::from_millis(v)
    }

    fn one_task() -> TaskSet {
        TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()])
    }

    #[test]
    fn tag_roundtrip() {
        let tag = stop_tag(3, 12345);
        assert_eq!(untag(tag), (3, 12345));
        let tag = stop_tag(0, 0);
        assert_eq!(untag(tag), (0, 0));
    }

    #[test]
    fn detector_fires_without_fault_on_healthy_job() {
        let set = one_task();
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(250)));
        let mut sup = FtSupervisor::new(Treatment::DetectOnly, vec![ms(29)], vec![ms(29)], None);
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        let log = sim.trace();
        // Detector released at 29 (exact timers) and 229; no fault.
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::DetectorRelease { .. })),
            2
        );
        assert!(log.faults().is_empty());
        assert!(sup.detected().is_empty());
    }

    #[test]
    fn overrun_is_detected_and_logged() {
        let set = one_task();
        let plan = FaultPlan::none().overrun(TaskId(1), 0, ms(20));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(150))).with_faults(plan);
        let mut sup = FtSupervisor::new(Treatment::DetectOnly, vec![ms(29)], vec![ms(29)], None);
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.faults(), vec![(TaskId(1), 0, t(29))]);
        // Job still ran to completion (no treatment).
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(49)));
        assert_eq!(sup.detected(), &[(0, 0, t(29))]);
    }

    #[test]
    fn immediate_stop_kills_at_detection() {
        let set = one_task();
        let plan = FaultPlan::none().overrun(TaskId(1), 0, ms(20));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(400))).with_faults(plan);
        let mut sup = FtSupervisor::new(
            Treatment::ImmediateStop {
                mode: StopMode::Permanent,
            },
            vec![ms(29)],
            vec![ms(29)],
            None,
        );
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.stops(), vec![(TaskId(1), 0, t(29))]);
        assert!(log.job_release(TaskId(1), 1).is_none(), "permanent stop");
    }

    #[test]
    fn system_allowance_grants_then_stops() {
        let set = one_task();
        // Overrun far beyond any grant.
        let plan = FaultPlan::none().overrun(TaskId(1), 0, ms(100));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(400))).with_faults(plan);
        let manager = AllowanceManager::new(vec![ms(33)]);
        let mut sup = FtSupervisor::new(
            Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: rtft_core::allowance::SlackPolicy::ProtectAll,
            },
            vec![ms(29)],
            vec![ms(29)],
            Some(manager),
        );
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        let log = sim.trace();
        // Grant of 33 ms at detection (t=29), stop at 29 + 33 = 62.
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::AllowanceGranted { .. })),
            1
        );
        assert_eq!(log.stops(), vec![(TaskId(1), 0, t(62))]);
        assert_eq!(sup.manager().unwrap().consumed(0), ms(33));
    }

    #[test]
    fn granted_job_finishing_early_returns_remainder() {
        let set = one_task();
        // Overrun of 10 ms: job ends at 39, well before the 62 ms stop.
        let plan = FaultPlan::none().overrun(TaskId(1), 0, ms(10));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(400))).with_faults(plan);
        let manager = AllowanceManager::new(vec![ms(33)]);
        let mut sup = FtSupervisor::new(
            Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: rtft_core::allowance::SlackPolicy::ProtectAll,
            },
            vec![ms(29)],
            vec![ms(29)],
            Some(manager),
        );
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        let log = sim.trace();
        assert!(log.stops().is_empty(), "job finished before the stop point");
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(39)));
        // Only the 10 ms actually used are charged; 23 ms remain.
        assert_eq!(sup.manager().unwrap().consumed(0), ms(10));
        assert_eq!(sup.manager().unwrap().grant(0), ms(23));
    }

    #[test]
    fn quantized_detectors_shift_detection() {
        let set = one_task();
        let plan = FaultPlan::none().overrun(TaskId(1), 0, ms(20));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(150)).with_jrate_timers())
            .with_faults(plan);
        let mut sup = FtSupervisor::new(Treatment::DetectOnly, vec![ms(29)], vec![ms(29)], None);
        sup.install_detectors(&mut sim, &set);
        sim.run(&mut sup);
        // jRate grid: detector at 30 instead of 29.
        assert_eq!(sim.trace().faults(), vec![(TaskId(1), 0, t(30))]);
    }
}
