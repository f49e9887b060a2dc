//! The governor: a deterministic SLO control loop over one
//! [`DsaService`].
//!
//! [`Governor::govern`] drives the service in fixed epochs with
//! [`DsaService::run_until`], reads the epoch just finished as the change
//! in each tenant's [`TenantStats`] since the previous epoch boundary
//! (deltas, not cumulative totals), and checks that window against the
//! service's typed [`SloTarget`]. Under pressure it generates candidate
//! reconfigurations ([`crate::candidates`]), scores each — incumbent
//! included — by forking a cheap **digital twin**: a fresh, timing-only
//! `DsaService` seeded deterministically from the live one, carrying the
//! remaining (truncated) per-tenant workloads under the candidate plan.
//! The best candidate is adopted through [`DsaService::transition`] only
//! when it clears a hysteresis margin over the incumbent's own twin
//! score, which damps plan thrash.
//!
//! Everything the loop reads and writes is deterministic simulation
//! state: same seed ⇒ bit-identical epoch boundaries, observations, twin
//! scores, decision sequence, and digest — across thread counts when run
//! under the fleet (each shard's governor is private to it).

use crate::candidates::candidates;
use crate::decision::{ControlReport, Decision};
use dsa_core::digest::Fnv1a;
use dsa_sim::stats::jain_fairness;
use dsa_sim::time::{SimDuration, SimTime};
use dsa_svc::plan::{Plan, TransitionCosts};
use dsa_svc::service::DsaService;
use dsa_svc::slo::SloTarget;
use dsa_svc::tenant::{QosClass, TenantStats};

/// Tuning for a [`Governor`]. All defaults are deliberately conservative:
/// the loop observes every 20 µs, ignores windows too thin to judge, and
/// demands a 10% twin-score improvement before touching the device.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Control epoch length on the simulated timeline.
    pub epoch: SimDuration,
    /// Minimum jobs offered inside a window before the governor will act
    /// on it (thin windows are noise, especially at the run's tail).
    pub min_window_offered: u64,
    /// Relative twin-score margin a candidate must clear over the
    /// incumbent before adoption (0.1 = 10% better).
    pub hysteresis: f64,
    /// Per-tenant job cap in the digital twin's truncated roster — the
    /// knob trading twin fidelity for control-loop cost.
    pub twin_jobs: u64,
    /// Hard cap on transitions per governed run (a stuck oscillator
    /// stops re-carving; the hysteresis margin should make this moot).
    pub max_transitions: u32,
    /// Prices charged by [`DsaService::transition`] and folded into
    /// candidate scores.
    pub costs: TransitionCosts,
    /// Governor salt folded into every twin seed, so governed runs under
    /// different controller identities explore independent twin streams.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            epoch: SimDuration::from_us(20),
            min_window_offered: 16,
            hysteresis: 0.1,
            twin_jobs: 48,
            max_transitions: 8,
            costs: TransitionCosts::default(),
            seed: 0xC7_1900D,
        }
    }
}

/// What one closed window showed: job counts, the worst per-tenant tail,
/// and windowed fairness. Pure data derived from the service's own
/// per-tenant accounting.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Jobs generated in the window.
    pub offered: u64,
    /// Jobs completed (accelerator + CPU fallback) in the window.
    pub completed: u64,
    /// Jobs shed at admission in the window.
    pub shed: u64,
    /// Completed jobs that finished past their deadline in the window.
    pub misses: u64,
    /// The worst per-tenant windowed p99 latency, when any job completed.
    pub p99: Option<SimDuration>,
    /// Jain fairness over per-tenant windowed completions.
    pub fairness: f64,
    /// Tenant with the worst windowed p99.
    pub worst_tenant: Option<usize>,
    /// Worst-p99 tenant restricted to [`QosClass::Throughput`] — the
    /// promotion candidate.
    pub worst_throughput_tenant: Option<usize>,
}

impl Observation {
    /// The window since `was`, a snapshot of every tenant's
    /// [`DsaService::stats`]: each field is the change in the matching
    /// stats field. A tenant's window p99 comes from the buckets its
    /// latency histogram gained, clamped to the tenant's all-time min/max
    /// — the same histogram
    /// [`ServiceReport::slo_violations`](dsa_svc::service::ServiceReport::slo_violations)
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `was` holds more entries than `svc` has tenants.
    pub fn since(was: &[TenantStats], svc: &DsaService) -> Observation {
        let mut obs = Observation {
            offered: 0,
            completed: 0,
            shed: 0,
            misses: 0,
            p99: None,
            fairness: 1.0,
            worst_tenant: None,
            worst_throughput_tenant: None,
        };
        let mut worst_throughput_p99 = None;
        let mut shares = Vec::with_capacity(svc.tenant_count());
        for (i, was) in was.iter().enumerate() {
            let now = svc.stats(i);
            obs.offered += now.offered - was.offered;
            let done = now.completed() - was.completed();
            obs.completed += done;
            shares.push(done as f64);
            obs.shed += now.shed - was.shed;
            obs.misses += now.deadline_misses - was.deadline_misses;
            if let Some(p99) = now.latency.delta_since(&was.latency).percentile(99.0) {
                if obs.p99.is_none_or(|worst| p99 > worst) {
                    obs.p99 = Some(p99);
                    obs.worst_tenant = Some(i);
                }
                if svc.tenant_spec(i).class == QosClass::Throughput
                    && worst_throughput_p99.is_none_or(|worst| p99 > worst)
                {
                    worst_throughput_p99 = Some(p99);
                    obs.worst_throughput_tenant = Some(i);
                }
            }
        }
        obs.fairness = jain_fairness(&shares);
        obs
    }

    /// Deadline failures (misses + sheds) over offered jobs in the window.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.misses + self.shed) as f64 / self.offered as f64
        }
    }

    /// True when the window violates any objective in `slo`.
    pub fn pressure(&self, slo: &SloTarget) -> bool {
        if let (Some(target), Some(p99)) = (slo.p99, self.p99) {
            if p99 > target {
                return true;
            }
        }
        if let Some(frac) = slo.deadline_miss_frac {
            if self.miss_rate() > frac {
                return true;
            }
        }
        if let Some(min) = slo.min_jain {
            if self.completed > 0 && self.fairness < min {
                return true;
            }
        }
        false
    }
}

/// Every tenant's stats as of now: the anchor of the next window.
fn snapshot(svc: &DsaService) -> Vec<TenantStats> {
    (0..svc.tenant_count()).map(|i| svc.stats(i).clone()).collect()
}

/// The deterministic control loop. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Governor {
    cfg: ControllerConfig,
}

impl Governor {
    /// A governor with the given tuning.
    pub fn new(cfg: ControllerConfig) -> Governor {
        Governor { cfg }
    }

    /// The tuning in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Drives `svc` to completion in epochs, re-planning under SLO
    /// pressure, and returns the final report plus the decision sequence.
    ///
    /// A service with no [`SloTarget`] is driven identically but never
    /// re-planned: the step sequence — and therefore the digest — matches
    /// an ungoverned [`DsaService::run`] bit for bit.
    ///
    /// The governed run is traced ([`DsaService::trace`]) so its job
    /// critical paths can be read from the runtime's hub afterwards; the
    /// loop itself reads nothing from the hub, only [`DsaService::stats`].
    pub fn govern(&self, svc: &mut DsaService) -> ControlReport {
        svc.trace();
        let mut was = snapshot(svc);
        let slo = svc.slo().copied();
        let mut decisions = Vec::new();
        let mut epochs = 0u32;
        let mut until = match svc.next_ready() {
            Some(t) => t + self.cfg.epoch,
            None => return ControlReport { report: svc.report(), decisions, epochs },
        };
        loop {
            svc.run_until(until);
            epochs += 1;
            if let Some(slo) = &slo {
                let obs = Observation::since(&was, svc);
                if obs.offered >= self.cfg.min_window_offered
                    && svc.transitions() < self.cfg.max_transitions
                    && obs.pressure(slo)
                {
                    if let Some(d) = self.replan(svc, &obs, epochs) {
                        decisions.push(d);
                    }
                }
            }
            was = snapshot(svc);
            match svc.next_ready() {
                Some(t) => until = t.max(until) + self.cfg.epoch,
                None => break,
            }
        }
        ControlReport { report: svc.report(), decisions, epochs }
    }

    /// One re-plan evaluation: candidates → twin scores → hysteresis →
    /// (maybe) transition. Returns `None` when there was nothing to score.
    fn replan(&self, svc: &mut DsaService, obs: &Observation, epoch: u32) -> Option<Decision> {
        let cands = candidates(svc, obs);
        if cands.is_empty() {
            return None;
        }
        let incumbent = svc.plan().clone();
        let incumbent_score = self.twin_score(svc, &incumbent, epoch, 0.0)?;
        let mut best: Option<(Plan, f64)> = None;
        for p in cands {
            // Candidates pay the transition stall the live service would;
            // the incumbent pays nothing. Moved-tenant count is unknown
            // before assignment, so price the worst case (every tenant).
            let delta = incumbent.diff(&p);
            let stall = delta.cost(&self.cfg.costs, svc.tenant_count() as u64).as_ns_f64() * 1e-9;
            let Some(score) = self.twin_score(svc, &p, epoch, stall) else { continue };
            if best.as_ref().is_none_or(|(_, b)| score.total_cmp(b).is_lt()) {
                best = Some((p, score));
            }
        }
        let (plan, score) = best?;
        let at = svc.runtime().now();
        let margin = self.cfg.hysteresis * incumbent_score.abs();
        let adopted = score + margin < incumbent_score;
        let (mut moved, mut ready) = (0, at);
        if adopted {
            // Candidates already passed device validation inside the twin,
            // so this cannot fail; recording a non-adopted decision keeps
            // the digest honest if it somehow does.
            match svc.transition(plan.clone(), &self.cfg.costs) {
                Ok(tr) => {
                    moved = tr.moved;
                    ready = tr.ready;
                }
                Err(_) => {
                    return Some(Decision {
                        epoch,
                        at,
                        from: incumbent.label().to_string(),
                        to: plan.label().to_string(),
                        incumbent_score,
                        score,
                        adopted: false,
                        moved: 0,
                        ready: at,
                    })
                }
            }
        }
        Some(Decision {
            epoch,
            at,
            from: incumbent.label().to_string(),
            to: plan.label().to_string(),
            incumbent_score,
            score,
            adopted,
            moved,
            ready,
        })
    }

    /// Scores `plan` by running a digital twin: a fresh service over the
    /// live tenants' *remaining* workloads (truncated to
    /// [`twin_jobs`](ControllerConfig::twin_jobs) each, starts zeroed),
    /// seeded deterministically from (controller salt, service seed,
    /// epoch, plan label). The twin comes from
    /// [`DsaService::fork_twin`], so it is timing-only: it schedules
    /// every job exactly as a backed service would but holds and copies
    /// no bytes, since nothing reads them. Lower is better: windowed
    /// deadline-failure rate dominates, then unfairness, then twin
    /// makespan plus the candidate's priced transition stall (`stall_s`,
    /// seconds).
    fn twin_score(&self, svc: &DsaService, plan: &Plan, epoch: u32, stall_s: f64) -> Option<f64> {
        let mut roster = Vec::new();
        for i in 0..svc.tenant_count() {
            let remaining = svc.remaining_jobs(i);
            if remaining == 0 {
                continue;
            }
            let mut spec = svc.tenant_spec(i).clone();
            spec.jobs = remaining.min(self.cfg.twin_jobs);
            spec.start = SimDuration::ZERO;
            roster.push(spec);
        }
        if roster.is_empty() {
            return None;
        }
        let mut h = Fnv1a::new();
        h.write_u64(self.cfg.seed);
        h.write_u64(svc.seed());
        h.write_u64(u64::from(epoch));
        h.write(plan.label().as_bytes());
        let rep = svc.fork_twin(plan, roster, h.finish()).ok()?.run();
        let makespan_s = (rep.makespan - SimTime::ZERO).as_ns_f64() * 1e-9;
        Some(rep.deadline_miss_rate() * 1000.0 + (1.0 - rep.fairness) * 10.0 + makespan_s + stall_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_svc::prelude::*;

    /// A latency tenant with a tight deadline sharing one WQ with a bulk
    /// tenant, so windows see misses as well as completions.
    fn shared_pair() -> DsaService {
        let cfg = ServiceConfig::builder()
            .plan(PlanSpec::Shared)
            .tenant(
                TenantSpec::new("lat", 4 << 10, 40)
                    .with_class(QosClass::Latency)
                    .with_deadline(SimDuration::from_us(3))
                    .with_arrival(Arrival::open(SimDuration::from_us(1))),
            )
            .tenant(
                TenantSpec::new("bulk", 64 << 10, 40)
                    .with_arrival(Arrival::open(SimDuration::from_us(1))),
            )
            .build()
            .unwrap();
        DsaService::from_config(cfg).unwrap()
    }

    /// Checks every field of `obs` against the change from `was` to
    /// `now`, recomputed tenant by tenant.
    fn assert_window(obs: &Observation, was: &[TenantStats], now: &[TenantStats]) {
        let delta = |f: fn(&TenantStats) -> u64| -> Vec<u64> {
            was.iter().zip(now).map(|(w, n)| f(n) - f(w)).collect()
        };
        let done = delta(|s| s.dsa_completed + s.cpu_completed);
        assert_eq!(obs.offered, delta(|s| s.offered).iter().sum::<u64>());
        assert_eq!(obs.completed, done.iter().sum::<u64>());
        assert_eq!(obs.shed, delta(|s| s.shed).iter().sum::<u64>());
        assert_eq!(obs.misses, delta(|s| s.deadline_misses).iter().sum::<u64>());
        let p99 = was
            .iter()
            .zip(now)
            .filter_map(|(w, n)| n.latency.delta_since(&w.latency).percentile(99.0))
            .max();
        assert_eq!(obs.p99, p99);
        let shares: Vec<f64> = done.iter().map(|&d| d as f64).collect();
        assert_eq!(obs.fairness, jain_fairness(&shares));
    }

    #[test]
    fn since_is_the_change_in_each_tenants_stats() {
        let mut svc = shared_pair();
        let start = snapshot(&svc);
        let empty = Observation::since(&start, &svc);
        assert_eq!((empty.offered, empty.p99, empty.fairness), (0, None, 1.0));

        let mut was = start;
        let mut until = SimTime::ZERO;
        let mut misses = 0;
        for _ in 0..2 {
            until += SimDuration::from_us(15);
            svc.run_until(until);
            let obs = Observation::since(&was, &svc);
            let now = snapshot(&svc);
            assert!(obs.offered > 0 && obs.completed > 0, "window saw no work: {obs:?}");
            assert_window(&obs, &was, &now);
            misses += obs.misses + obs.shed;
            was = now;
        }
        assert!(misses > 0, "the deadline never bit, so misses went unchecked");

        svc.run();
        let drained = snapshot(&svc);
        let after = Observation::since(&drained, &svc);
        assert_eq!((after.offered, after.p99, after.fairness), (0, None, 1.0));
    }

    #[test]
    fn a_moved_tenant_keeps_counting_after_a_transition() {
        let mut svc = shared_pair();
        svc.run_until(SimTime::ZERO + SimDuration::from_us(15));
        let tr = svc.transition(Plan::dedicated(2).unwrap(), &TransitionCosts::default()).unwrap();
        assert!(tr.moved > 0, "the dedicated plan must move a tenant off the shared WQ");
        let was = snapshot(&svc);
        svc.run();
        let obs = Observation::since(&was, &svc);
        assert_window(&obs, &was, &snapshot(&svc));
        let moved = (0..2).find(|&i| svc.stats(i).migrations > 0).unwrap();
        assert!(svc.stats(moved).completed() > was[moved].completed());
        assert!(obs.p99.is_some());
    }
}
