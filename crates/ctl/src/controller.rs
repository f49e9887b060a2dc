//! The governor: a deterministic SLO control loop over one
//! [`DsaService`].
//!
//! [`Governor::govern`] drives the service in fixed epochs with
//! [`DsaService::run_until`], reads the epoch just finished as the change
//! in each tenant's [`TenantStats`] since the previous epoch boundary
//! (deltas, not cumulative totals), and checks that window against the
//! service's typed [`SloTarget`]. Under pressure it generates candidate
//! reconfigurations ([`crate::candidates`]) and forks a cheap **digital
//! twin** for each — incumbent included: a fresh, timing-only
//! `DsaService` seeded deterministically from the live one, carrying the
//! remaining (truncated) per-tenant workloads under the candidate plan.
//! The incumbent's twin always runs to the end, since its score is
//! recorded. The challengers' twins race in an exact best-first branch
//! and bound: each carries a lower bound on its final score that only
//! grows as it runs, the twin with the smallest bound advances one short
//! slice at a time, and a twin is dropped as soon as its bound passes
//! the best finished score. The winner and its score are exactly what
//! running every challenger to the end would give. The best candidate is
//! adopted through [`DsaService::transition`] only when it clears a
//! hysteresis margin over the incumbent's own twin score, which damps
//! plan thrash.
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
use dsa_svc::service::{DsaService, ServiceReport};
use dsa_svc::slo::SloTarget;
use dsa_svc::tenant::{QosClass, TenantSpec, TenantStats};

/// How far one branch-and-bound step advances a challenger's twin on its
/// own timeline. Short enough that a losing twin stops soon after its
/// bound passes the best score; the cost barely depends on it.
const SLICE: SimDuration = SimDuration::from_us(2);

/// Absolute slack on every prune. [`jain_fairness`] can round a few ulps
/// above 1.0, making the unfairness term a few ulps negative and a final
/// score that much below its bound. Scores stay near or under 1e3, where
/// an ulp is about 1e-13, so 1e-9 covers that rounding with room to
/// spare while costing the search nothing measurable.
const BOUND_SLACK: f64 = 1e-9;

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

/// Work the twin searches of one governed run did.
#[derive(Default)]
struct Work {
    /// Jobs offered by every twin, incumbents included.
    twin_jobs: u64,
    /// Challenger twins dropped before they drained.
    twins_pruned: u64,
}

/// One candidate plan's forked digital twin, advanced slice by slice.
struct Twin {
    svc: DsaService,
    /// Jobs in the twin's roster: at least what it will have offered once
    /// it drains.
    roster_jobs: u64,
    /// The candidate's priced transition stall, seconds.
    stall_s: f64,
    /// The end of the last slice run.
    until: SimTime,
    /// [`lower_bound`] as of `until`.
    bound: f64,
}

impl Twin {
    /// The bound on this twin's final [`score`] from what it has done so
    /// far.
    fn lower_bound(&self) -> f64 {
        lower_bound(self.svc.deadline_failures(), self.roster_jobs, self.stall_s)
    }

    /// Jobs the twin has offered so far.
    fn offered(&self) -> u64 {
        (0..self.svc.tenant_count()).map(|i| self.svc.stats(i).offered).sum()
    }

    /// Runs one [`SLICE`] past the next pending action and refreshes the
    /// bound. True once the twin has drained.
    fn advance(&mut self) -> bool {
        if let Some(next) = self.svc.next_ready() {
            self.until = next.max(self.until) + SLICE;
            self.svc.run_until(self.until);
            self.bound = self.lower_bound();
        }
        self.svc.next_ready().is_none()
    }

    /// The twin's exact score once drained; its offered jobs go to `work`.
    fn score(&self, work: &mut Work) -> f64 {
        work.twin_jobs += self.offered();
        score(&self.svc.report(), self.stall_s)
    }

    /// Runs the twin to the end and scores it.
    fn finish(mut self, work: &mut Work) -> f64 {
        self.svc.run();
        self.score(work)
    }
}

/// A twin's score from its drained report: deadline-failure rate
/// dominates, then unfairness, then twin makespan plus the candidate's
/// priced transition stall (`stall_s`, seconds). Lower is better.
fn score(rep: &ServiceReport, stall_s: f64) -> f64 {
    let makespan_s = (rep.makespan - SimTime::ZERO).as_ns_f64() * 1e-9;
    score_of(rep.deadline_miss_rate(), rep.fairness, makespan_s, stall_s)
}

/// The score expression itself, term by term, in evaluation order.
fn score_of(miss_rate: f64, fairness: f64, makespan_s: f64, stall_s: f64) -> f64 {
    miss_rate * 1000.0 + (1.0 - fairness) * 10.0 + makespan_s + stall_s
}

/// A lower bound on the final [`score`] of a twin that has failed
/// `failures` deadlines so far out of a `roster_jobs` roster. Failures
/// never decrease and the roster is at least the final offered count, so
/// the first term never exceeds the final miss-rate term; the
/// unfairness and makespan terms are ≥ 0 (up to [`BOUND_SLACK`]); the
/// stall is the same. Every operation is correctly rounded and so
/// monotone, which carries the real-number argument to `f64`.
fn lower_bound(failures: u64, roster_jobs: u64, stall_s: f64) -> f64 {
    failures as f64 / roster_jobs as f64 * 1000.0 + stall_s
}

/// A challenger search: takes each challenger's candidate index and fresh
/// twin, in candidate order, and returns the best candidate's index and
/// exact score — the minimum by score ([`f64::total_cmp`]), then index.
type Search = fn(Vec<(usize, Twin)>, &mut Work) -> Option<(usize, f64)>;

/// The exact best-first branch and bound. The live twin with the
/// smallest bound (the earliest candidate on ties) advances one slice; a
/// drained twin is scored exactly, and any twin whose bound exceeds the
/// best score by more than [`BOUND_SLACK`] is dropped, since its final
/// score can only be higher. Pruning only on strictly greater keeps a
/// twin that could tie the best, so an earlier candidate still wins a
/// tie. The search ends when no twin is left.
fn branch_and_bound(mut live: Vec<(usize, Twin)>, work: &mut Work) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    while let Some(at) =
        (0..live.len()).min_by(|&a, &b| live[a].1.bound.total_cmp(&live[b].1.bound))
    {
        if live[at].1.advance() {
            let (k, twin) = live.remove(at);
            let s = twin.score(work);
            if best.is_none_or(|(bk, b)| s.total_cmp(&b).then(k.cmp(&bk)).is_lt()) {
                best = Some((k, s));
            }
        }
        if let Some((_, b)) = best {
            live.retain(|(_, t)| {
                let keep = t.bound <= b + BOUND_SLACK;
                if !keep {
                    work.twin_jobs += t.offered();
                    work.twins_pruned += 1;
                }
                keep
            });
        }
    }
    best
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
        self.govern_with(svc, branch_and_bound)
    }

    /// [`govern`](Self::govern) with the challenger search `search`.
    fn govern_with(&self, svc: &mut DsaService, search: Search) -> ControlReport {
        svc.trace();
        let mut was = snapshot(svc);
        let slo = svc.slo().copied();
        let mut decisions = Vec::new();
        let mut work = Work::default();
        let mut epochs = 0u32;
        if let Some(t) = svc.next_ready() {
            let mut until = t + self.cfg.epoch;
            loop {
                svc.run_until(until);
                epochs += 1;
                if let Some(slo) = &slo {
                    let obs = Observation::since(&was, svc);
                    if obs.offered >= self.cfg.min_window_offered
                        && svc.transitions() < self.cfg.max_transitions
                        && obs.pressure(slo)
                    {
                        if let Some(d) = self.replan(svc, &obs, epochs, search, &mut work) {
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
        }
        ControlReport {
            report: svc.report(),
            decisions,
            epochs,
            twin_jobs: work.twin_jobs,
            twins_pruned: work.twins_pruned,
        }
    }

    /// One re-plan evaluation: candidates → twins → `search` over the
    /// challengers → hysteresis → (maybe) transition. Returns `None` when
    /// there was nothing to score. The incumbent's twin runs only once
    /// some challenger's twin exists.
    fn replan(
        &self,
        svc: &mut DsaService,
        obs: &Observation,
        epoch: u32,
        search: Search,
        work: &mut Work,
    ) -> Option<Decision> {
        let mut cands = candidates(svc, obs);
        let roster = self.roster(svc);
        if cands.is_empty() || roster.is_empty() {
            return None;
        }
        let incumbent = svc.plan().clone();
        let mut challengers = Vec::with_capacity(cands.len());
        for (k, p) in cands.iter().enumerate() {
            // Candidates pay the transition stall the live service would;
            // the incumbent pays nothing. Moved-tenant count is unknown
            // before assignment, so price the worst case (every tenant).
            let delta = incumbent.diff(p);
            let stall = delta.cost(&self.cfg.costs, svc.tenant_count() as u64).as_ns_f64() * 1e-9;
            if let Some(twin) = self.twin(svc, &roster, p, epoch, stall) {
                challengers.push((k, twin));
            }
        }
        if challengers.is_empty() {
            return None;
        }
        let incumbent_score = self.twin(svc, &roster, &incumbent, epoch, 0.0)?.finish(work);
        let (best, score) = search(challengers, work)?;
        let plan = cands.swap_remove(best);
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

    /// The twins' roster: the live tenants' *remaining* workloads,
    /// truncated to [`twin_jobs`](ControllerConfig::twin_jobs) each,
    /// starts zeroed. Tenants with nothing left drop out.
    fn roster(&self, svc: &DsaService) -> Vec<TenantSpec> {
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
        roster
    }

    /// Forks the digital twin that scores `plan`: a fresh service over
    /// `roster`, seeded deterministically from (controller salt, service
    /// seed, epoch, plan label). The twin comes from
    /// [`DsaService::fork_twin`], timing-only like every service. Its
    /// [`score`] is exact once it drains, whether it ran in one go or in
    /// slices; `stall_s` is the candidate's priced transition stall,
    /// seconds. `None` when the plan fails the twin's build validation.
    fn twin(
        &self,
        svc: &DsaService,
        roster: &[TenantSpec],
        plan: &Plan,
        epoch: u32,
        stall_s: f64,
    ) -> Option<Twin> {
        let mut h = Fnv1a::new();
        h.write_u64(self.cfg.seed);
        h.write_u64(svc.seed());
        h.write_u64(u64::from(epoch));
        h.write(plan.label().as_bytes());
        let svc = svc.fork_twin(plan, roster.to_vec(), h.finish()).ok()?;
        let roster_jobs = roster.iter().map(|s| s.jobs).sum();
        let bound = lower_bound(0, roster_jobs, stall_s);
        Some(Twin { svc, roster_jobs, stall_s, until: SimTime::ZERO, bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::rng::SplitMix64;
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

    /// The challenger search as it stood before the branch and bound:
    /// every challenger's twin runs to the end, in candidate order, and
    /// the first strictly lower score wins.
    fn exhaustive(challengers: Vec<(usize, Twin)>, work: &mut Work) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, twin) in challengers {
            let score = twin.finish(work);
            if best.is_none_or(|(_, b)| score.total_cmp(&b).is_lt()) {
                best = Some((k, score));
            }
        }
        best
    }

    /// The churn roster the governed benchmark lane runs, at a random
    /// scale and seed under a random SLO: latency tenants with a 60 µs
    /// deadline on open arrivals, bulk streams, and deep-queued
    /// aggressors that land part way in.
    fn random_churn(rng: &mut SplitMix64) -> DsaService {
        let scale = 1 + rng.next_below(3);
        let deadline = SimDuration::from_us(60);
        let mut specs = Vec::new();
        for i in 0..4 {
            specs.push(
                TenantSpec::new(&format!("lat{i}"), 4 << 10, 240 * scale)
                    .with_class(QosClass::Latency)
                    .with_deadline(deadline)
                    .with_arrival(Arrival::open(SimDuration::from_ns(3_500))),
            );
        }
        for i in 0..2 {
            specs.push(
                TenantSpec::new(&format!("bulk{i}"), 64 << 10, 120 * scale)
                    .with_arrival(Arrival::open(SimDuration::from_us(12))),
            );
        }
        for i in 0..2 {
            specs.push(
                TenantSpec::new(&format!("agg{i}"), 512 << 10, 3 * scale)
                    .with_start(SimDuration::from_us(225 * scale))
                    .with_outstanding(8)
                    .with_arrival(Arrival::closed(SimDuration::ZERO)),
            );
        }
        let miss_frac = [0.005, 0.01, 0.02, 0.05][rng.next_below(4) as usize];
        let p99 = SimDuration::from_us(30 + rng.next_below(60));
        let cfg = ServiceConfig::builder()
            .plan(PlanSpec::Shared)
            .seed(rng.next_u64())
            .tenants(specs)
            .slo(SloTarget::new().with_p99(p99).with_deadline_miss_frac(miss_frac))
            .build()
            .unwrap();
        DsaService::from_config(cfg).unwrap()
    }

    fn random_config(rng: &mut SplitMix64) -> ControllerConfig {
        ControllerConfig {
            epoch: SimDuration::from_us(10),
            twin_jobs: [8, 16, 32, 48, 96][rng.next_below(5) as usize],
            seed: rng.next_u64(),
            ..ControllerConfig::default()
        }
    }

    /// The branch and bound makes every decision the exhaustive search
    /// makes, field for field and score bit for bit, so the control
    /// digests match too; it only offers fewer twin jobs.
    #[test]
    fn branch_and_bound_decides_exactly_like_the_exhaustive_reference() {
        let mut rng = SplitMix64::new(0xB4B_0017);
        let (mut decisions, mut adopted, mut pruned, mut cheaper) = (0, 0, 0, 0);
        for run in 0..24 {
            let shape = rng.next_u64();
            let gov = Governor::new(random_config(&mut rng));
            let want = gov.govern_with(&mut random_churn(&mut SplitMix64::new(shape)), exhaustive);
            let got = gov.govern(&mut random_churn(&mut SplitMix64::new(shape)));
            assert_eq!(got.decisions.len(), want.decisions.len(), "run {run}: decision count");
            for (g, w) in got.decisions.iter().zip(&want.decisions) {
                assert_eq!(
                    (g.epoch, g.at, &g.from, &g.to, g.adopted, g.moved, g.ready),
                    (w.epoch, w.at, &w.from, &w.to, w.adopted, w.moved, w.ready),
                    "run {run}"
                );
                assert_eq!(g.incumbent_score.to_bits(), w.incumbent_score.to_bits(), "run {run}");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "run {run}: {} vs {}",
                    g.score,
                    w.score
                );
            }
            assert_eq!(got.digest(), want.digest(), "run {run}: control digest");
            assert_eq!(got.epochs, want.epochs, "run {run}");
            assert_eq!(want.twins_pruned, 0, "the reference runs every twin");
            assert!(got.twin_jobs <= want.twin_jobs, "run {run}: the search did extra work");
            decisions += want.decisions.len();
            adopted += want.transitions();
            pruned += got.twins_pruned;
            cheaper += u32::from(got.twin_jobs < want.twin_jobs);
        }
        assert!(decisions >= 100 && adopted > 0, "{decisions} decisions, {adopted} adopted");
        assert!(pruned > 0 && cheaper >= 12, "{pruned} twins pruned; {cheaper} runs cheaper");
    }

    /// A share vector whose Jain index rounds above 1.0, which makes the
    /// unfairness term negative.
    const ROUNDED_UP_SHARES: [f64; 8] = [0.03; 8];

    /// Every slice's bound stays at or under the twin's final score, up to
    /// the slack, and never falls. The slack is needed: a Jain index that
    /// rounds above 1.0 puts a final score below its bound.
    #[test]
    fn every_slice_bound_stays_under_the_final_score() {
        let jain = jain_fairness(&ROUNDED_UP_SHARES);
        assert!(jain > 1.0, "{jain}");
        for (failures, roster_jobs, stall_s) in [(0, 8, 0.0), (0, 8, 3e-6), (5, 40, 1e-6)] {
            let bound = lower_bound(failures, roster_jobs, stall_s);
            let miss_rate = failures as f64 / roster_jobs as f64;
            let score = score_of(miss_rate, jain, 0.0, stall_s);
            assert!(bound <= score + BOUND_SLACK, "{bound} vs {score}");
            if failures == 0 && stall_s == 0.0 {
                assert!(bound > score, "this share vector must need the slack");
            }
        }

        let mut rng = SplitMix64::new(0x50_0AD);
        let (mut slices, mut bitten) = (0u64, 0u64);
        for _ in 0..24 {
            let mut svc = random_churn(&mut rng);
            svc.run_until(SimTime::ZERO + SimDuration::from_us(rng.next_below(400)));
            let gov = Governor::new(random_config(&mut rng));
            let classes: Vec<QosClass> =
                (0..svc.tenant_count()).map(|i| svc.tenant_spec(i).class).collect();
            let by_class = Plan::by_class_of(&classes).unwrap();
            let rbuf = by_class.with_read_buffers(by_class.groups().len() - 1, 8).unwrap();
            let plans =
                [Plan::shared().unwrap(), Plan::dedicated(classes.len()).unwrap(), by_class, rbuf];
            let plan = &plans[rng.next_below(4) as usize];
            let stall_s = rng.next_below(5) as f64 * 1e-6;
            let roster = gov.roster(&svc);
            let mut twin = gov.twin(&svc, &roster, plan, 1, stall_s).unwrap();
            let mut bounds = vec![twin.bound];
            while !twin.advance() {
                bounds.push(twin.bound);
            }
            bounds.push(twin.bound);
            let score = twin.score(&mut Work::default());
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "a bound fell: {bounds:?}");
            for b in &bounds {
                assert!(*b <= score + BOUND_SLACK, "bound {b} over final score {score}");
            }
            slices += bounds.len() as u64;
            bitten += u64::from(bounds[bounds.len() - 1] > stall_s);
        }
        assert!(
            slices > 500 && bitten > 0,
            "{slices} slices, {bitten} twins ever failed a deadline"
        );
    }
}
