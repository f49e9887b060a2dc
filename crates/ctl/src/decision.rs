//! Control decisions and the governed run's report.
//!
//! Every epoch in which the governor evaluated a re-plan produces one
//! [`Decision`] — adopted or not — and the whole sequence folds into the
//! run's replay digest. That makes the closed loop auditable the same
//! way the simulation is: two governed runs from the same seed must
//! produce bit-identical decision sequences, and a governed run that
//! never decided anything must digest exactly like an ungoverned one.

use dsa_core::digest::{Digestible, Fnv1a};
use dsa_sim::time::SimTime;
use dsa_svc::service::ServiceReport;

/// One re-plan evaluation: the incumbent, the best-scoring candidate,
/// both twin scores, and whether the candidate cleared the hysteresis
/// margin and was applied.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// 1-based epoch index on the governed service's timeline.
    pub epoch: u32,
    /// Service time when the evaluation ran.
    pub at: SimTime,
    /// Incumbent plan label.
    pub from: String,
    /// Best candidate's plan label.
    pub to: String,
    /// The incumbent's digital-twin score (lower is better).
    pub incumbent_score: f64,
    /// The best candidate's digital-twin score.
    pub score: f64,
    /// True when the candidate was applied via
    /// [`DsaService::transition`](dsa_svc::service::DsaService::transition).
    pub adopted: bool,
    /// Tenants re-wired onto a different WQ (0 unless adopted).
    pub moved: u64,
    /// When the service resumed after the transition stall (`at` unless
    /// adopted).
    pub ready: SimTime,
}

impl Digestible for Decision {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(u64::from(self.epoch));
        h.write_u64(self.at.as_ps());
        h.write_u64(self.from.len() as u64);
        h.write(self.from.as_bytes());
        h.write_u64(self.to.len() as u64);
        h.write(self.to.as_bytes());
        // Scores are compared with total_cmp and digested by bit pattern;
        // no float→int rounding anywhere near the digest.
        h.write_u64(self.incumbent_score.to_bits());
        h.write_u64(self.score.to_bits());
        h.write_u64(u64::from(self.adopted));
        h.write_u64(self.moved);
        h.write_u64(self.ready.as_ps());
    }
}

/// The outcome of a governed run: the service's final report plus the
/// decision sequence that produced it.
#[derive(Clone, Debug)]
pub struct ControlReport {
    /// The governed service's end-of-run report.
    pub report: ServiceReport,
    /// Every re-plan evaluation, in epoch order.
    pub decisions: Vec<Decision>,
    /// Epochs the governor stepped through.
    pub epochs: u32,
    /// Jobs offered by every digital twin the governor ran, incumbents
    /// included: the work its searches did. Not in the digest.
    pub twin_jobs: u64,
    /// Challenger twins dropped by the search before they drained, once
    /// their score bound passed the best finished score. Not in the
    /// digest.
    pub twins_pruned: u64,
}

impl ControlReport {
    /// Plan transitions actually applied.
    pub fn transitions(&self) -> u64 {
        self.decisions.iter().filter(|d| d.adopted).count() as u64
    }

    /// The governed run's replay digest: the service digest with the
    /// decision sequence folded in. A run with no decisions digests
    /// exactly as the ungoverned service would — the governor observed
    /// but never perturbed, and the digest says so.
    pub fn digest(&self) -> u64 {
        if self.decisions.is_empty() {
            return self.report.digest();
        }
        let mut h = Fnv1a::new();
        h.write_u64(self.report.digest());
        for d in &self.decisions {
            d.fold(&mut h);
        }
        h.finish()
    }
}

impl Digestible for ControlReport {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.digest());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_sim::time::SimDuration;

    fn decision(adopted: bool) -> Decision {
        Decision {
            epoch: 3,
            at: SimTime::ZERO + SimDuration::from_us(60),
            from: "shared".into(),
            to: "by-class".into(),
            incumbent_score: 12.5,
            score: 4.25,
            adopted,
            moved: 7,
            ready: SimTime::ZERO + SimDuration::from_us(65),
        }
    }

    #[test]
    fn digest_is_sensitive_to_each_decision_field() {
        let a = decision(true);
        let mut b = decision(true);
        b.score = 4.26;
        assert_ne!(a.digest64(), b.digest64());
        let c = decision(false);
        assert_ne!(a.digest64(), c.digest64());
    }
}
