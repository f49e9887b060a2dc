//! First-class placement plans: validated, diffable, immutable WQ/group
//! layouts.
//!
//! A [`Plan`] is an explicit object: the group carve (engines and optional read-buffer allotment per group),
//! the WQ layout (size, mode, owning group per WQ), and the tenant
//! wiring (which WQ each tenant submits to). Plans are built through
//! [`Plan::builder`] (validated against the DSA 1.0 envelope at
//! `build()`, the same by-value idiom as
//! [`AccelConfig::builder`](dsa_core::config::AccelConfig::builder)) or
//! through the canonical recipes [`Plan::shared`], [`Plan::dedicated`],
//! and [`Plan::by_class_of`].
//!
//! Because a plan is now a value, transitions are too: [`Plan::diff`]
//! yields a [`PlanDelta`] whose [`cost`](PlanDelta::cost) prices the
//! reconfiguration stall a live service pays to adopt the new layout —
//! the quantity the control plane's digital twin weighs against the
//! projected SLO win.
//!
//! [`PlanSpec`] is the roster-polymorphic recipe a config takes:
//! `Dedicated`/`Shared`/`ByClass` materialize against the tenant roster
//! at build time, `Fixed(plan)` pins an explicit layout.

use crate::tenant::{QosClass, TenantSpec};
use dsa_core::config::AccelConfig;
use dsa_core::digest::{Digestible, Fnv1a};
use dsa_core::error::DsaError;
use dsa_device::config::DeviceConfig;
use dsa_sim::time::SimDuration;

/// DSA 1.0 envelope the plans carve up (see `DeviceCaps::dsa1`).
pub const TOTAL_ENGINES: u32 = 4;
/// Total WQ entries the device exposes.
pub const TOTAL_WQ_ENTRIES: u32 = 128;
/// Maximum engine groups.
pub const MAX_GROUPS: usize = 4;

/// One engine group of a plan: how many of the 4 engines it owns and,
/// optionally, an explicit per-engine read-buffer allotment (`None`
/// leaves the device default in force).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanGroup {
    /// Engines assigned to this group.
    pub engines: u32,
    /// Per-engine read-buffer allotment override, if any.
    pub read_buffers: Option<u32>,
}

/// One work queue of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanWq {
    /// WQ entries carved out of the 128-entry envelope.
    pub size: u32,
    /// Shared (`ENQCMD`) vs dedicated (`MOVDIR64B`) mode.
    pub shared: bool,
    /// Owning group index.
    pub group: usize,
}

/// How tenants are wired onto the plan's WQs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// Tenant `i` submits to `wqs[i % len]`. A single-element list pools
    /// everyone on one WQ; a list as long as the roster is a 1:1 map.
    ByIndex(Vec<usize>),
    /// Tenants are wired by QoS class, each class round-robining over its
    /// own WQ list in roster order.
    ByClass {
        /// WQs serving [`QosClass::Latency`] tenants.
        latency: Vec<usize>,
        /// WQs serving [`QosClass::Throughput`] tenants.
        throughput: Vec<usize>,
    },
}

/// A validated, immutable placement plan. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    label: String,
    groups: Vec<PlanGroup>,
    wqs: Vec<PlanWq>,
    wiring: Wiring,
}

impl Plan {
    /// Starts an empty builder. Add at least one group and one WQ.
    pub fn builder() -> PlanBuilder {
        PlanBuilder {
            label: String::from("custom"),
            groups: Vec::new(),
            wqs: Vec::new(),
            wire_index: None,
            wire_latency: None,
            wire_throughput: None,
            misuse: None,
        }
    }

    /// The canonical pooled layout: one group owning all 4 engines, one
    /// shared 128-entry WQ, every tenant wired to it. Maximum pooling,
    /// zero isolation.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for uniformity with the
    /// other recipes.
    pub fn shared() -> Result<Plan, DsaError> {
        Plan::builder()
            .label("shared")
            .group(TOTAL_ENGINES)
            .shared_wq(TOTAL_WQ_ENTRIES)
            .wire([0])
            .build()
    }

    /// The canonical isolated layout for `n` tenants (Fig. 9 "DWQ: N"):
    /// the 128 entries and 4 engines split evenly, one dedicated WQ per
    /// tenant, tenant `i` on WQ `i`.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when `n` exceeds the 8-WQ envelope.
    pub fn dedicated(n: usize) -> Result<Plan, DsaError> {
        let n = n.max(1);
        let groups = n.min(MAX_GROUPS);
        let size = (TOTAL_WQ_ENTRIES / n as u32).max(1);
        let mut b = Plan::builder().label("dedicated");
        for g in 0..groups {
            b = b.group(engines_for(g, groups));
        }
        for t in 0..n {
            b = b.dedicated_wq_in(size, t % groups);
        }
        b.wire(0..n).build()
    }

    /// The canonical QoS layout for a roster with these classes:
    /// latency tenants get dedicated WQs (half the entries, one engine
    /// per group, up to 3 groups), throughput tenants pool on one shared
    /// WQ behind the remaining engines. Falls back to the dedicated
    /// (all-latency) or shared (all-throughput) layout, still labelled
    /// `by-class`.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when the latency population exceeds
    /// the WQ envelope.
    pub fn by_class_of(classes: &[QosClass]) -> Result<Plan, DsaError> {
        let n = classes.len().max(1);
        let latency = classes.iter().filter(|c| **c == QosClass::Latency).count();
        let throughput = n - latency;
        if throughput == 0 {
            return Ok(Plan::dedicated(n)?.with_label("by-class"));
        }
        if latency == 0 {
            return Ok(Plan::shared()?.with_label("by-class"));
        }
        let dgroups = latency.min(MAX_GROUPS - 1);
        let mut b = Plan::builder().label("by-class");
        for _ in 0..dgroups {
            b = b.group(1);
        }
        let shared_group = dgroups;
        b = b.group(TOTAL_ENGINES - dgroups as u32);
        let dsize = ((TOTAL_WQ_ENTRIES / 2) / latency as u32).max(1);
        for t in 0..latency {
            b = b.dedicated_wq_in(dsize, t % dgroups);
        }
        b = b.shared_wq_in(TOTAL_WQ_ENTRIES / 2, shared_group);
        let shared_wq = latency; // appended after the dedicated WQs
        b.wire_latency(0..latency).wire_throughput([shared_wq]).build()
    }

    /// The same plan with a different display label (labels feed report
    /// summaries, not the device layout).
    pub fn with_label(mut self, label: &str) -> Plan {
        self.label = String::from(label);
        self
    }

    /// The same plan with group `g`'s per-engine read-buffer allotment
    /// set to `per_engine` — the control plane's cheapest candidate move
    /// (paper guideline G6: read-buffer allocation shifts bandwidth
    /// between groups without re-carving WQs).
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] when `g` is out of range;
    /// [`DsaError::InvalidConfig`] when the allotment violates the
    /// device's read-buffer envelope.
    pub fn with_read_buffers(&self, g: usize, per_engine: u32) -> Result<Plan, DsaError> {
        if g >= self.groups.len() {
            return Err(DsaError::InvalidService {
                reason: format!("plan has no group {g} to re-buffer"),
            });
        }
        let mut next = self.clone();
        next.groups[g].read_buffers = Some(per_engine);
        next.device_config()?; // re-validate against the envelope
        Ok(next)
    }

    /// Short lowercase label for tables and digests.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The engine groups, in device order.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// The WQ layout, in device order.
    pub fn wqs(&self) -> &[PlanWq] {
        &self.wqs
    }

    /// The tenant wiring rule.
    pub fn wiring(&self) -> &Wiring {
        &self.wiring
    }

    /// Builds the device configuration this plan describes, re-validating
    /// it against the DSA 1.0 envelope.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] with the violated constraint.
    pub fn device_config(&self) -> Result<DeviceConfig, DsaError> {
        let mut cfg = AccelConfig::builder();
        for g in &self.groups {
            cfg = cfg.group(g.engines);
            if let Some(rb) = g.read_buffers {
                cfg = cfg.read_buffers(rb);
            }
        }
        for w in &self.wqs {
            cfg = if w.shared {
                cfg.shared_wq_in(w.size, w.group)
            } else {
                cfg.dedicated_wq_in(w.size, w.group)
            };
        }
        cfg.build()
    }

    /// The WQ index each tenant of `specs` submits to under this plan's
    /// wiring.
    pub fn assign(&self, specs: &[TenantSpec]) -> Vec<usize> {
        let classes: Vec<QosClass> = specs.iter().map(|s| s.class).collect();
        self.assign_classes(&classes)
    }

    /// [`assign`](Self::assign) from bare QoS classes (the live service
    /// re-wires from tenant state, not specs).
    pub fn assign_classes(&self, classes: &[QosClass]) -> Vec<usize> {
        match &self.wiring {
            Wiring::ByIndex(list) => (0..classes.len()).map(|i| list[i % list.len()]).collect(),
            Wiring::ByClass { latency, throughput } => {
                let (mut lk, mut tk) = (0usize, 0usize);
                classes
                    .iter()
                    .map(|c| match c {
                        QosClass::Latency => {
                            let wq = latency[lk % latency.len()];
                            lk += 1;
                            wq
                        }
                        QosClass::Throughput => {
                            let wq = throughput[tk % throughput.len()];
                            tk += 1;
                            wq
                        }
                    })
                    .collect()
            }
        }
    }

    /// What changes when transitioning from `self` to `to`.
    pub fn diff(&self, to: &Plan) -> PlanDelta {
        let engines = |p: &Plan| p.groups.iter().map(|g| g.engines).collect::<Vec<_>>();
        let buffers = |p: &Plan| p.groups.iter().map(|g| g.read_buffers).collect::<Vec<_>>();
        let n = self.wqs.len().min(to.wqs.len());
        let mut resized = 0usize;
        let mut remoded = 0usize;
        for i in 0..n {
            let (a, b) = (self.wqs[i], to.wqs[i]);
            if a.shared != b.shared {
                remoded += 1;
            } else if a.size != b.size || a.group != b.group {
                resized += 1;
            }
        }
        PlanDelta {
            groups_changed: engines(self) != engines(to),
            read_buffers_changed: buffers(self) != buffers(to),
            wqs_added: to.wqs.len().saturating_sub(self.wqs.len()),
            wqs_removed: self.wqs.len().saturating_sub(to.wqs.len()),
            wqs_resized: resized,
            wqs_remoded: remoded,
            rewired: self.wiring != to.wiring,
        }
    }
}

impl Digestible for Plan {
    fn fold(&self, h: &mut Fnv1a) {
        h.write(self.label.as_bytes());
        h.write_u64(self.groups.len() as u64);
        for g in &self.groups {
            h.write_u64(u64::from(g.engines));
            match g.read_buffers {
                Some(rb) => {
                    h.write_u64(1);
                    h.write_u64(u64::from(rb));
                }
                None => h.write_u64(0),
            }
        }
        h.write_u64(self.wqs.len() as u64);
        for w in &self.wqs {
            h.write_u64(u64::from(w.size));
            h.write_u64(u64::from(w.shared));
            h.write_u64(w.group as u64);
        }
        match &self.wiring {
            Wiring::ByIndex(list) => {
                h.write_u64(0);
                h.write_u64(list.len() as u64);
                for &wq in list {
                    h.write_u64(wq as u64);
                }
            }
            Wiring::ByClass { latency, throughput } => {
                h.write_u64(1);
                for list in [latency, throughput] {
                    h.write_u64(list.len() as u64);
                    for &wq in list {
                        h.write_u64(wq as u64);
                    }
                }
            }
        }
    }
}

/// By-value builder for [`Plan`]. See [`Plan::builder`].
#[derive(Clone, Debug)]
pub struct PlanBuilder {
    label: String,
    groups: Vec<PlanGroup>,
    wqs: Vec<PlanWq>,
    wire_index: Option<Vec<usize>>,
    wire_latency: Option<Vec<usize>>,
    wire_throughput: Option<Vec<usize>>,
    misuse: Option<&'static str>,
}

impl PlanBuilder {
    /// Sets the plan's display label.
    pub fn label(mut self, label: &str) -> PlanBuilder {
        self.label = String::from(label);
        self
    }

    /// Opens the next engine group with `engines` engines.
    pub fn group(mut self, engines: u32) -> PlanBuilder {
        self.groups.push(PlanGroup { engines, read_buffers: None });
        self
    }

    /// Sets the per-engine read-buffer allotment of the group opened
    /// last.
    pub fn read_buffers(mut self, per_engine: u32) -> PlanBuilder {
        match self.groups.last_mut() {
            Some(g) => g.read_buffers = Some(per_engine),
            None => self.misuse = self.misuse.or(Some("read_buffers before any group")),
        }
        self
    }

    /// Adds a dedicated WQ to the group opened last.
    pub fn dedicated_wq(self, size: u32) -> PlanBuilder {
        let g = self.groups.len().saturating_sub(1);
        self.push_wq(size, false, g)
    }

    /// Adds a shared WQ to the group opened last.
    pub fn shared_wq(self, size: u32) -> PlanBuilder {
        let g = self.groups.len().saturating_sub(1);
        self.push_wq(size, true, g)
    }

    /// Adds a dedicated WQ to group `g`.
    pub fn dedicated_wq_in(self, size: u32, g: usize) -> PlanBuilder {
        self.push_wq(size, false, g)
    }

    /// Adds a shared WQ to group `g`.
    pub fn shared_wq_in(self, size: u32, g: usize) -> PlanBuilder {
        self.push_wq(size, true, g)
    }

    fn push_wq(mut self, size: u32, shared: bool, g: usize) -> PlanBuilder {
        if self.groups.is_empty() {
            self.misuse = self.misuse.or(Some("work queue before any group"));
        }
        self.wqs.push(PlanWq { size, shared, group: g });
        self
    }

    /// Wires tenants by index: tenant `i` submits to the `i % len`-th WQ
    /// of `list`. Mutually exclusive with the class wiring below.
    pub fn wire(mut self, list: impl IntoIterator<Item = usize>) -> PlanBuilder {
        self.wire_index = Some(list.into_iter().collect());
        self
    }

    /// Wires [`QosClass::Latency`] tenants round-robin over `list`
    /// (default: all WQs).
    pub fn wire_latency(mut self, list: impl IntoIterator<Item = usize>) -> PlanBuilder {
        self.wire_latency = Some(list.into_iter().collect());
        self
    }

    /// Wires [`QosClass::Throughput`] tenants round-robin over `list`
    /// (default: all WQs).
    pub fn wire_throughput(mut self, list: impl IntoIterator<Item = usize>) -> PlanBuilder {
        self.wire_throughput = Some(list.into_iter().collect());
        self
    }

    /// Validates the layout against the DSA 1.0 envelope and freezes the
    /// plan.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidService`] for wiring errors (out-of-range or
    /// empty WQ lists, mixed wiring styles, WQs before any group);
    /// [`DsaError::InvalidConfig`] for envelope violations.
    pub fn build(self) -> Result<Plan, DsaError> {
        if let Some(why) = self.misuse {
            return Err(DsaError::InvalidService { reason: String::from(why) });
        }
        if self.wqs.is_empty() {
            return Err(DsaError::InvalidService {
                reason: String::from("plan has no work queues"),
            });
        }
        if self.wire_index.is_some()
            && (self.wire_latency.is_some() || self.wire_throughput.is_some())
        {
            return Err(DsaError::InvalidService {
                reason: String::from("plan mixes by-index and by-class wiring"),
            });
        }
        let all: Vec<usize> = (0..self.wqs.len()).collect();
        let wiring = if let Some(list) = self.wire_index {
            Wiring::ByIndex(list)
        } else if self.wire_latency.is_some() || self.wire_throughput.is_some() {
            Wiring::ByClass {
                latency: self.wire_latency.unwrap_or_else(|| all.clone()),
                throughput: self.wire_throughput.unwrap_or(all),
            }
        } else {
            Wiring::ByIndex(all)
        };
        let lists: &[&[usize]] = match &wiring {
            Wiring::ByIndex(list) => &[list],
            Wiring::ByClass { latency, throughput } => &[latency, throughput],
        };
        for list in lists {
            if list.is_empty() {
                return Err(DsaError::InvalidService {
                    reason: String::from("plan wiring lists no work queues"),
                });
            }
            if list.iter().any(|&wq| wq >= self.wqs.len()) {
                return Err(DsaError::InvalidService {
                    reason: String::from("plan wiring names a work queue the plan lacks"),
                });
            }
        }
        let plan = Plan { label: self.label, groups: self.groups, wqs: self.wqs, wiring };
        plan.device_config()?;
        Ok(plan)
    }
}

/// What changes between two plans — the input to transition costing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanDelta {
    /// The engine carve changed.
    pub groups_changed: bool,
    /// A group's read-buffer allotment changed.
    pub read_buffers_changed: bool,
    /// WQs present in the target but not the source.
    pub wqs_added: usize,
    /// WQs present in the source but not the target.
    pub wqs_removed: usize,
    /// WQs whose size or owning group changed.
    pub wqs_resized: usize,
    /// WQs whose shared/dedicated mode flipped.
    pub wqs_remoded: usize,
    /// The tenant wiring rule changed.
    pub rewired: bool,
}

impl PlanDelta {
    /// True when the plans are identical.
    pub fn is_empty(&self) -> bool {
        *self == PlanDelta::default()
    }

    /// True when the device itself must be reconfigured (anything beyond
    /// a pure re-wiring of tenants onto the same layout).
    pub fn structural(&self) -> bool {
        self.groups_changed
            || self.read_buffers_changed
            || self.wqs_added > 0
            || self.wqs_removed > 0
            || self.wqs_resized > 0
            || self.wqs_remoded > 0
    }

    /// The simulated stall adopting this delta costs: one device
    /// reconfiguration (drain + WQ re-enable) when structural, plus a
    /// per-moved-tenant re-wiring charge.
    pub fn cost(&self, costs: &TransitionCosts, moved: u64) -> SimDuration {
        let mut c = costs.rewire_per_tenant.saturating_mul(moved);
        if self.structural() {
            c += costs.reconfigure;
        }
        c
    }
}

/// Simulated prices of a plan transition, fed to
/// [`PlanDelta::cost`]. Defaults model a WQ drain + re-enable cycle
/// (microseconds, per the paper's configuration-latency observations)
/// and a portal remap per moved tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitionCosts {
    /// Flat charge for any structural device reconfiguration.
    pub reconfigure: SimDuration,
    /// Charge per tenant whose WQ wiring changed.
    pub rewire_per_tenant: SimDuration,
}

impl Default for TransitionCosts {
    fn default() -> TransitionCosts {
        TransitionCosts {
            reconfigure: SimDuration::from_us(5),
            rewire_per_tenant: SimDuration::from_ns(200),
        }
    }
}

/// A roster-polymorphic plan recipe. Config builders take `impl Into<PlanSpec>` so both a
/// recipe and a concrete [`Plan`] read naturally at the call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanSpec {
    /// One dedicated WQ per tenant ([`Plan::dedicated`]).
    Dedicated,
    /// One shared WQ pooling everyone ([`Plan::shared`]).
    Shared,
    /// QoS split by tenant class ([`Plan::by_class_of`]).
    ByClass,
    /// An explicit pinned layout.
    Fixed(Plan),
}

impl PlanSpec {
    /// Materializes the recipe against a tenant roster.
    ///
    /// # Errors
    ///
    /// [`DsaError::InvalidConfig`] when the materialized layout violates
    /// the device envelope for this roster.
    pub fn materialize(&self, specs: &[TenantSpec]) -> Result<Plan, DsaError> {
        match self {
            PlanSpec::Dedicated => Plan::dedicated(specs.len()),
            PlanSpec::Shared => Plan::shared(),
            PlanSpec::ByClass => {
                let classes: Vec<QosClass> = specs.iter().map(|s| s.class).collect();
                Plan::by_class_of(&classes)
            }
            PlanSpec::Fixed(plan) => Ok(plan.clone()),
        }
    }

    /// Short lowercase label for tables and digests.
    pub fn label(&self) -> &str {
        match self {
            PlanSpec::Dedicated => "dedicated",
            PlanSpec::Shared => "shared",
            PlanSpec::ByClass => "by-class",
            PlanSpec::Fixed(plan) => plan.label(),
        }
    }
}

impl From<Plan> for PlanSpec {
    fn from(plan: Plan) -> PlanSpec {
        PlanSpec::Fixed(plan)
    }
}

/// Engines assigned to group `g` of `groups`: the 4 engines split as
/// evenly as possible, earlier groups taking the remainder.
pub(crate) fn engines_for(g: usize, groups: usize) -> u32 {
    let base = TOTAL_ENGINES / groups as u32;
    let extra = TOTAL_ENGINES as usize % groups;
    base + u32::from(g < extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(classes: &[QosClass]) -> Vec<TenantSpec> {
        classes
            .iter()
            .enumerate()
            .map(|(i, c)| TenantSpec::new(&format!("t{i}"), 4 << 10, 1).with_class(*c))
            .collect()
    }

    #[test]
    fn shared_recipe_matches_historical_layout() {
        let p = Plan::shared().unwrap();
        assert_eq!(p.label(), "shared");
        assert_eq!(p.groups().len(), 1);
        assert_eq!(p.groups()[0].engines, TOTAL_ENGINES);
        assert_eq!(p.wqs(), &[PlanWq { size: TOTAL_WQ_ENTRIES, shared: true, group: 0 }]);
        let specs = roster(&[QosClass::Throughput; 5]);
        assert_eq!(p.assign(&specs), vec![0; 5]);
    }

    #[test]
    fn dedicated_recipe_matches_historical_layout() {
        let p = Plan::dedicated(6).unwrap();
        assert_eq!(p.groups().len(), 4, "6 tenants cap at MAX_GROUPS groups");
        assert_eq!(p.groups().iter().map(|g| g.engines).sum::<u32>(), TOTAL_ENGINES);
        assert_eq!(p.wqs().len(), 6);
        assert!(p.wqs().iter().all(|w| !w.shared && w.size == 128 / 6));
        let specs = roster(&[QosClass::Throughput; 6]);
        assert_eq!(p.assign(&specs), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn by_class_recipe_matches_historical_layout() {
        use QosClass::{Latency as L, Throughput as T};
        let classes = [T, L, T, L];
        let p = Plan::by_class_of(&classes).unwrap();
        assert_eq!(p.label(), "by-class");
        assert_eq!(p.groups().len(), 3, "2 single-engine dedicated groups + shared group");
        assert_eq!(p.wqs().len(), 3, "2 dedicated WQs + 1 shared");
        assert!(p.wqs()[2].shared);
        // Latency tenants take dedicated WQs in roster order; throughput
        // tenants pool on the appended shared WQ.
        assert_eq!(p.assign(&roster(&classes)), vec![2, 0, 2, 1]);
    }

    #[test]
    fn by_class_falls_back_but_keeps_its_label() {
        let all_thr = Plan::by_class_of(&[QosClass::Throughput; 3]).unwrap();
        assert_eq!(all_thr.label(), "by-class");
        assert_eq!(all_thr.wqs().len(), 1);
        assert!(all_thr.wqs()[0].shared);
        let all_lat = Plan::by_class_of(&[QosClass::Latency; 3]).unwrap();
        assert_eq!(all_lat.label(), "by-class");
        assert_eq!(all_lat.wqs().len(), 3);
        assert!(all_lat.wqs().iter().all(|w| !w.shared));
    }

    #[test]
    fn builder_rejects_bad_wiring() {
        let no_wqs = Plan::builder().group(4).build();
        assert!(matches!(no_wqs, Err(DsaError::InvalidService { .. })), "got {no_wqs:?}");
        let out_of_range = Plan::builder().group(4).shared_wq(64).wire([3]).build();
        assert!(
            matches!(out_of_range, Err(DsaError::InvalidService { .. })),
            "got {out_of_range:?}"
        );
        let mixed = Plan::builder().group(4).shared_wq(64).wire([0]).wire_latency([0]).build();
        assert!(matches!(mixed, Err(DsaError::InvalidService { .. })), "got {mixed:?}");
        let orphan_wq = Plan::builder().shared_wq(64).build();
        assert!(matches!(orphan_wq, Err(DsaError::InvalidService { .. })), "got {orphan_wq:?}");
    }

    #[test]
    fn builder_surfaces_envelope_violations() {
        let nine = Plan::dedicated(9);
        assert!(matches!(nine, Err(DsaError::InvalidConfig(_))), "got {nine:?}");
        let five_engines = Plan::builder().group(5).shared_wq(64).build();
        assert!(matches!(five_engines, Err(DsaError::InvalidConfig(_))), "got {five_engines:?}");
    }

    #[test]
    fn diff_classifies_every_change() {
        let shared = Plan::shared().unwrap();
        let dedicated = Plan::dedicated(2).unwrap();
        assert!(shared.diff(&shared).is_empty());
        let d = shared.diff(&dedicated);
        assert!(d.groups_changed && d.rewired);
        assert_eq!(d.wqs_added, 1);
        assert_eq!(d.wqs_remoded, 1, "WQ 0 flips shared -> dedicated");
        let rb = shared.with_read_buffers(0, 8).unwrap();
        let d = shared.diff(&rb);
        assert!(d.read_buffers_changed && !d.groups_changed && !d.rewired);
        assert!(d.structural() && !d.is_empty());
    }

    #[test]
    fn delta_cost_prices_structure_and_moves() {
        let costs = TransitionCosts::default();
        let none = PlanDelta::default();
        assert_eq!(none.cost(&costs, 0), SimDuration::ZERO);
        assert_eq!(none.cost(&costs, 3), costs.rewire_per_tenant.saturating_mul(3));
        let structural = PlanDelta { groups_changed: true, ..PlanDelta::default() };
        assert_eq!(
            structural.cost(&costs, 2),
            costs.reconfigure + costs.rewire_per_tenant.saturating_mul(2)
        );
    }

    #[test]
    fn plan_spec_materializes_like_the_old_enum() {
        let specs = roster(&[QosClass::Latency, QosClass::Throughput]);
        assert_eq!(PlanSpec::Dedicated.materialize(&specs).unwrap(), Plan::dedicated(2).unwrap());
        assert_eq!(PlanSpec::Shared.materialize(&specs).unwrap(), Plan::shared().unwrap());
        let by_class = PlanSpec::ByClass.materialize(&specs).unwrap();
        assert_eq!(
            by_class,
            Plan::by_class_of(&[QosClass::Latency, QosClass::Throughput]).unwrap()
        );
        let fixed = PlanSpec::Fixed(by_class.clone());
        assert_eq!(fixed.materialize(&[]).unwrap(), by_class);
    }

    #[test]
    fn plan_digest_is_layout_sensitive() {
        let shared = Plan::shared().unwrap();
        let dedicated = Plan::dedicated(2).unwrap();
        assert_ne!(shared.digest64(), dedicated.digest64());
        assert_eq!(shared.digest64(), Plan::shared().unwrap().digest64());
        let rb = shared.with_read_buffers(0, 8).unwrap();
        assert_ne!(shared.digest64(), rb.digest64());
    }
}
