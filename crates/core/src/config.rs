//! The `libaccel-config` equivalent: an ergonomic, validated builder for
//! device configurations.
//!
//! Mirrors how `accel-config` (and the IDXD sysfs interface) is used:
//! declare groups with engines, carve WQ storage into dedicated/shared
//! queues with priorities, then [`build`](AccelConfig::build) — which is
//! when the IDXD validation rules run. The builder chains by value; each
//! `group`/`engines` call opens a new group that subsequent WQ and
//! read-buffer calls attach to.
//!
//! ```
//! use dsa_core::config::AccelConfig;
//!
//! // Paper Fig. 9's "DWQ: 4" setup: four dedicated WQs, one engine each.
//! let device_config = AccelConfig::builder()
//!     .group(1).dedicated_wq(32)
//!     .group(1).dedicated_wq(32)
//!     .group(1).dedicated_wq(32)
//!     .group(1).dedicated_wq(32)
//!     .build()
//!     .unwrap();
//! assert_eq!(device_config.wqs.len(), 4);
//!
//! // Or the short form: 4 engines in one group, 8 DWQs splitting the
//! // 128-entry storage.
//! let cfg = AccelConfig::builder().engines(4).wqs(8).build().unwrap();
//! assert_eq!(cfg.wqs.len(), 8);
//! ```

use crate::error::DsaError;
use dsa_device::config::{DeviceCaps, DeviceConfig, GroupConfig, WqConfig};

/// Total WQ entry storage of a DSA 1.0 device, split by [`AccelConfig::wqs`].
const TOTAL_WQ_ENTRIES: u32 = 128;

/// Validating builder for a [`DeviceConfig`].
///
/// Obtained from [`AccelConfig::builder`]; consumed by
/// [`build`](AccelConfig::build), which returns
/// [`DsaError::InvalidConfig`] on envelope violations.
#[derive(Clone, Debug, Default)]
pub struct AccelConfig {
    groups: Vec<GroupConfig>,
    wqs: Vec<WqConfig>,
    caps: Option<DeviceCaps>,
}

impl AccelConfig {
    /// Starts an empty configuration.
    pub fn builder() -> AccelConfig {
        AccelConfig::default()
    }

    /// Overrides the capability set validated against (default: DSA 1.0).
    pub fn caps(mut self, caps: DeviceCaps) -> AccelConfig {
        self.caps = Some(caps);
        self
    }

    /// Opens a new group with `engines` engines; subsequent
    /// [`dedicated_wq`](Self::dedicated_wq) / [`shared_wq`](Self::shared_wq)
    /// / [`read_buffers`](Self::read_buffers) calls attach to it.
    pub fn group(mut self, engines: u32) -> AccelConfig {
        self.groups.push(GroupConfig::with_engines(engines));
        self
    }

    /// Alias for [`group`](Self::group): the common one-group-of-`n`-engines
    /// shape reads as `builder().engines(4)`.
    pub fn engines(self, n: u32) -> AccelConfig {
        self.group(n)
    }

    /// Caps the read buffers per engine of the current group (QoS control,
    /// §3.4/F3). Opens a single-engine group if none exists yet.
    pub fn read_buffers(mut self, per_engine: u32) -> AccelConfig {
        if self.groups.is_empty() {
            self = self.group(1);
        }
        let last = self.groups.len() - 1;
        self.groups[last].read_buffers_per_engine = Some(per_engine);
        self
    }

    /// Adds a dedicated WQ of `size` entries to the current group (opening
    /// a single-engine group if none exists yet).
    pub fn dedicated_wq(mut self, size: u32) -> AccelConfig {
        if self.groups.is_empty() {
            self = self.group(1);
        }
        let g = self.groups.len() - 1;
        self.dedicated_wq_in(size, g)
    }

    /// Adds a shared WQ of `size` entries to the current group (opening a
    /// single-engine group if none exists yet).
    pub fn shared_wq(mut self, size: u32) -> AccelConfig {
        if self.groups.is_empty() {
            self = self.group(1);
        }
        let g = self.groups.len() - 1;
        self.shared_wq_in(size, g)
    }

    /// Adds a dedicated WQ of `size` entries to group `group` (0-based, in
    /// [`group`](Self::group) call order).
    pub fn dedicated_wq_in(mut self, size: u32, group: usize) -> AccelConfig {
        self.wqs.push(WqConfig::dedicated(size, group));
        self
    }

    /// Adds a shared WQ of `size` entries to group `group`.
    pub fn shared_wq_in(mut self, size: u32, group: usize) -> AccelConfig {
        self.wqs.push(WqConfig::shared(size, group));
        self
    }

    /// Splits the 128-entry WQ storage into `n` equal dedicated WQs on the
    /// current group (opening a single-engine group if none exists yet).
    pub fn wqs(mut self, n: u32) -> AccelConfig {
        let size = (TOTAL_WQ_ENTRIES / n.max(1)).max(1);
        for _ in 0..n {
            self = self.dedicated_wq(size);
        }
        self
    }

    /// Sets the priority (1..=15) of the most recently added WQ.
    ///
    /// # Panics
    ///
    /// Panics if no WQ has been added yet (a builder-usage bug).
    pub fn priority(mut self, priority: u8) -> AccelConfig {
        #[expect(
            clippy::expect_used,
            reason = "documented panic on builder misuse (priority before any WQ)"
        )]
        let last = self.wqs.len().checked_sub(1).expect("priority() before any WQ was added");
        self.wqs[last].priority = priority;
        self
    }

    /// Validates and produces the device configuration ("enabling" the
    /// device in `accel-config` terms).
    ///
    /// # Errors
    ///
    /// Returns [`DsaError::InvalidConfig`] wrapping the first constraint
    /// the IDXD rules reject.
    pub fn build(self) -> Result<DeviceConfig, DsaError> {
        let cfg = DeviceConfig { groups: self.groups, wqs: self.wqs };
        cfg.validate(&self.caps.unwrap_or_else(DeviceCaps::dsa1))
            .map_err(DsaError::InvalidConfig)?;
        Ok(cfg)
    }
}

/// Ready-made configurations used across the paper's figures.
pub mod presets {
    use super::*;

    /// One group with `engines` engines behind one dedicated WQ of
    /// `wq_size` entries (Figs. 4/7).
    ///
    /// # Panics
    ///
    /// Panics if the parameters violate device capabilities.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking preset; invalid parameters are a caller bug"
    )]
    pub fn engines_behind_one_dwq(engines: u32, wq_size: u32) -> DeviceConfig {
        AccelConfig::builder()
            .group(engines)
            .dedicated_wq(wq_size)
            .build()
            .expect("preset within DSA 1.0 capabilities")
    }

    /// `n` dedicated WQs, each with its own single-engine group
    /// (Fig. 9 "DWQ: N").
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the engine or WQ budget.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking preset; invalid parameters are a caller bug"
    )]
    pub fn n_dwqs_n_engines(n: u32) -> DeviceConfig {
        let mut cfg = AccelConfig::builder();
        for _ in 0..n {
            cfg = cfg.group(1).dedicated_wq(128 / n.max(1));
        }
        cfg.build().expect("preset within DSA 1.0 capabilities")
    }

    /// One shared WQ behind one engine (Fig. 9 "SWQ: N" — N is the number
    /// of submitting threads, not a device property).
    #[expect(
        clippy::expect_used,
        reason = "fixed-shape preset is always within DSA 1.0 capabilities"
    )]
    pub fn one_swq_one_engine() -> DeviceConfig {
        AccelConfig::builder()
            .group(1)
            .shared_wq(32)
            .build()
            .expect("preset within DSA 1.0 capabilities")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_device::config::{ConfigError, WqMode};

    #[test]
    fn builder_produces_valid_config() {
        let dc = AccelConfig::builder()
            .group(2)
            .dedicated_wq(64)
            .group(2)
            .shared_wq(64)
            .priority(12)
            .build()
            .unwrap();
        assert_eq!(dc.groups.len(), 2);
        assert_eq!(dc.wqs[1].priority, 12);
        assert_eq!(dc.wqs[1].mode, WqMode::Shared);
    }

    #[test]
    fn over_budget_rejected_at_build() {
        let r = AccelConfig::builder().group(5).dedicated_wq(8).build(); // > 4 engines
        assert!(matches!(r, Err(DsaError::InvalidConfig(ConfigError::TooManyEngines { .. }))));
    }

    #[test]
    fn read_buffer_limit_recorded() {
        let dc = AccelConfig::builder().group(1).read_buffers(16).dedicated_wq(8).build().unwrap();
        assert_eq!(dc.groups[0].read_buffers_per_engine, Some(16));
    }

    #[test]
    fn engines_wqs_shorthand_splits_storage() {
        let dc = AccelConfig::builder().engines(4).wqs(8).build().unwrap();
        assert_eq!(dc.groups.len(), 1);
        assert_eq!(dc.wqs.len(), 8);
        assert!(dc.wqs.iter().all(|w| w.size == 16));
    }

    #[test]
    fn wq_calls_open_an_implicit_group() {
        let dc = AccelConfig::builder().dedicated_wq(32).build().unwrap();
        assert_eq!(dc.groups.len(), 1);
        assert_eq!(dc.groups[0].engines, 1);
    }

    #[test]
    fn explicit_group_indices_cross_wire() {
        let dc = AccelConfig::builder()
            .group(1)
            .group(3)
            .dedicated_wq_in(32, 0)
            .shared_wq_in(32, 1)
            .build()
            .unwrap();
        assert_eq!(dc.wqs[0].group, 0);
        assert_eq!(dc.wqs[1].group, 1);
    }

    #[test]
    fn presets_validate() {
        presets::engines_behind_one_dwq(4, 128).validate(&DeviceCaps::dsa1()).unwrap();
        presets::n_dwqs_n_engines(4).validate(&DeviceCaps::dsa1()).unwrap();
        presets::one_swq_one_engine().validate(&DeviceCaps::dsa1()).unwrap();
    }

    #[test]
    fn preset_dwq_split_shares_storage() {
        let dc = presets::n_dwqs_n_engines(4);
        let total: u32 = dc.wqs.iter().map(|w| w.size).sum();
        assert!(total <= 128);
        assert_eq!(dc.wqs.len(), 4);
    }
}
