//! Identities of memory-system requesters.
//!
//! Occupancy accounting (paper Fig. 12) attributes every cache line to the
//! agent that allocated it — a core (like a `pqos` RMID) or a device.

use std::fmt;

/// A memory-system requester: a CPU core, a DSA/CBDMA instance, or a NIC-
/// style I/O device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(u16);

const CORE_BASE: u16 = 0;
const CORE_MAX: u16 = 128;
const DSA_BASE: u16 = CORE_BASE + CORE_MAX;
const DSA_MAX: u16 = 16;
const IO_BASE: u16 = DSA_BASE + DSA_MAX;
const IO_MAX: u16 = 15;
const NONE_SLOT: u16 = IO_BASE + IO_MAX;

impl AgentId {
    /// Number of distinct agent slots (sizing for occupancy arrays).
    pub const SLOTS: usize = (NONE_SLOT + 1) as usize;

    /// Sentinel for "no owner".
    pub const NONE: AgentId = AgentId(NONE_SLOT);

    /// CPU core `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 128`.
    pub const fn core(n: u16) -> AgentId {
        assert!(n < CORE_MAX, "core index out of range");
        AgentId(CORE_BASE + n)
    }

    /// DSA (or CBDMA) instance `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub const fn dsa(n: u16) -> AgentId {
        assert!(n < DSA_MAX, "dsa index out of range");
        AgentId(DSA_BASE + n)
    }

    /// Generic I/O device `n` (e.g. a NIC doing DDIO writes).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 15`.
    pub const fn io(n: u16) -> AgentId {
        assert!(n < IO_MAX, "io index out of range");
        AgentId(IO_BASE + n)
    }

    /// Dense index for occupancy arrays.
    pub const fn slot(self) -> usize {
        self.0 as usize
    }

    /// True if this is a CPU core.
    pub fn is_core(self) -> bool {
        self.0 < CORE_MAX
    }

    /// True if this is a DSA/CBDMA device.
    pub fn is_dsa(self) -> bool {
        (DSA_BASE..DSA_BASE + DSA_MAX).contains(&self.0)
    }
}

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AgentId::NONE {
            write!(f, "Agent(none)")
        } else if self.is_core() {
            write!(f, "Core({})", self.0 - CORE_BASE)
        } else if self.is_dsa() {
            write!(f, "Dsa({})", self.0 - DSA_BASE)
        } else {
            write!(f, "Io({})", self.0 - IO_BASE)
        }
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_distinct() {
        let ids =
            [AgentId::core(0), AgentId::core(5), AgentId::dsa(0), AgentId::io(3), AgentId::NONE];
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                assert_eq!(a.slot() == b.slot(), i == j);
            }
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(AgentId::core(1).is_core());
        assert!(!AgentId::core(1).is_dsa());
        assert!(AgentId::dsa(2).is_dsa());
        assert!(!AgentId::io(0).is_core());
        assert!(AgentId::NONE.slot() < AgentId::SLOTS);
    }

    #[test]
    fn debug_labels() {
        assert_eq!(format!("{:?}", AgentId::core(7)), "Core(7)");
        assert_eq!(format!("{}", AgentId::dsa(1)), "Dsa(1)");
        assert_eq!(format!("{:?}", AgentId::io(0)), "Io(0)");
        assert_eq!(format!("{:?}", AgentId::NONE), "Agent(none)");
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn core_bounds_checked() {
        AgentId::core(128);
    }
}
