//! The crate-wide error type.
//!
//! [`DsaError`] is what every fallible path in the user-facing library
//! returns: job execution, backend dispatch, and the multi-tenant service
//! layer all converge here instead of panicking on the hot path. The enum
//! is `#[non_exhaustive]`: downstream matches must carry a wildcard arm,
//! which lets later versions add failure modes without a breaking release.

use dsa_device::config::ConfigError;
use dsa_device::device::SubmitError;
use dsa_sim::time::SimTime;

/// Errors surfaced by the offload library.
///
/// Not `Copy`: [`InvalidService`](DsaError::InvalidService) carries an
/// owned reason so builders can name the offending shard/slot/tenant in
/// the message instead of a fixed string.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DsaError {
    /// The device rejected the submission (other than a retryable full WQ).
    Submit(SubmitError),
    /// The request referenced a device index that does not exist.
    UnknownDevice {
        /// Offending index.
        device: usize,
    },
    /// A bounded retry budget was exhausted without the WQ accepting the
    /// submission (service-layer back-pressure; the caller should shed or
    /// degrade the request).
    RetryExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The job could not complete before its deadline.
    DeadlineExceeded {
        /// The deadline that was missed.
        deadline: SimTime,
    },
    /// A device configuration violated the hardware envelope (surfaced by
    /// [`AccelConfig::build`](crate::config::AccelConfig::build)).
    InvalidConfig(ConfigError),
    /// A service- or fleet-level configuration failed builder validation
    /// (surfaced by `ServiceConfig::builder()` / `FleetConfig::builder()`
    /// in `dsa-svc` before any runtime is constructed).
    InvalidService {
        /// What the builder rejected, naming the offending element.
        reason: String,
    },
}

impl std::fmt::Display for DsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsaError::Submit(e) => write!(f, "submission failed: {e}"),
            DsaError::UnknownDevice { device } => write!(f, "unknown device {device}"),
            DsaError::RetryExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            DsaError::DeadlineExceeded { deadline } => {
                write!(f, "deadline {deadline} exceeded")
            }
            DsaError::InvalidConfig(e) => write!(f, "invalid device configuration: {e}"),
            DsaError::InvalidService { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for DsaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsaError::Submit(e) => Some(e),
            DsaError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SubmitError> for DsaError {
    fn from(e: SubmitError) -> DsaError {
        DsaError::Submit(e)
    }
}

impl From<ConfigError> for DsaError {
    fn from(e: ConfigError) -> DsaError {
        DsaError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_names_each_failure_mode() {
        let e = DsaError::RetryExhausted { attempts: 8 };
        assert_eq!(e.to_string(), "retry budget exhausted after 8 attempts");
        let e = DsaError::DeadlineExceeded { deadline: SimTime::from_ns(100) };
        assert!(e.to_string().contains("deadline"));
        assert!(DsaError::UnknownDevice { device: 3 }.to_string().contains('3'));
        let e = DsaError::InvalidService { reason: "zero shards".into() };
        assert_eq!(e.to_string(), "invalid service configuration: zero shards");
    }

    #[test]
    fn source_chains_to_device_errors() {
        let e = DsaError::Submit(SubmitError::UnknownWq { wq: 5 });
        assert!(e.source().is_some());
        assert!(DsaError::RetryExhausted { attempts: 1 }.source().is_none());
    }
}
