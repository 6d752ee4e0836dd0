//! The common error type of the `blockrep` crates.

use crate::{BlockIndex, SiteId};
use core::fmt;

/// Result alias for reliable-device operations.
pub type DeviceResult<T> = Result<T, DeviceError>;

/// Errors surfaced by the reliable device and its substrates.
#[derive(Debug)]
#[non_exhaustive]
pub enum DeviceError {
    /// Not enough sites could be reached to honor the request: voting found
    /// no quorum, or no available copy exists.
    Unavailable {
        /// The operation that failed ("read", "write", "recovery", …).
        operation: &'static str,
        /// Human-readable detail, e.g. the weights gathered vs. required.
        detail: String,
    },
    /// A block index beyond the end of the device.
    BlockOutOfRange {
        /// The offending index.
        block: BlockIndex,
        /// Number of blocks on the device.
        num_blocks: u64,
    },
    /// A write payload whose size differs from the device block size.
    WrongBlockSize {
        /// Size of the payload supplied.
        got: usize,
        /// The device's configured block size.
        expected: usize,
    },
    /// A site identifier not belonging to this device.
    UnknownSite(SiteId),
    /// The contacted site cannot coordinate the request because it is failed
    /// or comatose.
    SiteNotServing {
        /// The site that was asked to coordinate.
        site: SiteId,
        /// Its state at the time ("failed" or "comatose").
        state: &'static str,
    },
    /// Underlying storage failed (only the file-backed store produces this).
    Io(std::io::Error),
    /// Invalid configuration, e.g. zero sites or inconsistent quorums.
    InvalidConfig(String),
    /// Stored state in an on-device format this build does not read, e.g.
    /// a journal written before a format change.
    UnsupportedFormat {
        /// What carries the format ("journal", …).
        what: &'static str,
        /// The format version found on the device.
        found: u32,
        /// The only format version this build reads.
        supported: u32,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Unavailable { operation, detail } => {
                write!(
                    f,
                    "{operation} failed: replicated block unavailable ({detail})"
                )
            }
            DeviceError::BlockOutOfRange { block, num_blocks } => {
                write!(
                    f,
                    "{block} out of range for device with {num_blocks} blocks"
                )
            }
            DeviceError::WrongBlockSize { got, expected } => {
                write!(
                    f,
                    "payload of {got} bytes does not match block size {expected}"
                )
            }
            DeviceError::UnknownSite(site) => write!(f, "unknown site {site}"),
            DeviceError::SiteNotServing { site, state } => {
                write!(f, "site {site} cannot coordinate requests while {state}")
            }
            DeviceError::Io(e) => write!(f, "storage i/o error: {e}"),
            DeviceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DeviceError::UnsupportedFormat {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what} has on-device format {found}; this build reads only format {supported}"
            ),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DeviceError {
    fn from(value: std::io::Error) -> Self {
        DeviceError::Io(value)
    }
}

impl DeviceError {
    /// Convenience constructor for quorum / no-copy failures.
    pub fn unavailable(operation: &'static str, detail: impl Into<String>) -> Self {
        DeviceError::Unavailable {
            operation,
            detail: detail.into(),
        }
    }

    /// Whether the error signals transient unavailability (retryable once
    /// sites recover) rather than a caller bug or I/O fault.
    pub fn is_unavailable(&self) -> bool {
        matches!(
            self,
            DeviceError::Unavailable { .. } | DeviceError::SiteNotServing { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = DeviceError::unavailable("read", "quorum 2 of 3 required, got 1");
        let s = e.to_string();
        assert!(s.contains("read failed"));
        assert!(s.contains("quorum 2 of 3"));
    }

    #[test]
    fn unavailability_classification() {
        assert!(DeviceError::unavailable("write", "x").is_unavailable());
        assert!(DeviceError::SiteNotServing {
            site: SiteId::new(0),
            state: "comatose"
        }
        .is_unavailable());
        assert!(!DeviceError::BlockOutOfRange {
            block: BlockIndex::new(9),
            num_blocks: 4
        }
        .is_unavailable());
    }

    #[test]
    fn io_errors_chain_as_source() {
        let io = std::io::Error::other("disk on fire");
        let e = DeviceError::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
    }
}
