//! Work descriptors and completion records.
//!
//! Software drives DSA by submitting 64-byte descriptors to a portal
//! (paper §3.2). A descriptor names the operation, its flags (completion
//! record request, cache control, block-on-fault, fencing), the source/
//! destination/completion addresses, and the transfer size; a *batch*
//! descriptor points at an array of work descriptors instead. On
//! completion the device writes a 32-byte completion record.
//!
//! [`Descriptor::to_bytes`] produces the 64-byte wire layout so tests can
//! pin the ABI; the simulation passes the structured form around.

use crate::config::DeviceCaps;
use dsa_ops::dif::DifConfig;
use dsa_ops::OpKind;
use dsa_sim::time::scale_bytes;

/// Fixed-offset little-endian field reads for the wire formats. Callers
/// index within the fixed 64- and 32-byte buffers, so the slices are
/// always in range.
fn le_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(v)
}

/// DSA operation codes (architecture specification, Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0x00,
    /// Batch: process an array of descriptors.
    Batch = 0x01,
    /// Drain: wait for preceding descriptors.
    Drain = 0x02,
    /// Memory move (copy).
    Memmove = 0x03,
    /// Memory fill with a pattern.
    Fill = 0x04,
    /// Memory compare.
    Compare = 0x05,
    /// Compare against a pattern.
    ComparePattern = 0x06,
    /// Create delta record.
    CreateDelta = 0x07,
    /// Apply delta record.
    ApplyDelta = 0x08,
    /// Dualcast: copy to two destinations.
    Dualcast = 0x09,
    /// CRC generation.
    CrcGen = 0x10,
    /// Copy with CRC generation.
    CopyCrc = 0x11,
    /// DIF check.
    DifCheck = 0x12,
    /// DIF insert.
    DifInsert = 0x13,
    /// DIF strip.
    DifStrip = 0x14,
    /// DIF update.
    DifUpdate = 0x15,
    /// Cache flush.
    CacheFlush = 0x20,
}

impl Opcode {
    /// The functional operation kind this opcode maps to.
    pub fn op_kind(self) -> OpKind {
        match self {
            Opcode::Nop | Opcode::Batch | Opcode::Drain => OpKind::Nop,
            Opcode::Memmove => OpKind::Memcpy,
            Opcode::Fill => OpKind::Fill,
            Opcode::Compare => OpKind::Compare,
            Opcode::ComparePattern => OpKind::ComparePattern,
            Opcode::CreateDelta => OpKind::DeltaCreate,
            Opcode::ApplyDelta => OpKind::DeltaApply,
            Opcode::Dualcast => OpKind::Dualcast,
            Opcode::CrcGen => OpKind::Crc32,
            Opcode::CopyCrc => OpKind::CopyCrc,
            Opcode::DifCheck => OpKind::DifCheck,
            Opcode::DifInsert => OpKind::DifInsert,
            Opcode::DifStrip => OpKind::DifStrip,
            Opcode::DifUpdate => OpKind::DifUpdate,
            Opcode::CacheFlush => OpKind::CacheFlush,
        }
    }

    /// Short lowercase mnemonic (trace-event span names).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::Batch => "batch",
            Opcode::Drain => "drain",
            Opcode::Memmove => "memmove",
            Opcode::Fill => "fill",
            Opcode::Compare => "compare",
            Opcode::ComparePattern => "compare-pattern",
            Opcode::CreateDelta => "create-delta",
            Opcode::ApplyDelta => "apply-delta",
            Opcode::Dualcast => "dualcast",
            Opcode::CrcGen => "crc-gen",
            Opcode::CopyCrc => "copy-crc",
            Opcode::DifCheck => "dif-check",
            Opcode::DifInsert => "dif-insert",
            Opcode::DifStrip => "dif-strip",
            Opcode::DifUpdate => "dif-update",
            Opcode::CacheFlush => "cache-flush",
        }
    }
}

/// Descriptor flag bits (subset of the specification's flags).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Flags(u32);

impl Flags {
    /// Fence: wait for prior descriptors in the batch before starting.
    pub const FENCE: Flags = Flags(1 << 0);
    /// Block on fault instead of partially completing.
    pub const BLOCK_ON_FAULT: Flags = Flags(1 << 1);
    /// Request a completion record write.
    pub const REQUEST_COMPLETION: Flags = Flags(1 << 2);
    /// Cache control: steer destination writes into the LLC (DDIO-style).
    pub const CACHE_CONTROL: Flags = Flags(1 << 3);
    /// Request a completion interrupt (vs. polling).
    pub const COMPLETION_INTERRUPT: Flags = Flags(1 << 4);

    /// No flags set.
    pub fn empty() -> Flags {
        Flags(0)
    }

    /// True if every bit of `other` is set in `self`.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }

    /// Raw bits.
    pub fn bits(self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        self.union(rhs)
    }
}

/// Operation-specific descriptor fields.
#[derive(Clone, Debug, PartialEq)]
pub enum OpParams {
    /// No extra parameters (nop/drain/memmove/compare/crc-check/flush).
    None,
    /// 8-byte fill or compare pattern.
    Pattern(u64),
    /// Second destination for dualcast.
    Dest2(u64),
    /// CRC seed for chained checksums.
    CrcSeed(u32),
    /// Delta record destination and its maximum size.
    Delta {
        /// Where the record is written (create) or read (apply).
        record_addr: u64,
        /// Maximum record size in bytes (create only).
        max_size: u32,
    },
    /// DIF block/tag configuration.
    Dif(DifConfig),
}

/// Why a descriptor failed [`Descriptor::validate`] — the DSA-spec
/// conformance layer every submit path runs before accepting work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescriptorError {
    /// A plain descriptor carried the Batch opcode; batches go through
    /// `BatchDescriptor` / `submit_batch`.
    BatchOpcode,
    /// Transfer size exceeds the device's maximum.
    TooLarge {
        /// Requested size in bytes.
        size: u64,
        /// Device maximum in bytes.
        max: u32,
    },
    /// Completion-record address not 32-byte aligned (the record is a
    /// 32-byte aligned structure per the spec).
    MisalignedCompletion {
        /// Offending address.
        addr: u64,
    },
    /// Completion interrupt requested without a completion record.
    InterruptWithoutCompletion,
    /// Fence is only meaningful for descriptors inside a batch.
    FenceOutsideBatch,
    /// A flag that is reserved for this opcode was set.
    FlagIncompatible {
        /// The opcode in question.
        opcode: Opcode,
        /// The offending flag bits.
        flags: u32,
    },
    /// `params` does not carry the operand layout this opcode requires.
    ParamMismatch {
        /// The opcode in question.
        opcode: Opcode,
    },
    /// Dualcast destination ranges overlap.
    DualcastOverlap,
    /// Delta operations require an 8-byte-multiple transfer size.
    DeltaUnaligned {
        /// Offending size.
        size: u32,
    },
    /// DIF transfer size is not a whole number of blocks/tuples.
    DifSizeMismatch {
        /// Offending size.
        size: u32,
        /// Required multiple in bytes.
        multiple: u32,
    },
    /// Batch must reference at least two descriptors (spec requirement).
    BatchTooSmall {
        /// Requested count.
        count: u32,
    },
    /// Batch exceeds the device's maximum batch size.
    BatchTooLarge {
        /// Requested count.
        count: u32,
        /// Device maximum.
        max: u32,
    },
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::BatchOpcode => {
                write!(f, "batch opcode in a plain descriptor; use BatchDescriptor")
            }
            DescriptorError::TooLarge { size, max } => {
                write!(f, "transfer of {size} bytes exceeds device max of {max}")
            }
            DescriptorError::MisalignedCompletion { addr } => {
                write!(f, "completion record address {addr:#x} not 32-byte aligned")
            }
            DescriptorError::InterruptWithoutCompletion => {
                write!(f, "completion interrupt requested without a completion record")
            }
            DescriptorError::FenceOutsideBatch => {
                write!(f, "fence flag on a directly submitted descriptor")
            }
            DescriptorError::FlagIncompatible { opcode, flags } => {
                write!(f, "flag bits {flags:#x} are reserved for opcode {opcode:?}")
            }
            DescriptorError::ParamMismatch { opcode } => {
                write!(f, "operation-specific params do not match opcode {opcode:?}")
            }
            DescriptorError::DualcastOverlap => {
                write!(f, "dualcast destination ranges overlap")
            }
            DescriptorError::DeltaUnaligned { size } => {
                write!(f, "delta transfer size {size} is not a multiple of 8")
            }
            DescriptorError::DifSizeMismatch { size, multiple } => {
                write!(f, "DIF transfer size {size} is not a multiple of {multiple}")
            }
            DescriptorError::BatchTooSmall { count } => {
                write!(f, "batch of {count} descriptors; spec requires at least 2")
            }
            DescriptorError::BatchTooLarge { count, max } => {
                write!(f, "batch of {count} descriptors exceeds device max of {max}")
            }
        }
    }
}

impl DescriptorError {
    /// True for errors real hardware reports *through the completion
    /// record* (`Status::InvalidDescriptor`) rather than by refusing the
    /// portal write. The device model lets these reach the engine, which
    /// writes the error record; software-side submit paths reject them
    /// eagerly, before paying for a portal write.
    pub fn reported_in_completion(&self) -> bool {
        matches!(
            self,
            DescriptorError::ParamMismatch { .. }
                | DescriptorError::DualcastOverlap
                | DescriptorError::DeltaUnaligned { .. }
                | DescriptorError::DifSizeMismatch { .. }
        )
    }
}

impl std::error::Error for DescriptorError {}

/// A 64-byte work descriptor.
///
/// The fields are private to this crate: a descriptor is built only by the
/// typed constructors ([`Descriptor::memmove`], [`Descriptor::fill`], …)
/// and changed only by the `with_*` builders, so every descriptor a submit
/// path sees has the shape [`Descriptor::validate`] checks. Other crates
/// read it through accessors. A struct literal does not compile outside
/// this crate:
///
/// ```compile_fail,E0451
/// use dsa_device::descriptor::OpParams;
/// use dsa_device::{Descriptor, Flags, Opcode};
/// let _ = (Flags::REQUEST_COMPLETION, OpParams::None, Opcode::Memmove);
/// let d = Descriptor { opcode: Opcode::Memmove, flags: Flags::REQUEST_COMPLETION, src: 0x1000, dst: 0x2000, xfer_size: 64, completion_addr: 0, params: OpParams::None };
/// assert_eq!(d.xfer_size(), 64);
/// ```
///
/// while the same program with a constructor in that line does:
///
/// ```
/// use dsa_device::descriptor::OpParams;
/// use dsa_device::{Descriptor, Flags, Opcode};
/// let _ = (Flags::REQUEST_COMPLETION, OpParams::None, Opcode::Memmove);
/// let d = Descriptor::memmove(0x1000, 0x2000, 64);
/// assert_eq!(d.xfer_size(), 64);
/// ```
///
/// Nor can a field be edited after [`Descriptor::validate`] has passed:
///
/// ```compile_fail,E0616
/// use dsa_device::{DeviceCaps, Descriptor};
/// let mut d = Descriptor::memmove(0x1000, 0x2000, 4096);
/// assert!(d.validate(&DeviceCaps::dsa1()).is_ok());
/// d.xfer_size = u32::MAX;
/// assert_eq!(d.src(), 0x1000);
/// ```
///
/// A builder in that line goes through the same shape rules and compiles:
///
/// ```
/// use dsa_device::{DeviceCaps, Descriptor};
/// let mut d = Descriptor::memmove(0x1000, 0x2000, 4096);
/// assert!(d.validate(&DeviceCaps::dsa1()).is_ok());
/// d = d.with_completion_addr(0x3000);
/// assert_eq!(d.src(), 0x1000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Descriptor {
    /// Operation code.
    pub(crate) opcode: Opcode,
    /// Flag bits.
    pub(crate) flags: Flags,
    /// Source address (0 when unused).
    pub(crate) src: u64,
    /// Destination address (0 when unused).
    pub(crate) dst: u64,
    /// Nominal transfer size in bytes.
    pub(crate) xfer_size: u32,
    /// Completion record address (0 = none).
    pub(crate) completion_addr: u64,
    /// Operation-specific fields.
    pub(crate) params: OpParams,
}

impl Descriptor {
    /// The base shape every constructor builds on: completion requested,
    /// operation-specific fields filled in by the caller.
    fn base(opcode: Opcode, src: u64, dst: u64, len: u32, params: OpParams) -> Descriptor {
        Descriptor {
            opcode,
            flags: Flags::REQUEST_COMPLETION,
            src,
            dst,
            xfer_size: len,
            completion_addr: 0,
            params,
        }
    }

    /// A no-op descriptor (offload-overhead probes).
    pub fn nop() -> Descriptor {
        Descriptor::base(Opcode::Nop, 0, 0, 0, OpParams::None)
    }

    /// A drain descriptor: an ordering barrier against prior submissions.
    pub fn drain() -> Descriptor {
        Descriptor::base(Opcode::Drain, 0, 0, 0, OpParams::None)
    }

    /// A memory-move descriptor with a completion record requested.
    pub fn memmove(src: u64, dst: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::Memmove, src, dst, len, OpParams::None)
    }

    /// A fill descriptor.
    pub fn fill(dst: u64, len: u32, pattern: u64) -> Descriptor {
        Descriptor::base(Opcode::Fill, 0, dst, len, OpParams::Pattern(pattern))
    }

    /// A compare descriptor (`src` vs `dst` per the spec's operand naming).
    pub fn compare(a: u64, b: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::Compare, a, b, len, OpParams::None)
    }

    /// A CRC-generation descriptor.
    pub fn crc_gen(src: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::CrcGen, src, 0, len, OpParams::CrcSeed(0))
    }

    /// A compare-against-pattern descriptor.
    pub fn compare_pattern(src: u64, len: u32, pattern: u64) -> Descriptor {
        Descriptor::base(Opcode::ComparePattern, src, 0, len, OpParams::Pattern(pattern))
    }

    /// A copy-with-CRC descriptor.
    pub fn copy_crc(src: u64, dst: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::CopyCrc, src, dst, len, OpParams::CrcSeed(0))
    }

    /// A dualcast descriptor copying `src` to both `dst1` and `dst2`.
    pub fn dualcast(src: u64, dst1: u64, dst2: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::Dualcast, src, dst1, len, OpParams::Dest2(dst2))
    }

    /// A create-delta descriptor comparing `original` vs `modified`,
    /// writing a record of at most `max_size` bytes at `record_addr`.
    pub fn delta_create(
        original: u64,
        modified: u64,
        len: u32,
        record_addr: u64,
        max_size: u32,
    ) -> Descriptor {
        Descriptor::base(
            Opcode::CreateDelta,
            original,
            modified,
            len,
            OpParams::Delta { record_addr, max_size },
        )
    }

    /// An apply-delta descriptor replaying the `record_len`-byte record at
    /// `record_addr` onto `target`.
    pub fn delta_apply(record_addr: u64, record_len: u32, target: u64, len: u32) -> Descriptor {
        Descriptor::base(
            Opcode::ApplyDelta,
            0,
            target,
            len,
            OpParams::Delta { record_addr, max_size: record_len },
        )
    }

    /// A DIF-insert descriptor (raw blocks in `src` → protected in `dst`).
    pub fn dif_insert(src: u64, dst: u64, len: u32, cfg: DifConfig) -> Descriptor {
        Descriptor::base(Opcode::DifInsert, src, dst, len, OpParams::Dif(cfg))
    }

    /// A DIF-check descriptor over protected blocks in `src`.
    pub fn dif_check(src: u64, len: u32, cfg: DifConfig) -> Descriptor {
        Descriptor::base(Opcode::DifCheck, src, 0, len, OpParams::Dif(cfg))
    }

    /// A DIF-strip descriptor (verify `src`, raw data to `dst`).
    pub fn dif_strip(src: u64, dst: u64, len: u32, cfg: DifConfig) -> Descriptor {
        Descriptor::base(Opcode::DifStrip, src, dst, len, OpParams::Dif(cfg))
    }

    /// A DIF-update descriptor (verify `src`, rewrite tuples to `dst`).
    pub fn dif_update(src: u64, dst: u64, len: u32, cfg: DifConfig) -> Descriptor {
        Descriptor::base(Opcode::DifUpdate, src, dst, len, OpParams::Dif(cfg))
    }

    /// A cache-flush descriptor over `len` bytes at `dst`.
    pub fn cache_flush(dst: u64, len: u32) -> Descriptor {
        Descriptor::base(Opcode::CacheFlush, 0, dst, len, OpParams::None)
    }

    /// Enables cache-control (destination steered to LLC).
    pub fn with_cache_control(mut self) -> Descriptor {
        self.flags = self.flags | Flags::CACHE_CONTROL;
        self
    }

    /// Sets the completion-record address.
    pub fn with_completion_addr(mut self, addr: u64) -> Descriptor {
        self.completion_addr = addr;
        self
    }

    /// Sets block-on-fault behaviour.
    pub fn with_block_on_fault(mut self) -> Descriptor {
        self.flags = self.flags | Flags::BLOCK_ON_FAULT;
        self
    }

    /// Operation code.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Source address (0 when unused).
    pub fn src(&self) -> u64 {
        self.src
    }

    /// Destination address (0 when unused).
    pub fn dst(&self) -> u64 {
        self.dst
    }

    /// Nominal transfer size in bytes.
    pub fn xfer_size(&self) -> u32 {
        self.xfer_size
    }

    /// Spec-conformance check for a *directly submitted* descriptor:
    /// opcode/flags compatibility, transfer-size bounds, operand-layout
    /// match, and completion-record alignment. Every submit path runs this
    /// before accepting work.
    ///
    /// # Errors
    ///
    /// Returns the first [`DescriptorError`] found, in the order the
    /// hardware would report them (structure before size before operands).
    pub fn validate(&self, caps: &DeviceCaps) -> Result<(), DescriptorError> {
        self.validate_inner(caps, false)
    }

    /// Spec-conformance check for a descriptor *inside a batch*, where the
    /// fence flag is legal (it orders sub-descriptors against each other).
    ///
    /// # Errors
    ///
    /// See [`validate`](Self::validate).
    pub fn validate_in_batch(&self, caps: &DeviceCaps) -> Result<(), DescriptorError> {
        self.validate_inner(caps, true)
    }

    fn validate_inner(&self, caps: &DeviceCaps, in_batch: bool) -> Result<(), DescriptorError> {
        if self.opcode == Opcode::Batch {
            return Err(DescriptorError::BatchOpcode);
        }
        let data_op = !matches!(self.opcode, Opcode::Nop | Opcode::Drain);
        if self.xfer_size as u64 > caps.max_transfer as u64 {
            return Err(DescriptorError::TooLarge {
                size: self.xfer_size as u64,
                max: caps.max_transfer,
            });
        }
        if self.completion_addr != 0 && !self.completion_addr.is_multiple_of(32) {
            return Err(DescriptorError::MisalignedCompletion { addr: self.completion_addr });
        }
        if self.flags.contains(Flags::COMPLETION_INTERRUPT)
            && !self.flags.contains(Flags::REQUEST_COMPLETION)
        {
            return Err(DescriptorError::InterruptWithoutCompletion);
        }
        if self.flags.contains(Flags::FENCE) && !in_batch {
            return Err(DescriptorError::FenceOutsideBatch);
        }
        if !data_op && self.flags.contains(Flags::CACHE_CONTROL) {
            return Err(DescriptorError::FlagIncompatible {
                opcode: self.opcode,
                flags: Flags::CACHE_CONTROL.bits(),
            });
        }
        let params_ok = match self.opcode {
            Opcode::Nop
            | Opcode::Drain
            | Opcode::Memmove
            | Opcode::Compare
            | Opcode::CacheFlush => matches!(self.params, OpParams::None),
            Opcode::Fill | Opcode::ComparePattern => {
                matches!(self.params, OpParams::Pattern(_))
            }
            Opcode::Dualcast => matches!(self.params, OpParams::Dest2(_)),
            Opcode::CrcGen | Opcode::CopyCrc => matches!(self.params, OpParams::CrcSeed(_)),
            Opcode::CreateDelta | Opcode::ApplyDelta => {
                matches!(self.params, OpParams::Delta { .. })
            }
            Opcode::DifCheck | Opcode::DifInsert | Opcode::DifStrip | Opcode::DifUpdate => {
                matches!(self.params, OpParams::Dif(_))
            }
            Opcode::Batch => false,
        };
        if !params_ok {
            return Err(DescriptorError::ParamMismatch { opcode: self.opcode });
        }
        match (self.opcode, &self.params) {
            (Opcode::Dualcast, OpParams::Dest2(dst2)) => {
                let len = self.xfer_size as u64;
                let overlap =
                    self.dst < dst2.saturating_add(len) && *dst2 < self.dst.saturating_add(len);
                if overlap {
                    return Err(DescriptorError::DualcastOverlap);
                }
            }
            (Opcode::CreateDelta | Opcode::ApplyDelta, _) if !self.xfer_size.is_multiple_of(8) => {
                return Err(DescriptorError::DeltaUnaligned { size: self.xfer_size });
            }
            (op, OpParams::Dif(cfg)) => {
                // Insert reads raw blocks; check/strip/update read protected
                // blocks carrying an 8-byte tuple each.
                let multiple = if op == Opcode::DifInsert {
                    cfg.block.bytes() as u32
                } else {
                    cfg.block.bytes() as u32 + 8
                };
                if !self.xfer_size.is_multiple_of(multiple) {
                    return Err(DescriptorError::DifSizeMismatch {
                        size: self.xfer_size,
                        multiple,
                    });
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Serializes to the 64-byte portal format.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        // Offset 0: PASID/flags dword (flags in the high bits here).
        b[0..4].copy_from_slice(&self.flags.bits().to_le_bytes());
        b[4] = self.opcode as u8;
        b[8..16].copy_from_slice(&self.completion_addr.to_le_bytes());
        b[16..24].copy_from_slice(&self.src.to_le_bytes());
        b[24..32].copy_from_slice(&self.dst.to_le_bytes());
        b[32..36].copy_from_slice(&self.xfer_size.to_le_bytes());
        match &self.params {
            OpParams::None => {}
            OpParams::Pattern(p) => b[40..48].copy_from_slice(&p.to_le_bytes()),
            OpParams::Dest2(d) => b[40..48].copy_from_slice(&d.to_le_bytes()),
            OpParams::CrcSeed(s) => b[40..44].copy_from_slice(&s.to_le_bytes()),
            OpParams::Delta { record_addr, max_size } => {
                b[40..48].copy_from_slice(&record_addr.to_le_bytes());
                b[48..52].copy_from_slice(&max_size.to_le_bytes());
            }
            OpParams::Dif(cfg) => {
                b[40] = cfg.block.code();
                b[42..44].copy_from_slice(&cfg.app_tag.to_le_bytes());
                b[44..48].copy_from_slice(&cfg.starting_ref_tag.to_le_bytes());
            }
        }
        b
    }

    /// Parses a descriptor from the 64-byte portal format produced by
    /// [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` for an unknown opcode. Operation-specific fields are
    /// recovered according to the opcode's layout.
    pub fn from_bytes(b: &[u8; 64]) -> Option<Descriptor> {
        let flags = Flags(le_u32(b, 0));
        let opcode = match b[4] {
            0x00 => Opcode::Nop,
            0x01 => Opcode::Batch,
            0x02 => Opcode::Drain,
            0x03 => Opcode::Memmove,
            0x04 => Opcode::Fill,
            0x05 => Opcode::Compare,
            0x06 => Opcode::ComparePattern,
            0x07 => Opcode::CreateDelta,
            0x08 => Opcode::ApplyDelta,
            0x09 => Opcode::Dualcast,
            0x10 => Opcode::CrcGen,
            0x11 => Opcode::CopyCrc,
            0x12 => Opcode::DifCheck,
            0x13 => Opcode::DifInsert,
            0x14 => Opcode::DifStrip,
            0x15 => Opcode::DifUpdate,
            0x20 => Opcode::CacheFlush,
            _ => return None,
        };
        let completion_addr = le_u64(b, 8);
        let src = le_u64(b, 16);
        let dst = le_u64(b, 24);
        let xfer_size = le_u32(b, 32);
        let word40 = le_u64(b, 40);
        let params = match opcode {
            Opcode::Fill | Opcode::ComparePattern => OpParams::Pattern(word40),
            Opcode::Dualcast => OpParams::Dest2(word40),
            Opcode::CrcGen | Opcode::CopyCrc => OpParams::CrcSeed(le_u32(b, 40)),
            Opcode::CreateDelta | Opcode::ApplyDelta => {
                OpParams::Delta { record_addr: word40, max_size: le_u32(b, 48) }
            }
            Opcode::DifCheck | Opcode::DifInsert | Opcode::DifStrip | Opcode::DifUpdate => {
                let block = match b[40] {
                    0 => dsa_ops::dif::DifBlockSize::B512,
                    1 => dsa_ops::dif::DifBlockSize::B520,
                    2 => dsa_ops::dif::DifBlockSize::B4096,
                    3 => dsa_ops::dif::DifBlockSize::B4104,
                    _ => return None,
                };
                OpParams::Dif(DifConfig {
                    block,
                    app_tag: le_u16(b, 42),
                    starting_ref_tag: le_u32(b, 44),
                })
            }
            _ => OpParams::None,
        };
        Some(Descriptor { opcode, flags, src, dst, xfer_size, completion_addr, params })
    }

    /// The number of bytes the device will read processing this descriptor.
    pub fn bytes_read(&self) -> u64 {
        scale_bytes(self.xfer_size as u64, self.opcode.op_kind().read_amplification())
    }

    /// The number of bytes the device will write processing this descriptor.
    pub fn bytes_written(&self) -> u64 {
        scale_bytes(self.xfer_size as u64, self.opcode.op_kind().write_amplification())
    }
}

/// Completion status codes (subset of the specification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Operation completed successfully.
    Success,
    /// Stopped at a page fault; `bytes_completed` is valid.
    PageFault {
        /// Faulting virtual address.
        addr: u64,
    },
    /// Memory compare found a difference (not an error; result holds the
    /// offset).
    CompareMismatch,
    /// Delta record exceeded its maximum size.
    DeltaOverflow,
    /// DIF verification failed.
    DifError,
    /// Descriptor was malformed (bad addresses, zero size, …).
    InvalidDescriptor,
}

impl Status {
    /// True for states the paper's software treats as success
    /// (compare mismatch is an answer, not a failure).
    pub fn is_ok(self) -> bool {
        matches!(self, Status::Success | Status::CompareMismatch)
    }
}

/// The 32-byte completion record the device writes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletionRecord {
    /// Outcome.
    pub status: Status,
    /// Bytes processed before stopping (== `xfer_size` on success).
    pub bytes_completed: u32,
    /// Operation result: CRC value, first-difference offset, or delta
    /// record size.
    pub result: u64,
}

impl CompletionRecord {
    /// A success record for a fully processed descriptor.
    pub fn success(bytes: u32) -> CompletionRecord {
        CompletionRecord { status: Status::Success, bytes_completed: bytes, result: 0 }
    }

    /// Serializes to the 32-byte record the device writes to the
    /// completion address. Byte 0 is the status (non-zero once complete —
    /// what `UMONITOR` arms on); the layout mirrors the specification's
    /// status / bytes-completed / fault-address / result fields.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut b = [0u8; 32];
        let (code, fault_addr) = match self.status {
            Status::Success => (0x01u8, 0u64),
            Status::PageFault { addr } => (0x03, addr),
            Status::CompareMismatch => (0x01, 0), // success w/ result set
            Status::DeltaOverflow => (0x04, 0),
            Status::DifError => (0x05, 0),
            Status::InvalidDescriptor => (0x10, 0),
        };
        b[0] = code;
        // Result-qualifier bit for compare results.
        if self.status == Status::CompareMismatch {
            b[1] = 1;
        }
        b[4..8].copy_from_slice(&self.bytes_completed.to_le_bytes());
        b[8..16].copy_from_slice(&fault_addr.to_le_bytes());
        b[16..24].copy_from_slice(&self.result.to_le_bytes());
        b
    }

    /// Parses a record previously serialized with
    /// [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` for an unknown status code (byte 0).
    pub fn from_bytes(b: &[u8; 32]) -> Option<CompletionRecord> {
        let bytes_completed = le_u32(b, 4);
        let fault_addr = le_u64(b, 8);
        let result = le_u64(b, 16);
        let status = match (b[0], b[1]) {
            (0x01, 0) => Status::Success,
            (0x01, 1) => Status::CompareMismatch,
            (0x03, _) => Status::PageFault { addr: fault_addr },
            (0x04, _) => Status::DeltaOverflow,
            (0x05, _) => Status::DifError,
            (0x10, _) => Status::InvalidDescriptor,
            _ => return None,
        };
        Some(CompletionRecord { status, bytes_completed, result })
    }
}

/// A batch descriptor: points at `count` work descriptors in memory.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchDescriptor {
    /// Address of the descriptor array.
    pub(crate) desc_list_addr: u64,
    /// Number of descriptors in the batch (must be >= 2 per the spec).
    pub(crate) count: u32,
    /// Completion record address for the *batch* record.
    pub(crate) completion_addr: u64,
    /// Flags applied to the batch submission itself.
    pub(crate) flags: Flags,
}

impl BatchDescriptor {
    /// A batch descriptor over `count` descriptors at `desc_list_addr`,
    /// with a completion record requested.
    pub fn new(desc_list_addr: u64, count: u32) -> BatchDescriptor {
        BatchDescriptor {
            desc_list_addr,
            count,
            completion_addr: 0,
            flags: Flags::REQUEST_COMPLETION,
        }
    }

    /// Sets the completion-record address for the batch record.
    pub fn with_completion_addr(mut self, addr: u64) -> BatchDescriptor {
        self.completion_addr = addr;
        self
    }

    /// Spec-conformance check for the batch envelope: count within the
    /// spec's `2..=max_batch` window and completion-record alignment.
    ///
    /// # Errors
    ///
    /// Returns the first [`DescriptorError`] found.
    pub fn validate(&self, caps: &DeviceCaps) -> Result<(), DescriptorError> {
        if self.count < 2 {
            return Err(DescriptorError::BatchTooSmall { count: self.count });
        }
        if self.count > caps.max_batch {
            return Err(DescriptorError::BatchTooLarge { count: self.count, max: caps.max_batch });
        }
        if self.completion_addr != 0 && !self.completion_addr.is_multiple_of(32) {
            return Err(DescriptorError::MisalignedCompletion { addr: self.completion_addr });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_layout_is_stable() {
        let d = Descriptor::memmove(0x1000, 0x2000, 4096).with_completion_addr(0x3000);
        let b = d.to_bytes();
        assert_eq!(b[4], 0x03); // Memmove opcode
        assert_eq!(u64::from_le_bytes(b[16..24].try_into().unwrap()), 0x1000);
        assert_eq!(u64::from_le_bytes(b[24..32].try_into().unwrap()), 0x2000);
        assert_eq!(u32::from_le_bytes(b[32..36].try_into().unwrap()), 4096);
        assert_eq!(u64::from_le_bytes(b[8..16].try_into().unwrap()), 0x3000);
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn flags_compose() {
        let f = Flags::REQUEST_COMPLETION | Flags::CACHE_CONTROL;
        assert!(f.contains(Flags::CACHE_CONTROL));
        assert!(!f.contains(Flags::BLOCK_ON_FAULT));
        let d = Descriptor::memmove(0, 0, 1).with_cache_control().with_block_on_fault();
        assert!(d.flags.contains(Flags::CACHE_CONTROL));
        assert!(d.flags.contains(Flags::BLOCK_ON_FAULT));
        assert!(d.flags.contains(Flags::REQUEST_COMPLETION));
    }

    #[test]
    fn pattern_serialized() {
        let d = Descriptor::fill(0x100, 64, 0xDEAD_BEEF_CAFE_F00D);
        let b = d.to_bytes();
        assert_eq!(u64::from_le_bytes(b[40..48].try_into().unwrap()), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn amplifications_via_opcode() {
        assert_eq!(Descriptor::memmove(0, 0, 100).bytes_read(), 100);
        assert_eq!(Descriptor::memmove(0, 0, 100).bytes_written(), 100);
        assert_eq!(Descriptor::fill(0, 100, 0).bytes_read(), 0);
        assert_eq!(Descriptor::compare(0, 0, 100).bytes_read(), 200);
        assert_eq!(Descriptor::crc_gen(0, 100).bytes_written(), 0);
    }

    #[test]
    fn opcode_kind_mapping_total() {
        for op in [
            Opcode::Nop,
            Opcode::Batch,
            Opcode::Drain,
            Opcode::Memmove,
            Opcode::Fill,
            Opcode::Compare,
            Opcode::ComparePattern,
            Opcode::CreateDelta,
            Opcode::ApplyDelta,
            Opcode::Dualcast,
            Opcode::CrcGen,
            Opcode::CopyCrc,
            Opcode::DifCheck,
            Opcode::DifInsert,
            Opcode::DifStrip,
            Opcode::DifUpdate,
            Opcode::CacheFlush,
        ] {
            let _ = op.op_kind(); // must not panic
        }
    }

    #[test]
    fn status_ok_semantics() {
        assert!(Status::Success.is_ok());
        assert!(Status::CompareMismatch.is_ok());
        assert!(!Status::PageFault { addr: 0 }.is_ok());
        assert!(!Status::InvalidDescriptor.is_ok());
    }

    #[test]
    fn completion_record_success() {
        let r = CompletionRecord::success(4096);
        assert_eq!(r.bytes_completed, 4096);
        assert_eq!(r.status, Status::Success);
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;

    fn caps() -> DeviceCaps {
        DeviceCaps::dsa1()
    }

    #[test]
    fn constructors_produce_valid_descriptors() {
        let cfg = DifConfig::new(dsa_ops::dif::DifBlockSize::B512);
        let descs = [
            Descriptor::nop(),
            Descriptor::drain(),
            Descriptor::memmove(0x1000, 0x2000, 4096),
            Descriptor::fill(0x1000, 4096, 0xAB),
            Descriptor::compare(0x1000, 0x2000, 4096),
            Descriptor::compare_pattern(0x1000, 4096, 0xAB),
            Descriptor::crc_gen(0x1000, 4096),
            Descriptor::copy_crc(0x1000, 0x2000, 4096),
            Descriptor::dualcast(0x1000, 0x2000, 0x4000, 4096),
            Descriptor::delta_create(0x1000, 0x2000, 4096, 0x3000, 1024),
            Descriptor::delta_apply(0x3000, 256, 0x2000, 4096),
            Descriptor::dif_insert(0x1000, 0x2000, 512, cfg),
            Descriptor::dif_check(0x1000, 520, cfg),
            Descriptor::dif_strip(0x1000, 0x2000, 520, cfg),
            Descriptor::dif_update(0x1000, 0x2000, 520, cfg),
            Descriptor::cache_flush(0x1000, 4096),
        ];
        for d in descs {
            assert_eq!(d.validate(&caps()), Ok(()), "{:?}", d.opcode);
        }
    }

    #[test]
    fn builders_preserve_validity() {
        let d = Descriptor::memmove(0x1000, 0x2000, 64)
            .with_cache_control()
            .with_block_on_fault()
            .with_completion_addr(0x40);
        assert_eq!(d.validate(&caps()), Ok(()));
    }

    #[test]
    fn batch_opcode_rejected_as_plain_descriptor() {
        let mut d = Descriptor::nop();
        d.opcode = Opcode::Batch;
        assert_eq!(d.validate(&caps()), Err(DescriptorError::BatchOpcode));
    }

    #[test]
    fn oversize_transfer_rejected() {
        let mut d = Descriptor::memmove(0, 0x8000_0000, 1);
        d.xfer_size = u32::MAX;
        assert!(matches!(d.validate(&caps()), Err(DescriptorError::TooLarge { .. })));
    }

    #[test]
    fn misaligned_completion_rejected() {
        let d = Descriptor::memmove(0x1000, 0x2000, 64).with_completion_addr(0x41);
        assert_eq!(d.validate(&caps()), Err(DescriptorError::MisalignedCompletion { addr: 0x41 }));
        // Zero means "no record" and 32-byte multiples are fine.
        assert_eq!(
            Descriptor::memmove(0x1000, 0x2000, 64).with_completion_addr(0x60).validate(&caps()),
            Ok(())
        );
    }

    #[test]
    fn interrupt_without_completion_rejected() {
        let mut d = Descriptor::memmove(0x1000, 0x2000, 64);
        d.flags = Flags::COMPLETION_INTERRUPT;
        assert_eq!(d.validate(&caps()), Err(DescriptorError::InterruptWithoutCompletion));
        d.flags = Flags::COMPLETION_INTERRUPT | Flags::REQUEST_COMPLETION;
        assert_eq!(d.validate(&caps()), Ok(()));
    }

    #[test]
    fn fence_legal_only_inside_batches() {
        let mut d = Descriptor::memmove(0x1000, 0x2000, 64);
        d.flags = d.flags | Flags::FENCE;
        assert_eq!(d.validate(&caps()), Err(DescriptorError::FenceOutsideBatch));
        assert_eq!(d.validate_in_batch(&caps()), Ok(()));
    }

    #[test]
    fn cache_control_illegal_on_nop_and_drain() {
        for d in [Descriptor::nop(), Descriptor::drain()] {
            let d = d.with_cache_control();
            assert!(matches!(d.validate(&caps()), Err(DescriptorError::FlagIncompatible { .. })));
        }
    }

    #[test]
    fn param_layout_must_match_opcode() {
        let mut d = Descriptor::fill(0x1000, 64, 0xAB);
        d.params = OpParams::None;
        assert_eq!(
            d.validate(&caps()),
            Err(DescriptorError::ParamMismatch { opcode: Opcode::Fill })
        );
        let mut d = Descriptor::memmove(0x1000, 0x2000, 64);
        d.params = OpParams::Pattern(1);
        assert!(matches!(d.validate(&caps()), Err(DescriptorError::ParamMismatch { .. })));
    }

    #[test]
    fn dualcast_overlapping_destinations_rejected() {
        let d = Descriptor::dualcast(0x1000, 0x2000, 0x2800, 4096);
        assert_eq!(d.validate(&caps()), Err(DescriptorError::DualcastOverlap));
        let ok = Descriptor::dualcast(0x1000, 0x2000, 0x3000, 4096);
        assert_eq!(ok.validate(&caps()), Ok(()));
    }

    #[test]
    fn delta_sizes_must_be_word_multiples() {
        let d = Descriptor::delta_create(0x1000, 0x2000, 100, 0x3000, 64);
        assert_eq!(d.validate(&caps()), Err(DescriptorError::DeltaUnaligned { size: 100 }));
    }

    #[test]
    fn dif_sizes_must_be_block_multiples() {
        let cfg = DifConfig::new(dsa_ops::dif::DifBlockSize::B512);
        // Insert consumes raw 512-byte blocks.
        assert!(Descriptor::dif_insert(0, 0x2000, 1024, cfg).validate(&caps()).is_ok());
        assert!(matches!(
            Descriptor::dif_insert(0, 0x2000, 1000, cfg).validate(&caps()),
            Err(DescriptorError::DifSizeMismatch { multiple: 512, .. })
        ));
        // Check consumes 520-byte protected blocks.
        assert!(Descriptor::dif_check(0, 1040, cfg).validate(&caps()).is_ok());
        assert!(matches!(
            Descriptor::dif_check(0, 1024, cfg).validate(&caps()),
            Err(DescriptorError::DifSizeMismatch { multiple: 520, .. })
        ));
    }

    #[test]
    fn batch_count_window_enforced() {
        assert_eq!(
            BatchDescriptor::new(0x1000, 1).validate(&caps()),
            Err(DescriptorError::BatchTooSmall { count: 1 })
        );
        assert_eq!(BatchDescriptor::new(0x1000, 2).validate(&caps()), Ok(()));
        let max = caps().max_batch;
        assert_eq!(BatchDescriptor::new(0x1000, max).validate(&caps()), Ok(()));
        assert_eq!(
            BatchDescriptor::new(0x1000, max + 1).validate(&caps()),
            Err(DescriptorError::BatchTooLarge { count: max + 1, max })
        );
    }

    #[test]
    fn content_errors_are_completion_reported() {
        assert!(DescriptorError::DualcastOverlap.reported_in_completion());
        assert!(DescriptorError::ParamMismatch { opcode: Opcode::Fill }.reported_in_completion());
        assert!(!DescriptorError::BatchOpcode.reported_in_completion());
        assert!(!DescriptorError::FenceOutsideBatch.reported_in_completion());
    }
}

#[cfg(test)]
mod record_wire_tests {
    use super::*;

    #[test]
    fn completion_record_roundtrips_all_statuses() {
        for status in [
            Status::Success,
            Status::PageFault { addr: 0xDEAD_B000 },
            Status::CompareMismatch,
            Status::DeltaOverflow,
            Status::DifError,
            Status::InvalidDescriptor,
        ] {
            let r = CompletionRecord { status, bytes_completed: 1234, result: 0xABCD };
            let parsed = CompletionRecord::from_bytes(&r.to_bytes()).unwrap();
            assert_eq!(parsed.status, status);
            assert_eq!(parsed.bytes_completed, 1234);
            assert_eq!(parsed.result, 0xABCD);
        }
    }

    #[test]
    fn record_status_byte_is_nonzero_when_complete() {
        // UMONITOR arms on the status byte flipping from 0.
        for status in [Status::Success, Status::InvalidDescriptor, Status::DifError] {
            let r = CompletionRecord { status, bytes_completed: 0, result: 0 };
            assert_ne!(r.to_bytes()[0], 0);
        }
    }

    #[test]
    fn unknown_status_code_rejected() {
        let mut b = [0u8; 32];
        b[0] = 0x7F;
        assert!(CompletionRecord::from_bytes(&b).is_none());
    }
}

#[cfg(test)]
mod wire_format {
    use super::*;
    use dsa_ops::dif::{DifBlockSize, DifConfig};
    use dsa_sim::rng::SplitMix64;

    const OPCODES: [Opcode; 16] = [
        Opcode::Nop,
        Opcode::Drain,
        Opcode::Memmove,
        Opcode::Fill,
        Opcode::Compare,
        Opcode::ComparePattern,
        Opcode::CreateDelta,
        Opcode::ApplyDelta,
        Opcode::Dualcast,
        Opcode::CrcGen,
        Opcode::CopyCrc,
        Opcode::DifCheck,
        Opcode::DifInsert,
        Opcode::DifStrip,
        Opcode::DifUpdate,
        Opcode::CacheFlush,
    ];

    fn params_for(op: Opcode, seed: u64) -> OpParams {
        match op {
            Opcode::Fill | Opcode::ComparePattern => OpParams::Pattern(seed),
            Opcode::Dualcast => OpParams::Dest2(seed),
            Opcode::CrcGen | Opcode::CopyCrc => OpParams::CrcSeed(seed as u32),
            Opcode::CreateDelta | Opcode::ApplyDelta => {
                OpParams::Delta { record_addr: seed, max_size: (seed >> 32) as u32 }
            }
            Opcode::DifCheck | Opcode::DifInsert | Opcode::DifStrip | Opcode::DifUpdate => {
                let block = match seed % 4 {
                    0 => DifBlockSize::B512,
                    1 => DifBlockSize::B520,
                    2 => DifBlockSize::B4096,
                    _ => DifBlockSize::B4104,
                };
                OpParams::Dif(DifConfig {
                    block,
                    app_tag: (seed >> 8) as u16,
                    starting_ref_tag: (seed >> 16) as u32,
                })
            }
            _ => OpParams::None,
        }
    }

    #[test]
    fn descriptor_wire_roundtrip() {
        let mut rng = SplitMix64::new(0xDE7_0007);
        for _ in 0..256 {
            let op = OPCODES[rng.next_below(OPCODES.len() as u64) as usize];
            let flag_bits = rng.next_below(32) as u32;
            let seed = rng.next_u64();
            let mut flags = Flags::empty();
            for bit in 0..5 {
                if flag_bits & (1 << bit) != 0 {
                    flags = flags
                        | [
                            Flags::FENCE,
                            Flags::BLOCK_ON_FAULT,
                            Flags::REQUEST_COMPLETION,
                            Flags::CACHE_CONTROL,
                            Flags::COMPLETION_INTERRUPT,
                        ][bit];
                }
            }
            let d = Descriptor {
                opcode: op,
                flags,
                src: rng.next_u64(),
                dst: rng.next_u64(),
                xfer_size: rng.next_u64() as u32,
                completion_addr: rng.next_u64(),
                params: params_for(op, seed),
            };
            let parsed = Descriptor::from_bytes(&d.to_bytes()).expect("valid opcode");
            assert_eq!(parsed, d);
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut b = [0u8; 64];
        b[4] = 0x7E;
        assert!(Descriptor::from_bytes(&b).is_none());
    }
}
