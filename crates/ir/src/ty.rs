//! Scalar value types.

use std::fmt;

/// The scalar types of the IR.
///
/// The IR targets a 32-bit machine (RV32IM), so the widest integer is 32 bits.
/// Wider arithmetic (the paper's `u64` example in Fig. 11) is expressed as pairs
/// of `I32` values at the source level, which is exactly what creates the register
/// pressure the paper observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// One-bit boolean, produced by comparisons.
    I1,
    /// Byte, used by byte arrays and string data.
    I8,
    /// The native 32-bit integer.
    I32,
    /// A byte-addressed pointer (32-bit at machine level).
    Ptr,
}

impl Ty {
    /// Size of a value of this type in memory, in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            Ty::I1 | Ty::I8 => 1,
            Ty::I32 | Ty::Ptr => 4,
        }
    }

    /// Whether the type is an integer (everything except `Ptr`).
    pub fn is_int(self) -> bool {
        !matches!(self, Ty::Ptr)
    }

    /// Mask a raw 64-bit value down to this type's bit width, zero-extended.
    pub fn truncate_u(self, v: i64) -> i64 {
        match self {
            Ty::I1 => v & 1,
            Ty::I8 => v & 0xff,
            Ty::I32 | Ty::Ptr => v & 0xffff_ffff,
        }
    }

    /// Mask a raw 64-bit value down to this type's bit width, sign-extended.
    pub fn truncate_s(self, v: i64) -> i64 {
        match self {
            Ty::I1 => {
                if v & 1 != 0 {
                    -1
                } else {
                    0
                }
            }
            Ty::I8 => (v as i8) as i64,
            Ty::I32 | Ty::Ptr => (v as i32) as i64,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I1 => "i1",
            Ty::I8 => "i8",
            Ty::I32 => "i32",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Ty::I1.size_bytes(), 1);
        assert_eq!(Ty::I8.size_bytes(), 1);
        assert_eq!(Ty::I32.size_bytes(), 4);
        assert_eq!(Ty::Ptr.size_bytes(), 4);
    }

    #[test]
    fn truncation_unsigned() {
        assert_eq!(Ty::I8.truncate_u(0x1ff), 0xff);
        assert_eq!(Ty::I1.truncate_u(2), 0);
        assert_eq!(Ty::I32.truncate_u(-1), 0xffff_ffff);
    }

    #[test]
    fn truncation_signed() {
        assert_eq!(Ty::I8.truncate_s(0xff), -1);
        assert_eq!(Ty::I32.truncate_s(0xffff_ffff), -1);
        assert_eq!(Ty::I1.truncate_s(1), -1);
        assert_eq!(Ty::I1.truncate_s(0), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Ty::I32.to_string(), "i32");
        assert_eq!(Ty::Ptr.to_string(), "ptr");
    }
}
