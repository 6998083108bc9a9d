//! The addressing-mode instruction table (paper Section III-B).
//!
//! "To address an array element, some instructions have to be introduced
//! to transform the element index into a new index or an actual data
//! address ... the numbers of instructions required to calculate the
//! address of a 1D-array element (single-precision floating point) are
//! 2, 0, 1, 1 for global, 1D texture, constant, and shared memories."
//!
//! * **Global** uses register-indirect addressing: on the 64-bit Kepler
//!   address space the effective address costs two 32-bit instructions
//!   (`IMAD` + `IMAD.HI.X` in the paper's Figure 2a).
//! * **1-D texture** fetches by element index directly (`tex1Dfetch`):
//!   zero extra instructions.
//! * **Constant** and **shared** use indexed-absolute addressing: one
//!   shift/scale instruction (`SHL.W` in Figure 2c/d); the base address
//!   lives in a fixed constant-bank slot and costs nothing.
//! * **2-D texture** fetches by `(x, y)`; recovering the two coordinates
//!   from a linear index costs one instruction (div/mod pair fused by the
//!   compiler's magic-number sequence is amortized; a native 2-D kernel
//!   index costs nothing — we charge the conservative one instruction).
//!
//! The paper "enumerate\[s\] and analyze\[s\] common data types
//! (double-precision floating point and integer)": wider elements change
//! only the scale factor, which stays a single instruction, so the table
//! is type-independent except for the global path, which still needs its
//! two-instruction 64-bit address arithmetic.

use hms_types::{DType, MemorySpace};

/// Number of integer instructions needed to turn an element index into a
/// reference for one access to an array of `dtype` placed in `space`.
#[inline]
pub fn addr_calc_instrs(space: MemorySpace, dtype: DType) -> u16 {
    let _ = dtype; // type changes the scale constant, not the count
    match space {
        MemorySpace::Global => 2,
        MemorySpace::Texture1D => 0,
        MemorySpace::Texture2D => 1,
        MemorySpace::Constant => 1,
        MemorySpace::Shared => 1,
    }
}

/// Per-access instruction *difference* when moving an array of `dtype`
/// from `from` to `to` (positive: the target placement executes more
/// instructions). This is the quantity the `T_comp` model adds to the
/// sample placement's executed-instruction count.
#[inline]
pub fn addr_calc_delta(from: MemorySpace, to: MemorySpace, dtype: DType) -> i64 {
    i64::from(addr_calc_instrs(to, dtype)) - i64::from(addr_calc_instrs(from, dtype))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        // "2, 0, 1, 1 for global, 1D texture, constant, and shared".
        assert_eq!(addr_calc_instrs(MemorySpace::Global, DType::F32), 2);
        assert_eq!(addr_calc_instrs(MemorySpace::Texture1D, DType::F32), 0);
        assert_eq!(addr_calc_instrs(MemorySpace::Constant, DType::F32), 1);
        assert_eq!(addr_calc_instrs(MemorySpace::Shared, DType::F32), 1);
    }

    #[test]
    fn deltas_are_antisymmetric() {
        use MemorySpace::*;
        for a in MemorySpace::ALL {
            for b in MemorySpace::ALL {
                assert_eq!(
                    addr_calc_delta(a, b, DType::F32),
                    -addr_calc_delta(b, a, DType::F32)
                );
            }
        }
        // Moving from global to texture removes both addressing
        // instructions per access.
        assert_eq!(addr_calc_delta(Global, Texture1D, DType::F32), -2);
        assert_eq!(addr_calc_delta(Constant, Global, DType::F64), 1);
    }

    #[test]
    fn type_does_not_change_counts() {
        for s in MemorySpace::ALL {
            assert_eq!(
                addr_calc_instrs(s, DType::F32),
                addr_calc_instrs(s, DType::F64)
            );
            assert_eq!(
                addr_calc_instrs(s, DType::I32),
                addr_calc_instrs(s, DType::I64)
            );
        }
    }
}
