//! Concrete (materialized) traces: the stand-in for a SASSI-instrumented
//! run of one placement.
//!
//! Materialization resolves every symbolic memory reference of a
//! [`KernelTrace`] into a memory space and per-lane byte addresses under
//! one [`PlacementMap`], using the deterministic allocator of
//! [`crate::alloc`] and the data layouts of [`hms_types::layout`].
//! Address-calculation ops stay symbolic ([`CInstr::AddrCalc`]) because
//! their expansion — the addressing-mode instruction count — is exactly
//! what differs between placements and what consumers (simulator and
//! `T_comp` model) expand via [`crate::addressing::addr_calc_instrs`].

use hms_types::layout::{row_major_offset, tex2d_offset};
use hms_types::{
    ArrayDef, ArrayId, Dims, Geometry, GpuConfig, HmsError, MemorySpace, PlacementMap,
};

use crate::alloc::AddressAllocator;
use crate::op::{ElemIdx, KernelTrace, SymOp};

/// Arithmetic instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluKind {
    Int,
    Fp32,
    Fp64,
    Sfu,
}

/// One concrete warp memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CMemRef {
    pub array: ArrayId,
    pub space: MemorySpace,
    pub is_store: bool,
    pub elem_bytes: u8,
    /// Per-lane byte addresses (`None` = inactive lane). Shared-space
    /// addresses are offsets into the block's shared memory; off-chip
    /// addresses are device physical addresses.
    pub addrs: Vec<Option<u64>>,
}

impl CMemRef {
    pub fn active_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.addrs.iter().flatten().copied()
    }
}

/// One concrete warp instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CInstr {
    /// A run of `count` arithmetic instructions of one kind.
    Alu {
        kind: AluKind,
        count: u16,
    },
    /// Placement-dependent addressing arithmetic for `count` references
    /// to `array` (expand with `addr_calc_instrs(space, dtype) * count`).
    AddrCalc {
        array: ArrayId,
        count: u16,
    },
    Mem(CMemRef),
    /// A local-memory access: each active lane touches a 4-byte slot of
    /// its private local space. Addresses are resolved by the consumer
    /// (simulator) from the thread id, since local memory is
    /// placement-independent.
    Local {
        is_store: bool,
        slots: Vec<u32>,
    },
    WaitLoads,
    SyncThreads,
}

/// Concrete trace of one warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteWarp {
    pub block: u32,
    pub warp: u32,
    pub instrs: Vec<CInstr>,
}

/// Concrete trace of one kernel launch under one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteTrace {
    pub name: String,
    pub arrays: Vec<ArrayDef>,
    pub geometry: Geometry,
    pub placement: PlacementMap,
    pub alloc: AddressAllocator,
    pub warps: Vec<ConcreteWarp>,
}

impl ConcreteTrace {
    /// Expanded addressing-instruction count for one `AddrCalc` op under
    /// this trace's placement.
    pub fn addr_calc_expansion(&self, array: ArrayId, count: u16) -> u64 {
        let space = self.placement.space(array);
        let dtype = self.arrays[array.index()].dtype;
        u64::from(crate::addressing::addr_calc_instrs(space, dtype)) * u64::from(count)
    }
}

/// Base of the local-memory region in the device address space, placed
/// far above any allocator range.
pub const LOCAL_MEM_BASE: u64 = 1 << 31;

/// Device address of one thread's local-memory slot. CUDA interleaves
/// local memory slot-major so that a warp's same-slot accesses coalesce:
/// `addr = base + (slot x total_threads + tid) x 4`.
#[inline]
pub fn local_addr(slot: u32, tid: u64, total_threads: u64) -> u64 {
    LOCAL_MEM_BASE + (u64::from(slot) * total_threads + tid) * 4
}

/// Byte offset of `idx` within `array` under `space`.
///
/// Public because the incremental search engine re-lays individual
/// accesses out under candidate spaces without rebuilding whole traces;
/// [`crate::rewrite()`] uses the same function, so the two paths agree by
/// construction.
pub fn element_offset(array: &ArrayDef, space: MemorySpace, idx: ElemIdx, cfg: &GpuConfig) -> u64 {
    let esize = array.dtype.size_bytes();
    let width = match array.dims {
        Dims::D1 { len } => len,
        Dims::D2 { width, .. } => width,
    };
    match space {
        MemorySpace::Texture2D => {
            let (x, y) = idx.xy(width);
            tex2d_offset(x, y, width, esize, cfg.tex2d_tile)
        }
        _ => {
            let lin = idx.linear(width);
            debug_assert!(
                lin < array.dims.elements(),
                "index {lin} out of bounds for `{}` ({} elements)",
                array.name,
                array.dims.elements()
            );
            row_major_offset(lin, 0, u64::MAX, esize)
        }
    }
}

/// Materialize `kernel` under `placement`.
///
/// Fails when the placement is invalid for the kernel's arrays (capacity,
/// writability, or dimensionality violations).
pub fn materialize(
    kernel: &KernelTrace,
    placement: &PlacementMap,
    cfg: &GpuConfig,
) -> Result<ConcreteTrace, HmsError> {
    placement.validate(&kernel.arrays, cfg)?;
    let alloc = AddressAllocator::new(&kernel.arrays, placement, kernel.geometry.grid_blocks);
    let mut warps = Vec::with_capacity(kernel.warps.len());
    for w in &kernel.warps {
        let mut instrs = Vec::with_capacity(w.ops.len());
        for op in &w.ops {
            match op {
                SymOp::IntAlu(n) => instrs.push(CInstr::Alu {
                    kind: AluKind::Int,
                    count: *n,
                }),
                SymOp::FpAlu(n) => instrs.push(CInstr::Alu {
                    kind: AluKind::Fp32,
                    count: *n,
                }),
                SymOp::Fp64(n) => instrs.push(CInstr::Alu {
                    kind: AluKind::Fp64,
                    count: *n,
                }),
                SymOp::Sfu(n) => instrs.push(CInstr::Alu {
                    kind: AluKind::Sfu,
                    count: *n,
                }),
                SymOp::AddrCalc { array, count } => instrs.push(CInstr::AddrCalc {
                    array: *array,
                    count: *count,
                }),
                SymOp::WaitLoads => instrs.push(CInstr::WaitLoads),
                SymOp::SyncThreads => instrs.push(CInstr::SyncThreads),
                SymOp::Local { is_store, slots } => instrs.push(CInstr::Local {
                    is_store: *is_store,
                    slots: slots.clone(),
                }),
                SymOp::Access(m) => {
                    let array = &kernel.arrays[m.array.index()];
                    let space = placement.space(m.array);
                    let base = alloc.base(m.array, w.block, placement);
                    let addrs = m
                        .idx
                        .iter()
                        .map(|oi| oi.map(|i| base + element_offset(array, space, i, cfg)))
                        .collect();
                    instrs.push(CInstr::Mem(CMemRef {
                        array: m.array,
                        space,
                        is_store: m.is_store,
                        elem_bytes: array.dtype.size_bytes() as u8,
                        addrs,
                    }));
                }
            }
        }
        warps.push(ConcreteWarp {
            block: w.block,
            warp: w.warp,
            instrs,
        });
    }
    Ok(ConcreteTrace {
        name: kernel.name.clone(),
        arrays: kernel.arrays.clone(),
        geometry: kernel.geometry,
        placement: placement.clone(),
        alloc,
        warps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{MemRef, WarpTrace};
    use hms_types::DType;

    fn kernel() -> KernelTrace {
        KernelTrace {
            name: "vecadd".into(),
            arrays: vec![
                ArrayDef::new_1d(0, "a", DType::F32, 64, false),
                ArrayDef::new_2d(1, "img", DType::F32, 16, 16, false),
            ],
            geometry: Geometry::new(2, 32),
            warps: (0..2)
                .map(|b| WarpTrace {
                    block: b,
                    warp: 0,
                    ops: vec![
                        SymOp::AddrCalc {
                            array: ArrayId(0),
                            count: 1,
                        },
                        SymOp::Access(MemRef::load_lin(ArrayId(0), 0..32)),
                        SymOp::WaitLoads,
                        SymOp::FpAlu(1),
                    ],
                })
                .collect(),
        }
    }

    #[test]
    fn global_placement_uses_row_major_addresses() {
        let kt = kernel();
        let cfg = GpuConfig::tesla_k80();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let CInstr::Mem(m) = &ct.warps[0].instrs[1] else {
            panic!("expected mem")
        };
        assert_eq!(m.space, MemorySpace::Global);
        let base = ct.alloc.base(ArrayId(0), 0, &ct.placement);
        let addrs: Vec<u64> = m.active_addrs().collect();
        assert_eq!(addrs[0], base);
        assert_eq!(addrs[1], base + 4);
        assert_eq!(addrs[31], base + 124);
    }

    #[test]
    fn addr_calc_expansion_follows_placement() {
        let kt = kernel();
        let cfg = GpuConfig::tesla_k80();
        let g = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        assert_eq!(g.addr_calc_expansion(ArrayId(0), 1), 2);
        let t = materialize(
            &kt,
            &kt.default_placement()
                .with(ArrayId(0), MemorySpace::Texture1D),
            &cfg,
        )
        .unwrap();
        assert_eq!(t.addr_calc_expansion(ArrayId(0), 1), 0);
        let c = materialize(
            &kt,
            &kt.default_placement()
                .with(ArrayId(0), MemorySpace::Constant),
            &cfg,
        )
        .unwrap();
        assert_eq!(c.addr_calc_expansion(ArrayId(0), 1), 1);
    }

    #[test]
    fn texture2d_placement_tiles_addresses() {
        let mut kt = kernel();
        // Access row 1 of the image: elements (0..32, y=1) linearized.
        kt.warps[0].ops[1] = SymOp::Access(MemRef::load(
            ArrayId(1),
            (0..16).map(|x| Some(ElemIdx::XY(x, 1))).collect(),
        ));
        let cfg = GpuConfig::tesla_k80();
        let pm = kt
            .default_placement()
            .with(ArrayId(1), MemorySpace::Texture2D);
        let ct = materialize(&kt, &pm, &cfg).unwrap();
        let CInstr::Mem(m) = &ct.warps[0].instrs[1] else {
            panic!()
        };
        assert_eq!(m.space, MemorySpace::Texture2D);
        let base = ct.alloc.base(ArrayId(1), 0, &pm);
        let addrs: Vec<u64> = m.active_addrs().collect();
        // (0,1) in an 8-tile layout = word 8 -> byte 32.
        assert_eq!(addrs[0], base + 32);
        // (8,1) starts the second tile: tile 1 begins at 64 elements.
        assert_eq!(addrs[8], base + (64 + 8) * 4);
    }

    #[test]
    fn shared_placement_uses_block_local_offsets() {
        let kt = kernel();
        let cfg = GpuConfig::tesla_k80();
        let pm = kt.default_placement().with(ArrayId(0), MemorySpace::Shared);
        let ct = materialize(&kt, &pm, &cfg).unwrap();
        for w in &ct.warps {
            let CInstr::Mem(m) = &w.instrs[1] else {
                panic!()
            };
            assert_eq!(m.space, MemorySpace::Shared);
            // Both blocks see the same (block-local) offsets.
            assert_eq!(m.active_addrs().next().unwrap(), 0);
        }
    }

    #[test]
    fn invalid_placement_is_rejected() {
        let kt = kernel();
        let cfg = GpuConfig::tesla_k80();
        // 1-D array into 2-D texture.
        let pm = kt
            .default_placement()
            .with(ArrayId(0), MemorySpace::Texture2D);
        assert!(materialize(&kt, &pm, &cfg).is_err());
    }

    #[test]
    fn inactive_lanes_stay_inactive() {
        let mut kt = kernel();
        let mut idx: Vec<Option<ElemIdx>> = (0..16).map(|i| Some(ElemIdx::Lin(i))).collect();
        idx.extend(vec![None; 16]);
        kt.warps[0].ops[1] = SymOp::Access(MemRef::load(ArrayId(0), idx));
        let cfg = GpuConfig::tesla_k80();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let CInstr::Mem(m) = &ct.warps[0].instrs[1] else {
            panic!()
        };
        assert_eq!(m.addrs.iter().filter(|a| a.is_some()).count(), 16);
    }
}
