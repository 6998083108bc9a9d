//! Columnar (struct-of-arrays) view of a [`ConcreteTrace`].
//!
//! The analysis walk visits every instruction of every warp exactly
//! once, but the per-op [`CInstr`] representation makes each visit pay
//! for pointer-chasing and allocation: a `Mem` op owns a
//! `Vec<Option<u64>>` that the walk clones and re-collects into a dense
//! lane-address vector per access. The columnar form decomposes the
//! trace once into parallel flat buffers — an op-kind byte column, an
//! argument column, compact side tables for memory/addressing/local
//! ops, and shared arenas holding every active lane address and local
//! slot back to back — so the walk streams over contiguous slices with
//! zero per-op allocation.
//!
//! The per-op API stays available as a thin view: [`ColumnarTrace::op`]
//! decodes any op back into a borrowed [`OpView`], and
//! [`ColumnarTrace::to_concrete`] reconstructs the exact
//! [`ConcreteTrace`] (the round-trip is bit-exact and property-tested),
//! so existing `rewrite`/`coalesce` call sites migrate incrementally.
//!
//! Arena lifetimes: a `ColumnarTrace` borrows the source trace (for its
//! metadata — arrays, geometry, placement, allocator) and owns its
//! column buffers. Extra op sequences are appended into the *same*
//! arenas — arbitrary `CInstr`s via [`ColumnarTrace::push_ops`], and
//! the shared-memory staging prologue/epilogue the analysis synthesizes
//! per warp via [`ColumnarTrace::push_staging`], which writes the copy
//! ops straight into the columns. Both return an [`OpRange`] handle,
//! valid until [`ColumnarTrace::rewind`] drops the ops appended after a
//! [`ColumnarTrace::mark`] (the walk rewinds once per wave, so the
//! arenas hold one wave of staging copies and keep their capacity).

use hms_types::{ArrayId, MemorySpace};

use crate::concrete::{AluKind, CInstr, CMemRef, ConcreteTrace, ConcreteWarp};

/// Op-kind codes of the `kind` column.
const K_INT: u8 = 0;
const K_FP32: u8 = 1;
const K_FP64: u8 = 2;
const K_SFU: u8 = 3;
const K_ADDR_CALC: u8 = 4;
const K_MEM: u8 = 5;
const K_LOCAL: u8 = 6;
const K_WAIT: u8 = 7;
const K_SYNC: u8 = 8;

/// A contiguous run of ops in the columnar buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    pub start: u32,
    pub len: u32,
}

impl OpRange {
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Column lengths captured by [`ColumnarTrace::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaMark {
    ops: usize,
    mem: usize,
    addr_calc: usize,
    local: usize,
    mem_addrs: usize,
    local_slots: usize,
}

/// One warp's identity plus its body ops in the columnar buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColWarp {
    pub block: u32,
    pub warp: u32,
    pub ops: OpRange,
}

/// Side-table record for one memory access (fixed-size; the variable
/// parts live in the shared address/lane arenas).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemRec {
    array: ArrayId,
    space: MemorySpace,
    is_store: bool,
    elem_bytes: u8,
    /// Total lane count including inactive lanes (reconstructs the
    /// `Vec<Option<u64>>` width on the way back out).
    width: u32,
    addr_start: u32,
    addr_len: u32,
}

/// Side-table record for one local-memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LocalRec {
    is_store: bool,
    slot_start: u32,
    slot_len: u32,
}

/// A borrowed, decoded view of one op — the thin per-op API over the
/// columnar buffers. All variants are `Copy`-cheap; slice fields point
/// into the arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpView<'c> {
    Alu {
        kind: AluKind,
        count: u16,
    },
    AddrCalc {
        array: ArrayId,
        count: u16,
    },
    Mem {
        array: ArrayId,
        space: MemorySpace,
        is_store: bool,
        elem_bytes: u8,
        /// Dense active-lane byte addresses, in lane order.
        addrs: &'c [u64],
        /// Lane index of each active address (parallel to `addrs`).
        lanes: &'c [u32],
        /// Total lanes including inactive ones.
        width: u32,
    },
    Local {
        is_store: bool,
        slots: &'c [u32],
    },
    WaitLoads,
    SyncThreads,
}

/// Struct-of-arrays decomposition of a [`ConcreteTrace`] body (plus any
/// appended staging sequences). See the module docs for the layout.
/// Equality compares every column, so two values holding the same ops
/// encoded in the same order are equal.
#[derive(Debug, PartialEq)]
pub struct ColumnarTrace<'t> {
    src: &'t ConcreteTrace,
    /// Per-op kind code (`K_*`).
    kind: Vec<u8>,
    /// Per-op argument: ALU/`count` for ALU kinds, a side-table index
    /// for `AddrCalc`/`Mem`/`Local`, 0 otherwise.
    arg0: Vec<u32>,
    mem: Vec<MemRec>,
    addr_calc: Vec<(ArrayId, u16)>,
    local: Vec<LocalRec>,
    /// Arena of dense active-lane addresses for every mem op.
    mem_addrs: Vec<u64>,
    /// Arena of active lane indices, parallel to `mem_addrs`.
    mem_lanes: Vec<u32>,
    /// Arena of local-access slots.
    local_slots: Vec<u32>,
    warps: Vec<ColWarp>,
}

impl<'t> ColumnarTrace<'t> {
    /// Decompose `trace` into columnar form. One pass, `O(ops)`.
    pub fn from_concrete(trace: &'t ConcreteTrace) -> Self {
        // Size every column up front (lane arenas by lane width, an upper
        // bound on active lanes), so the decomposition never regrows and
        // copies a column.
        let (mut n_ops, mut n_mem, mut n_lanes) = (0, 0, 0);
        for i in trace.warps.iter().flat_map(|w| &w.instrs) {
            n_ops += 1;
            if let CInstr::Mem(m) = i {
                n_mem += 1;
                n_lanes += m.addrs.len();
            }
        }
        let mut col = ColumnarTrace {
            src: trace,
            kind: Vec::with_capacity(n_ops),
            arg0: Vec::with_capacity(n_ops),
            mem: Vec::with_capacity(n_mem),
            addr_calc: Vec::new(),
            local: Vec::new(),
            mem_addrs: Vec::with_capacity(n_lanes),
            mem_lanes: Vec::with_capacity(n_lanes),
            local_slots: Vec::new(),
            warps: Vec::with_capacity(trace.warps.len()),
        };
        for w in &trace.warps {
            let ops = col.push_ops(&w.instrs);
            col.warps.push(ColWarp {
                block: w.block,
                warp: w.warp,
                ops,
            });
        }
        col
    }

    /// The source trace this view was built over (metadata access:
    /// arrays, geometry, placement, allocator).
    #[inline]
    pub fn source(&self) -> &'t ConcreteTrace {
        self.src
    }

    /// Warps in source order.
    #[inline]
    pub fn warps(&self) -> &[ColWarp] {
        &self.warps
    }

    /// Total ops currently encoded (bodies plus appended sequences).
    #[inline]
    pub fn op_count(&self) -> usize {
        self.kind.len()
    }

    /// Append an extra op sequence (e.g. a synthesized staging
    /// prologue/epilogue) into the shared arenas; the returned range is
    /// decodable with [`Self::op`] exactly like body ops.
    pub fn push_ops(&mut self, instrs: &[CInstr]) -> OpRange {
        let start = self.kind.len() as u32;
        for i in instrs {
            self.push_instr(i);
        }
        OpRange {
            start,
            len: instrs.len() as u32,
        }
    }

    /// Length of every column right now; [`Self::rewind`] truncates back
    /// to it.
    pub fn mark(&self) -> ArenaMark {
        ArenaMark {
            ops: self.kind.len(),
            mem: self.mem.len(),
            addr_calc: self.addr_calc.len(),
            local: self.local.len(),
            mem_addrs: self.mem_addrs.len(),
            local_slots: self.local_slots.len(),
        }
    }

    /// Drop every op appended since `mark` was taken, keeping the
    /// arenas' capacity. Ranges returned after the mark become invalid.
    pub fn rewind(&mut self, mark: ArenaMark) {
        self.kind.truncate(mark.ops);
        self.arg0.truncate(mark.ops);
        self.mem.truncate(mark.mem);
        self.addr_calc.truncate(mark.addr_calc);
        self.local.truncate(mark.local);
        self.mem_addrs.truncate(mark.mem_addrs);
        self.mem_lanes.truncate(mark.mem_addrs);
        self.local_slots.truncate(mark.local_slots);
    }

    /// Append the shared-memory staging copies of warp `(block, warp)`:
    /// the initialization prologue followed by the write-back epilogue
    /// (paper Section III-B). The ops are written straight into the
    /// columns, with no per-op allocation, and are exactly the ops
    /// `push_ops` encodes from `hms_sim::copy`'s `shared_init_prologue`
    /// followed by `shared_writeback_epilogue` (the simulator's source
    /// of these copies; a property test pins the two to identical
    /// columns):
    ///
    /// * the prologue stages every shared-placed, non-scratch array from
    ///   global memory, then a barrier;
    /// * the epilogue is a barrier, then every such array the kernel
    ///   writes goes back to global memory;
    /// * each copy splits the array into `warp_size`-element chunks taken
    ///   round-robin by the block's warps, a chunk being one wide load, a
    ///   wait and one wide store; a warp with no chunk gets no barrier.
    pub fn push_staging(&mut self, block: u32, warp: u32, warp_size: u32) -> OpRange {
        let src = self.src;
        let start = self.kind.len() as u32;
        let staged = |id: ArrayId, space: MemorySpace| {
            space == MemorySpace::Shared && !src.arrays[id.index()].scratch
        };
        let mut prologue = false;
        for (id, space) in src.placement.iter() {
            if staged(id, space) {
                prologue |= self.push_copy_chunks(id, block, warp, warp_size, true);
            }
        }
        if prologue {
            self.push_plain(K_SYNC);
        }
        // The epilogue's barrier goes first, and is taken back if this
        // warp has no chunk to write back.
        self.push_plain(K_SYNC);
        let mut epilogue = false;
        for (id, space) in src.placement.iter() {
            if staged(id, space) && src.arrays[id.index()].written {
                epilogue |= self.push_copy_chunks(id, block, warp, warp_size, false);
            }
        }
        if !epilogue {
            self.kind.pop();
            self.arg0.pop();
        }
        OpRange {
            start,
            len: self.kind.len() as u32 - start,
        }
    }

    /// One direction of one array's copy for one warp (see
    /// [`Self::push_staging`]); returns whether any chunk was emitted.
    fn push_copy_chunks(
        &mut self,
        array: ArrayId,
        block: u32,
        warp: u32,
        warp_size: u32,
        to_shared: bool,
    ) -> bool {
        let src = self.src;
        let def = &src.arrays[array.index()];
        let esize = def.dtype.size_bytes();
        let elements = def.dims.elements();
        let lanes = u64::from(warp_size);
        let warps_per_block = u64::from(src.geometry.warps_per_block());
        let chunks = elements.div_ceil(lanes);
        let global = (src.alloc.offchip_base(array), MemorySpace::Global);
        let shared = (
            src.alloc.base(array, block, &src.placement),
            MemorySpace::Shared,
        );
        let (from, to) = if to_shared {
            (global, shared)
        } else {
            (shared, global)
        };
        let mut chunk = u64::from(warp);
        let emitted = chunk < chunks;
        while chunk < chunks {
            let first = chunk * lanes;
            let active = (elements - first).min(lanes);
            let run = |base: u64| (base + first * esize, esize, active as u32);
            self.push_lane_run(array, from.1, false, run(from.0), warp_size);
            self.push_plain(K_WAIT);
            self.push_lane_run(array, to.1, true, run(to.0), warp_size);
            chunk += warps_per_block;
        }
        emitted
    }

    /// Append a memory op whose lanes `0..active` touch `addr0 + lane *
    /// stride` and whose remaining lanes up to `width` are inactive.
    fn push_lane_run(
        &mut self,
        array: ArrayId,
        space: MemorySpace,
        is_store: bool,
        (addr0, stride, active): (u64, u64, u32),
        width: u32,
    ) {
        let addr_start = self.mem_addrs.len() as u32;
        self.mem_addrs
            .extend((0..u64::from(active)).map(|l| addr0 + l * stride));
        self.mem_lanes.extend(0..active);
        self.kind.push(K_MEM);
        self.arg0.push(self.mem.len() as u32);
        self.mem.push(MemRec {
            array,
            space,
            is_store,
            elem_bytes: stride as u8,
            width,
            addr_start,
            addr_len: active,
        });
    }

    /// Append an argument-less op (`K_WAIT` / `K_SYNC`).
    fn push_plain(&mut self, kind: u8) {
        self.kind.push(kind);
        self.arg0.push(0);
    }

    fn push_instr(&mut self, i: &CInstr) {
        match i {
            CInstr::Alu { kind, count } => {
                let code = match kind {
                    AluKind::Int => K_INT,
                    AluKind::Fp32 => K_FP32,
                    AluKind::Fp64 => K_FP64,
                    AluKind::Sfu => K_SFU,
                };
                self.kind.push(code);
                self.arg0.push(u32::from(*count));
            }
            CInstr::AddrCalc { array, count } => {
                self.kind.push(K_ADDR_CALC);
                self.arg0.push(self.addr_calc.len() as u32);
                self.addr_calc.push((*array, *count));
            }
            CInstr::Mem(m) => {
                let addr_start = self.mem_addrs.len() as u32;
                for (lane, a) in m.addrs.iter().enumerate() {
                    if let Some(a) = a {
                        self.mem_addrs.push(*a);
                        self.mem_lanes.push(lane as u32);
                    }
                }
                let rec = MemRec {
                    array: m.array,
                    space: m.space,
                    is_store: m.is_store,
                    elem_bytes: m.elem_bytes,
                    width: m.addrs.len() as u32,
                    addr_start,
                    addr_len: self.mem_addrs.len() as u32 - addr_start,
                };
                self.kind.push(K_MEM);
                self.arg0.push(self.mem.len() as u32);
                self.mem.push(rec);
            }
            CInstr::Local { is_store, slots } => {
                let slot_start = self.local_slots.len() as u32;
                self.local_slots.extend_from_slice(slots);
                self.kind.push(K_LOCAL);
                self.arg0.push(self.local.len() as u32);
                self.local.push(LocalRec {
                    is_store: *is_store,
                    slot_start,
                    slot_len: slots.len() as u32,
                });
            }
            CInstr::WaitLoads => self.push_plain(K_WAIT),
            CInstr::SyncThreads => self.push_plain(K_SYNC),
        }
    }

    /// Decode op `i` into its borrowed per-op view.
    #[inline]
    pub fn op(&self, i: u32) -> OpView<'_> {
        let i = i as usize;
        match self.kind[i] {
            K_INT => OpView::Alu {
                kind: AluKind::Int,
                count: self.arg0[i] as u16,
            },
            K_FP32 => OpView::Alu {
                kind: AluKind::Fp32,
                count: self.arg0[i] as u16,
            },
            K_FP64 => OpView::Alu {
                kind: AluKind::Fp64,
                count: self.arg0[i] as u16,
            },
            K_SFU => OpView::Alu {
                kind: AluKind::Sfu,
                count: self.arg0[i] as u16,
            },
            K_ADDR_CALC => {
                let (array, count) = self.addr_calc[self.arg0[i] as usize];
                OpView::AddrCalc { array, count }
            }
            K_MEM => {
                let m = &self.mem[self.arg0[i] as usize];
                let s = m.addr_start as usize;
                let e = s + m.addr_len as usize;
                OpView::Mem {
                    array: m.array,
                    space: m.space,
                    is_store: m.is_store,
                    elem_bytes: m.elem_bytes,
                    addrs: &self.mem_addrs[s..e],
                    lanes: &self.mem_lanes[s..e],
                    width: m.width,
                }
            }
            K_LOCAL => {
                let l = &self.local[self.arg0[i] as usize];
                let s = l.slot_start as usize;
                OpView::Local {
                    is_store: l.is_store,
                    slots: &self.local_slots[s..s + l.slot_len as usize],
                }
            }
            K_WAIT => OpView::WaitLoads,
            K_SYNC => OpView::SyncThreads,
            k => unreachable!("invalid op kind code {k}"),
        }
    }

    /// Re-encode one op as a [`CInstr`] (the inverse of
    /// `Self::push_instr`; exact, including inactive-lane positions).
    pub fn op_to_instr(&self, i: u32) -> CInstr {
        match self.op(i) {
            OpView::Alu { kind, count } => CInstr::Alu { kind, count },
            OpView::AddrCalc { array, count } => CInstr::AddrCalc { array, count },
            OpView::Mem {
                array,
                space,
                is_store,
                elem_bytes,
                addrs,
                lanes,
                width,
            } => {
                let mut full = vec![None; width as usize];
                for (a, l) in addrs.iter().zip(lanes) {
                    full[*l as usize] = Some(*a);
                }
                CInstr::Mem(CMemRef {
                    array,
                    space,
                    is_store,
                    elem_bytes,
                    addrs: full,
                })
            }
            OpView::Local { is_store, slots } => CInstr::Local {
                is_store,
                slots: slots.to_vec(),
            },
            OpView::WaitLoads => CInstr::WaitLoads,
            OpView::SyncThreads => CInstr::SyncThreads,
        }
    }

    /// Reconstruct the exact [`ConcreteTrace`] this view was built from
    /// (metadata cloned from the source, warps re-encoded op by op).
    pub fn to_concrete(&self) -> ConcreteTrace {
        let warps = self
            .warps
            .iter()
            .map(|w| ConcreteWarp {
                block: w.block,
                warp: w.warp,
                instrs: (w.ops.start..w.ops.start + w.ops.len)
                    .map(|i| self.op_to_instr(i))
                    .collect(),
            })
            .collect();
        ConcreteTrace {
            name: self.src.name.clone(),
            arrays: self.src.arrays.clone(),
            geometry: self.src.geometry,
            placement: self.src.placement.clone(),
            alloc: self.src.alloc.clone(),
            warps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::materialize;
    use crate::op::{ElemIdx, KernelTrace, MemRef, SymOp, WarpTrace};
    use hms_types::{ArrayDef, DType, Geometry, GpuConfig};

    fn kernel() -> KernelTrace {
        let mut idx: Vec<Option<ElemIdx>> = (0..16).map(|i| Some(ElemIdx::Lin(i))).collect();
        idx.extend(vec![None; 16]);
        KernelTrace {
            name: "col".into(),
            arrays: vec![
                ArrayDef::new_1d(0, "a", DType::F32, 64, false),
                ArrayDef::new_1d(1, "out", DType::F64, 64, true),
            ],
            geometry: Geometry::new(2, 64),
            warps: (0..2)
                .flat_map(|b| {
                    let idx = idx.clone();
                    (0..2).map(move |w| WarpTrace {
                        block: b,
                        warp: w,
                        ops: vec![
                            SymOp::IntAlu(3),
                            SymOp::AddrCalc {
                                array: hms_types::ArrayId(0),
                                count: 2,
                            },
                            SymOp::Access(MemRef::load(hms_types::ArrayId(0), idx.clone())),
                            SymOp::Local {
                                is_store: false,
                                slots: vec![0, 1, 2],
                            },
                            SymOp::WaitLoads,
                            SymOp::Fp64(1),
                            SymOp::Access(MemRef::store_lin(hms_types::ArrayId(1), 0..32)),
                            SymOp::SyncThreads,
                        ],
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let col = ColumnarTrace::from_concrete(&ct);
        assert_eq!(col.to_concrete(), ct);
    }

    #[test]
    fn mem_view_exposes_dense_active_addrs() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let col = ColumnarTrace::from_concrete(&ct);
        let w0 = col.warps()[0];
        let OpView::Mem {
            addrs,
            lanes,
            width,
            ..
        } = col.op(w0.ops.start + 2)
        else {
            panic!("expected mem op");
        };
        // 16 active of 32 lanes, addresses in lane order.
        assert_eq!(width, 32);
        assert_eq!(addrs.len(), 16);
        assert_eq!(lanes, (0..16).collect::<Vec<u32>>());
        let CInstr::Mem(m) = &ct.warps[0].instrs[2] else {
            panic!()
        };
        let want: Vec<u64> = m.active_addrs().collect();
        assert_eq!(addrs, want);
    }

    #[test]
    fn appended_ops_decode_like_body_ops() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let mut col = ColumnarTrace::from_concrete(&ct);
        let extra = vec![
            CInstr::SyncThreads,
            ct.warps[0].instrs[2].clone(),
            CInstr::Alu {
                kind: AluKind::Sfu,
                count: 7,
            },
        ];
        let r = col.push_ops(&extra);
        assert_eq!(r.len, 3);
        for (k, i) in (r.start..r.start + r.len).enumerate() {
            assert_eq!(col.op_to_instr(i), extra[k]);
        }
    }
}
