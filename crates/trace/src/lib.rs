//! # hms-trace
//!
//! Instruction- and memory-trace machinery, mirroring the paper's
//! implementation framework (Section IV): "an instruction trace generator
//! and a memory trace generator based on SASSI ... The memory trace is
//! then processed to replace load and store operations of the sample data
//! placement with those of the target data placement accommodating the
//! addressing mode difference."
//!
//! * [`op`] — the symbolic, placement-*independent* kernel trace emitted
//!   by the workload generators (`hms-kernels`);
//! * [`addressing`] — the addressing-mode instruction table of Section
//!   III-B (2 / 0 / 1 / 1 extra instructions for global / 1-D texture /
//!   constant / shared);
//! * [`alloc`] — deterministic address assignment per Section III-E;
//! * [`concrete`] — materialization of a symbolic trace under one
//!   placement into per-warp instruction streams with byte addresses (the
//!   simulator's input, standing in for a SASSI trace);
//! * [`rewrite`](mod@rewrite) — the sample→target trace transformation that works only
//!   from the *concrete* sample trace plus array metadata, exactly like
//!   the paper's framework;
//! * [`coalesce`](mod@coalesce) — warp-level address coalescing into memory
//!   transactions, including the global address-divergence replay count
//!   (replay cause (1)).

pub mod addressing;
pub mod alloc;
pub mod coalesce;
pub mod columnar;
pub mod concrete;
pub mod op;
pub mod rewrite;
pub mod serialize;

pub use addressing::addr_calc_instrs;
pub use alloc::AddressAllocator;
pub use coalesce::{coalesce, coalesce_into, CoalesceResult};
pub use columnar::{ArenaMark, ColWarp, ColumnarTrace, OpRange, OpView};
pub use concrete::{element_offset, materialize, CInstr, CMemRef, ConcreteTrace, ConcreteWarp};
pub use op::{ElemIdx, KernelTrace, MemRef, SymOp, WarpTrace};
pub use rewrite::{recover_elem_indices, rewrite};
pub use serialize::{dump, load};
