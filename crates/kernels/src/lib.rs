//! # hms-kernels
//!
//! Synthetic re-implementations of every benchmark kernel in the paper's
//! Table IV (SHOC suite + CUDA SDK), expressed as symbolic trace
//! generators over `hms-trace`'s kernel IR.
//!
//! Each module reproduces the *memory and compute skeleton* of its
//! namesake: the access patterns (coalesced streams, strided walks,
//! gathers through index arrays, broadcast coefficient reads, shared-
//! memory tiles with or without bank conflicts), the arithmetic intensity,
//! and the launch geometry. That is the entire interface the paper's
//! models see — they never inspect kernel semantics, only the induced
//! instruction and memory streams (see DESIGN.md's substitution table).
//!
//! Irregular inputs (sparse matrices, neighbor lists, graphs) are drawn
//! from seeded RNGs, so every build is deterministic.

pub mod bfs;
pub mod cfd;
pub mod common;
pub mod convolution;
pub mod fft;
pub mod matmul;
pub mod md;
pub mod md5hash;
pub mod neuralnet;
pub mod params;
pub mod qtc;
pub mod reduction;
pub mod s3d;
pub mod scan;
pub mod sort;
pub mod spmv;
pub mod stencil2d;
pub mod transpose;
pub mod triad;
pub mod vecadd;
pub mod wide;

use hms_trace::KernelTrace;

/// Scale of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests (a handful of blocks).
    Test,
    /// Evaluation-sized inputs for the experiment harness.
    Full,
}

impl Scale {
    /// Parse the CLI/wire spelling (`"test"` / `"full"`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The CLI/wire spelling, inverse of [`Scale::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Full => "full",
        }
    }
}

/// A named kernel builder, for the experiment registry.
pub struct KernelSpec {
    pub name: &'static str,
    pub build: fn(Scale) -> KernelTrace,
}

/// Every kernel in the crate, in Table IV order (evaluation set first,
/// then the `T_overlap` training set).
pub fn registry() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "bfs",
            build: bfs::build,
        },
        KernelSpec {
            name: "fft",
            build: fft::build,
        },
        KernelSpec {
            name: "neuralnet",
            build: neuralnet::build,
        },
        KernelSpec {
            name: "reduction",
            build: reduction::build,
        },
        KernelSpec {
            name: "scan",
            build: scan::build,
        },
        KernelSpec {
            name: "sort",
            build: sort::build,
        },
        KernelSpec {
            name: "stencil2d",
            build: stencil2d::build,
        },
        KernelSpec {
            name: "md5hash",
            build: md5hash::build,
        },
        KernelSpec {
            name: "s3d",
            build: s3d::build,
        },
        KernelSpec {
            name: "convolutionRows",
            build: convolution::build_rows,
        },
        KernelSpec {
            name: "convolutionCols",
            build: convolution::build_cols,
        },
        KernelSpec {
            name: "md",
            build: md::build,
        },
        KernelSpec {
            name: "matrixMul",
            build: matmul::build,
        },
        KernelSpec {
            name: "spmv",
            build: spmv::build,
        },
        KernelSpec {
            name: "transpose",
            build: transpose::build,
        },
        KernelSpec {
            name: "cfd",
            build: cfd::build,
        },
        KernelSpec {
            name: "triad",
            build: triad::build,
        },
        KernelSpec {
            name: "qtc",
            build: qtc::build,
        },
        KernelSpec {
            name: "vecadd",
            build: vecadd::build,
        },
    ]
}

/// Look a kernel up by name. Beyond the Table IV registry this accepts
/// the generated [`wide`] family (`wide3` … `wide12`), which stays out
/// of [`registry`] — the registry is the checksummed paper set, and the
/// exhaustive equivalence suites that iterate it would not terminate on
/// a six-figure placement space.
pub fn by_name(name: &str, scale: Scale) -> Option<KernelTrace> {
    if let Some(spec) = registry().into_iter().find(|k| k.name == name) {
        return Some((spec.build)(scale));
    }
    wide::parse_name(name).map(|n| wide::build_n(n, scale))
}

/// Whether [`by_name`] resolves `name`, decided without building a trace.
pub fn is_known(name: &str) -> bool {
    registry().iter().any(|k| k.name == name) || wide::parse_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_sim::simulate_default;
    use hms_trace::materialize;
    use hms_types::GpuConfig;

    /// Every registered kernel must build, validate under its default
    /// placement, materialize, and simulate to completion at test scale.
    #[test]
    fn every_kernel_simulates_at_test_scale() {
        let cfg = GpuConfig::test_small();
        for spec in registry() {
            let kt = (spec.build)(Scale::Test);
            assert!(!kt.warps.is_empty(), "{}: no warps", spec.name);
            assert_eq!(
                kt.geometry.total_warps(),
                kt.warps.len() as u64,
                "{}: geometry/warp mismatch",
                spec.name
            );
            let pm = kt.default_placement();
            let ct = materialize(&kt, &pm, &cfg)
                .unwrap_or_else(|e| panic!("{}: materialize failed: {e}", spec.name));
            let r = simulate_default(&ct, &cfg)
                .unwrap_or_else(|e| panic!("{}: simulate failed: {e}", spec.name));
            assert!(r.cycles > 0, "{}: zero cycles", spec.name);
            assert!(
                r.events.inst_executed > 0,
                "{}: nothing executed",
                spec.name
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for spec in registry() {
            let a = (spec.build)(Scale::Test);
            let b = (spec.build)(Scale::Test);
            assert_eq!(a, b, "{} is not deterministic", spec.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("spmv", Scale::Test).is_some());
        assert!(by_name("nope", Scale::Test).is_none());
        // The generated wide family resolves without being registered.
        let wide = by_name("wide8", Scale::Test).expect("wide8 resolves");
        assert_eq!(wide.arrays.len(), 8);
        assert!(by_name("wide99", Scale::Test).is_none());
        assert!(registry().iter().all(|k| !k.name.starts_with("wide")));
    }

    #[test]
    fn is_known_agrees_with_by_name() {
        let mut names: Vec<String> = registry().iter().map(|k| k.name.to_string()).collect();
        names.extend((0..15).map(|n| format!("wide{n}")));
        names.extend(["nope", "", "wide", "wide08", "wide-3", "SPMV", "spmv "].map(String::from));
        for name in &names {
            assert_eq!(
                is_known(name),
                by_name(name, Scale::Test).is_some(),
                "`{name}`"
            );
        }
    }
}
