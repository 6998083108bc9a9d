//! Beam search over per-array placement prefixes.
//!
//! The placement tree — candidate arrays in request order, each
//! level choosing that array's standalone-legal space — is walked
//! breadth-first, but only the `width` prefixes with the smallest
//! monotone lower bound survive a level. Surviving complete
//! assignments are joint-validated and evaluated exactly through the
//! `Sweep` driver.
//!
//! Because every dropped prefix's bound is recorded, the reported gap
//! is sound: the true optimum either survived to evaluation (then
//! `best` is it, or its leaf's bound is in the floor if the deadline
//! cut evaluation short) or lives under a dropped prefix whose bound
//! the floor already contains. With nothing dropped and nothing cut,
//! beam search *was* exhaustive over the legal tree and the gap is 0.

use std::time::Instant;

use hms_types::{MemorySpace, PlacementMap};

use super::{full_assignment, Sweep};

struct Prefix {
    assignment: Vec<Option<MemorySpace>>,
    pm: PlacementMap,
    lb: f64,
}

pub(crate) fn run(sweep: &mut Sweep<'_, '_>, width: usize) -> Result<(), hms_types::HmsError> {
    let t0 = Instant::now();
    let (engine, req) = (sweep.engine, sweep.req);
    let n = req.arrays.len();
    let width = width.max(1);

    let root = Prefix {
        assignment: super::template(req),
        pm: req.base.clone(),
        lb: 0.0,
    };
    let mut beam: Vec<Prefix> = vec![root];
    // The floor covers everything the search will never evaluate:
    // dropped prefixes, limit-truncated leaves, deadline-cut leaves.
    for &id in &req.candidates {
        let mut children: Vec<Prefix> = Vec::with_capacity(beam.len() * MemorySpace::ALL.len());
        for prefix in &beam {
            for &space in engine.legal_spaces(id) {
                let mut assignment = prefix.assignment.clone();
                assignment[id.index()] = Some(space);
                let lb = engine.lower_bound(&assignment);
                children.push(Prefix {
                    assignment,
                    pm: prefix.pm.with(id, space),
                    lb,
                });
            }
        }
        // Stable sort: bound ties keep expansion order, so the beam's
        // contents are independent of anything but the request.
        engine.bump(|s| s.candidates_visited += children.len() as u64);
        children.sort_by(|a, b| a.lb.total_cmp(&b.lb));
        for dropped in children.iter().skip(width) {
            sweep.lower_floor(dropped.lb);
        }
        children.truncate(width);
        beam = children;
    }

    // Joint legality can be stricter than the per-array legality that
    // shaped the tree (e.g. shared capacity): a jointly-illegal leaf
    // contains no legal candidate, so skipping it costs nothing.
    let cfg = &engine.predictor().cfg;
    let mut leaves: Vec<Prefix> = beam
        .into_iter()
        .filter(|p| p.pm.validate(req.arrays, cfg).is_ok())
        .collect();
    for truncated in leaves.iter().skip(req.limit) {
        sweep.lower_floor(truncated.lb);
    }
    leaves.truncate(req.limit);
    if leaves.is_empty() && req.base.validate(req.arrays, cfg).is_ok() {
        // Every survivor was jointly illegal: fall back to the base
        // placement so the outcome still carries a real prediction.
        leaves.push(Prefix {
            assignment: full_assignment(req.base, n),
            pm: req.base.clone(),
            lb: engine.lower_bound(&full_assignment(req.base, n)),
        });
    }
    engine.bump(|s| {
        s.candidates_enumerated += leaves.len() as u64;
        s.enumerate_nanos += t0.elapsed().as_nanos() as u64;
    });

    let pms: Vec<PlacementMap> = leaves.iter().map(|p| p.pm.clone()).collect();
    let done = sweep.evaluate(&pms)?.len();
    for unevaluated in &leaves[done..] {
        sweep.lower_floor(unevaluated.lb);
    }
    Ok(())
}
