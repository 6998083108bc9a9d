//! Memory-controller scheduling policies beyond in-order FIFO.
//!
//! The paper's queuing model treats each bank as a FIFO server, which is
//! what [`crate::controller::MemoryController`] implements. Real GDDR5
//! controllers reorder: **FR-FCFS** (first-ready, first-come-first-served
//! — Rixner et al., the paper's reference \[18\]) prioritizes requests that
//! hit the open row, trading fairness for row-buffer locality. This
//! module provides a batch-scheduling DRAM front end that the simulator
//! (or a curious user) can run in either policy to quantify how much the
//! FIFO assumption costs — one of the design-choice ablations called out
//! in DESIGN.md (`cargo run -p hms-bench --bin sweep_sched`).

use hms_types::DramTimingConfig;

use crate::bank::{AccessKind, BankState};
use crate::mapping::AddressMapping;

/// Scheduling policy for a batch of outstanding requests at one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Serve strictly in arrival order (the paper's queuing-model
    /// assumption).
    Fifo,
    /// First-ready FCFS: among queued requests, serve row-buffer hits
    /// first (in arrival order), then the oldest remaining request.
    FrFcfs,
}

/// Page-management policy after each access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Leave the row open (the default throughout the workspace; what
    /// the paper's Algorithm 1 measures on the K80).
    Open,
    /// Precharge after every access: every access becomes a row miss,
    /// removing both row-buffer hits *and* conflicts.
    Closed,
}

/// One request in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRequest {
    pub addr: u64,
    pub arrival: u64,
}

/// Per-request outcome of a batch schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledAccess {
    /// Index into the input batch.
    pub index: usize,
    pub complete_at: u64,
    pub kind: AccessKind,
}

/// Statistics of one scheduled batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    pub makespan: u64,
    pub total_latency: u64,
    pub hits: u64,
    pub misses: u64,
    pub conflicts: u64,
}

/// Schedule a batch of requests onto the banks of `mapping` under the
/// given policies; returns per-request completions plus aggregate
/// statistics. Arrivals may be in any order (the scheduler sorts).
pub fn schedule_batch(
    requests: &[BatchRequest],
    mapping: &AddressMapping,
    timing: &DramTimingConfig,
    policy: SchedPolicy,
    page: PagePolicy,
) -> (Vec<ScheduledAccess>, ScheduleStats) {
    let nb = mapping.total_banks as usize;
    // Partition by bank, remembering original indices.
    let mut per_bank: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); nb]; // (idx, arrival, row)
    for (i, r) in requests.iter().enumerate() {
        let d = mapping.decode(r.addr);
        per_bank[d.bank as usize].push((i, r.arrival, d.row));
    }

    let mut out = Vec::with_capacity(requests.len());
    let mut stats = ScheduleStats {
        makespan: 0,
        total_latency: 0,
        hits: 0,
        misses: 0,
        conflicts: 0,
    };

    for queue in &mut per_bank {
        if queue.is_empty() {
            continue;
        }
        queue.sort_by_key(|&(_, arrival, _)| arrival);
        let mut bank = BankState::default();
        let mut pending: Vec<(usize, u64, u64)> = queue.clone();
        let mut now = 0u64;
        while !pending.is_empty() {
            // Requests that have arrived by `now` are eligible; if none,
            // jump to the next arrival.
            let earliest = pending.iter().map(|&(_, a, _)| a).min().expect("non-empty");
            now = now.max(earliest);
            let eligible: Vec<usize> = pending
                .iter()
                .enumerate()
                .filter(|(_, &(_, a, _))| a <= now)
                .map(|(qi, _)| qi)
                .collect();
            // Pick per policy.
            let pick = match policy {
                SchedPolicy::Fifo => eligible[0],
                SchedPolicy::FrFcfs => {
                    // Oldest row-buffer hit, else oldest overall.
                    eligible
                        .iter()
                        .copied()
                        .find(|&qi| bank.classify(pending[qi].2) == AccessKind::Hit)
                        .unwrap_or(eligible[0])
                }
            };
            let (idx, arrival, row) = pending.remove(pick);
            let (done, kind, _q) = bank.service(now.max(arrival), row, timing);
            if page == PagePolicy::Closed {
                bank.precharge();
            }
            now = done;
            let complete_at = done + timing.burst_cycles;
            match kind {
                AccessKind::Hit => stats.hits += 1,
                AccessKind::Miss => stats.misses += 1,
                AccessKind::Conflict => stats.conflicts += 1,
            }
            stats.total_latency += complete_at - arrival;
            stats.makespan = stats.makespan.max(complete_at);
            out.push(ScheduledAccess {
                index: idx,
                complete_at,
                kind,
            });
        }
    }
    out.sort_by_key(|a| a.index);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_types::GpuConfig;

    fn setup() -> (AddressMapping, DramTimingConfig) {
        let t = GpuConfig::tesla_k80().dram;
        (AddressMapping::k80_like(t.total_banks()), t)
    }

    /// Two interleaved rows at one bank: FIFO ping-pongs (conflicts),
    /// FR-FCFS groups the same-row requests (hits).
    #[test]
    fn frfcfs_reduces_conflicts_on_interleaved_rows() {
        let (m, t) = setup();
        let row_bit = m.row_bit_positions[0];
        let reqs: Vec<BatchRequest> = (0..16u64)
            .map(|i| BatchRequest {
                addr: (i & 1) << row_bit,
                arrival: 0,
            })
            .collect();
        let (_, fifo) = schedule_batch(&reqs, &m, &t, SchedPolicy::Fifo, PagePolicy::Open);
        let (_, fr) = schedule_batch(&reqs, &m, &t, SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(
            fifo.conflicts > fr.conflicts,
            "{} vs {}",
            fifo.conflicts,
            fr.conflicts
        );
        assert!(fr.makespan < fifo.makespan);
        assert!(fr.hits > fifo.hits);
    }

    #[test]
    fn closed_page_turns_everything_into_misses() {
        let (m, t) = setup();
        let reqs: Vec<BatchRequest> = (0..8u64)
            .map(|i| BatchRequest {
                addr: i * 32,
                arrival: 0,
            })
            .collect();
        let (_, s) = schedule_batch(&reqs, &m, &t, SchedPolicy::Fifo, PagePolicy::Closed);
        assert_eq!(s.hits, 0);
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.misses, 8);
    }

    #[test]
    fn open_page_streaming_hits() {
        let (m, t) = setup();
        let reqs: Vec<BatchRequest> = (0..8u64)
            .map(|i| BatchRequest {
                addr: i * 32,
                arrival: 0,
            })
            .collect();
        let (_, s) = schedule_batch(&reqs, &m, &t, SchedPolicy::Fifo, PagePolicy::Open);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn every_request_is_scheduled_exactly_once() {
        let (m, t) = setup();
        let reqs: Vec<BatchRequest> = (0..64u64)
            .map(|i| BatchRequest {
                addr: i * 7919 % (1 << 28),
                arrival: i * 3,
            })
            .collect();
        for policy in [SchedPolicy::Fifo, SchedPolicy::FrFcfs] {
            let (accesses, s) = schedule_batch(&reqs, &m, &t, policy, PagePolicy::Open);
            assert_eq!(accesses.len(), reqs.len());
            let mut idxs: Vec<usize> = accesses.iter().map(|a| a.index).collect();
            idxs.dedup();
            assert_eq!(idxs.len(), reqs.len());
            assert_eq!(s.hits + s.misses + s.conflicts, reqs.len() as u64);
            // Completions never precede arrivals.
            for a in &accesses {
                assert!(a.complete_at >= reqs[a.index].arrival + t.burst_cycles);
            }
        }
    }

    #[test]
    fn frfcfs_never_slower_than_fifo_per_bank() {
        let (m, t) = setup();
        // Adversarial-ish mixed pattern.
        let reqs: Vec<BatchRequest> = (0..48u64)
            .map(|i| BatchRequest {
                addr: ((i % 3) << m.row_bit_positions[0]) | ((i % 5) * 32),
                arrival: 0,
            })
            .collect();
        let (_, fifo) = schedule_batch(&reqs, &m, &t, SchedPolicy::Fifo, PagePolicy::Open);
        let (_, fr) = schedule_batch(&reqs, &m, &t, SchedPolicy::FrFcfs, PagePolicy::Open);
        assert!(fr.makespan <= fifo.makespan);
    }
}
