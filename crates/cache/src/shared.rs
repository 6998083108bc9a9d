//! Shared-memory bank-conflict model.
//!
//! Kepler shared memory is organized as 32 banks of 4-byte words; a warp
//! access completes in one pass unless two lanes address *different
//! words in the same bank*, in which case the hardware serializes the
//! access into multiple passes. "Bank conflict in load/store for shared
//! memory" is instruction-replay cause (4) in the paper: each extra pass
//! is one replay.

/// Lane counts up to this size are bank-sorted in a stack buffer; only
/// wider (non-warp) inputs touch the heap.
const STACK_LANES: usize = 64;

/// Number of serialized passes a warp's shared-memory access needs, given
/// the active lanes' byte addresses and the bank count.
///
/// Lanes reading the *same* word broadcast for free; lanes reading
/// different words in the same bank conflict. The passes are the largest
/// number of distinct words any one bank holds: the lanes' `(bank, word)`
/// pairs are sorted so each bank's words sit in one run, duplicates
/// adjacent, and the longest run of distinct words is counted. Up to
/// 64 lanes the sort runs in a stack buffer, so a warp access never
/// allocates; lanes that all sit on different banks skip the sort.
pub fn shared_conflict_passes(lane_addrs: &[u64], banks: u32) -> u32 {
    if lane_addrs.is_empty() {
        return 0;
    }
    let banks = u64::from(banks.max(1));
    // A mask instead of a division for the usual power-of-two bank count.
    let bank_of = |word: u64| {
        if banks.is_power_of_two() {
            word & (banks - 1)
        } else {
            word % banks
        }
    };
    // Fast path: every lane on its own bank is one pass, no sort needed
    // (the common conflict-free stride-1 access, staging copies included).
    if banks <= 64 {
        let mut seen = 0u64;
        let distinct_banks = lane_addrs.iter().all(|&a| {
            let bit = 1u64 << bank_of(a / 4);
            let fresh = seen & bit == 0;
            seen |= bit;
            fresh
        });
        if distinct_banks {
            return 1;
        }
    }
    let mut stack = [(0u64, 0u64); STACK_LANES];
    let mut heap = Vec::new();
    let keys: &mut [(u64, u64)] = if lane_addrs.len() <= STACK_LANES {
        &mut stack[..lane_addrs.len()]
    } else {
        heap.resize(lane_addrs.len(), (0, 0));
        &mut heap
    };
    for (k, &a) in keys.iter_mut().zip(lane_addrs) {
        let word = a / 4;
        *k = (bank_of(word), word);
    }
    keys.sort_unstable();
    let (mut passes, mut run) = (1u32, 1u32);
    for pair in keys.windows(2) {
        if pair[1] == pair[0] {
            continue;
        }
        run = if pair[1].0 == pair[0].0 { run + 1 } else { 1 };
        passes = passes.max(run);
    }
    passes
}

/// Running per-SM shared-memory statistics.
#[derive(Debug, Clone, Default)]
pub struct SharedMemBanks {
    pub banks: u32,
    warp_accesses: u64,
    conflicts: u64,
}

impl SharedMemBanks {
    pub fn new(banks: u32) -> Self {
        SharedMemBanks {
            banks,
            warp_accesses: 0,
            conflicts: 0,
        }
    }

    /// Account one warp access; returns the replay count (`passes - 1`).
    pub fn access_warp(&mut self, lane_addrs: &[u64]) -> u32 {
        if lane_addrs.is_empty() {
            return 0;
        }
        self.warp_accesses += 1;
        let replays = shared_conflict_passes(lane_addrs, self.banks) - 1;
        self.conflicts += u64::from(replays);
        replays
    }

    /// Total bank-conflict replays.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    pub fn warp_accesses(&self) -> u64 {
        self.warp_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_words_are_conflict_free() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 1);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![64u64; 32];
        assert_eq!(shared_conflict_passes(&addrs, 32), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        // Stride-2 word access: lanes 0 and 16 share bank 0, etc.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 2 * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 2);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        // All 32 lanes hit bank 0 with distinct words: 32 passes.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32 * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 32);
    }

    #[test]
    fn wider_than_stack_buffer_counts_every_lane() {
        // 96 lanes on one bank: past the stack buffer, onto the heap.
        let addrs: Vec<u64> = (0..96u64).map(|i| i * 32 * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 96);
    }

    #[test]
    fn stats_accumulate_replays() {
        let mut s = SharedMemBanks::new(32);
        let conflict_free: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        let stride2: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        assert_eq!(s.access_warp(&conflict_free), 0);
        assert_eq!(s.access_warp(&stride2), 1);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.warp_accesses(), 2);
    }

    #[test]
    fn empty_access_is_noop() {
        let mut s = SharedMemBanks::new(32);
        assert_eq!(s.access_warp(&[]), 0);
        assert_eq!(s.warp_accesses(), 0);
        assert_eq!(shared_conflict_passes(&[], 32), 0);
    }
}
