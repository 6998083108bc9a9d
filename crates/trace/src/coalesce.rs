//! Warp-level memory coalescing.
//!
//! "When analyzing a specific load or store instruction, we count the
//! total number of words for all threads in a warp, and then divide the
//! number by memory transaction size. Then, we use the result minus 1 as
//! the number of replayed instructions." (paper Section III-B, replay
//! cause (1): global memory address divergence.)
//!
//! We coalesce by unique transaction-aligned segments — equivalent to the
//! paper's word count for dense accesses and strictly more accurate for
//! scattered ones.

/// Result of coalescing one warp access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Base addresses of the distinct transactions, ascending.
    pub transactions: Vec<u64>,
    /// Address-divergence instruction replays: `transactions - 1`.
    pub replays: u32,
}

/// Coalesce the active lanes' byte addresses into `transaction_bytes`-wide
/// transactions. Each lane touches `elem_bytes` bytes, so an element
/// straddling a transaction boundary produces both transactions.
pub fn coalesce(
    lane_addrs: impl IntoIterator<Item = u64>,
    elem_bytes: u64,
    transaction_bytes: u64,
) -> CoalesceResult {
    let mut transactions = Vec::with_capacity(32);
    let replays = coalesce_into(lane_addrs, elem_bytes, transaction_bytes, &mut transactions);
    CoalesceResult {
        transactions,
        replays,
    }
}

/// Allocation-free [`coalesce`]: the ascending transaction base
/// addresses land in the caller's `out` buffer (cleared first) and the
/// address-divergence replays are returned. The analysis walk and the
/// simulator coalesce every global and local access through this with a
/// buffer they own.
pub fn coalesce_into(
    lane_addrs: impl IntoIterator<Item = u64>,
    elem_bytes: u64,
    transaction_bytes: u64,
    out: &mut Vec<u64>,
) -> u32 {
    debug_assert!(transaction_bytes.is_power_of_two());
    // A shift instead of a division for a power-of-two transaction size.
    let shift = transaction_bytes.trailing_zeros();
    let segment = |a: u64| {
        if transaction_bytes.is_power_of_two() {
            a >> shift
        } else {
            a / transaction_bytes
        }
    };
    out.clear();
    for a in lane_addrs {
        // Lanes usually ascend, so skipping a repeat of the last
        // segment keeps the sort below to the distinct segments.
        let (mut t, last) = (segment(a), segment(a + elem_bytes - 1));
        loop {
            if out.last() != Some(&t) {
                out.push(t);
            }
            if t == last {
                break;
            }
            t += 1;
        }
    }
    out.sort_unstable();
    out.dedup();
    for t in out.iter_mut() {
        *t *= transaction_bytes;
    }
    out.len().saturating_sub(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        // 32 lanes x 4 bytes, contiguous and aligned = one 128-byte
        // transaction, zero replays.
        let addrs = (0..32u64).map(|i| i * 4);
        let r = coalesce(addrs, 4, 128);
        assert_eq!(r.transactions, vec![0]);
        assert_eq!(r.replays, 0);
    }

    #[test]
    fn double_precision_warp_needs_two_transactions() {
        let addrs = (0..32u64).map(|i| i * 8);
        let r = coalesce(addrs, 8, 128);
        assert_eq!(r.transactions.len(), 2);
        assert_eq!(r.replays, 1);
    }

    #[test]
    fn strided_access_diverges() {
        // Stride-32 floats: every lane its own transaction.
        let addrs = (0..32u64).map(|i| i * 32 * 4);
        let r = coalesce(addrs, 4, 128);
        assert_eq!(r.transactions.len(), 32);
        assert_eq!(r.replays, 31);
    }

    #[test]
    fn unaligned_warp_spills_into_extra_transaction() {
        // Offset by one element: touches bytes 4..132 -> 2 transactions.
        let addrs = (0..32u64).map(|i| 4 + i * 4);
        let r = coalesce(addrs, 4, 128);
        assert_eq!(r.transactions, vec![0, 128]);
        assert_eq!(r.replays, 1);
    }

    #[test]
    fn element_straddling_boundary_counts_both() {
        let r = coalesce([124u64], 8, 128);
        assert_eq!(r.transactions, vec![0, 128]);
    }

    #[test]
    fn duplicate_addresses_coalesce_fully() {
        let r = coalesce(std::iter::repeat_n(64u64, 32), 4, 128);
        assert_eq!(r.transactions, vec![0]);
        assert_eq!(r.replays, 0);
    }

    #[test]
    fn empty_access_is_empty() {
        let r = coalesce(std::iter::empty(), 4, 128);
        assert!(r.transactions.is_empty());
        assert_eq!(r.replays, 0);
    }
}
