//! The memory-access coalescer.
//!
//! A SIMD memory instruction issues up to 32 lane accesses. The hardware
//! coalescer merges lanes that fall on the same cache line into one access
//! (and, for address translation, lanes on the same page into one
//! translation request) before the L1 TLB is looked up (paper §II). Regular
//! workloads coalesce to a single page per instruction; divergent ones (the
//! paper's GUPS, SAD) fan out to several pages — which multiplies their
//! translation demand.

use walksteal_sim_core::Vpn;

/// One coalesced access: a (page, line-within-page) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemRef {
    /// The virtual page accessed.
    pub vpn: Vpn,
    /// The cache line within the page.
    pub line_in_page: u32,
}

/// Merges raw per-lane references into the set of distinct accesses, in
/// first-appearance order (deterministic).
///
/// # Examples
///
/// ```
/// use walksteal_gpu::{coalesce, MemRef};
/// use walksteal_sim_core::Vpn;
///
/// let lanes = [
///     MemRef { vpn: Vpn(1), line_in_page: 0 },
///     MemRef { vpn: Vpn(1), line_in_page: 0 }, // duplicate lane
///     MemRef { vpn: Vpn(1), line_in_page: 1 },
///     MemRef { vpn: Vpn(2), line_in_page: 0 },
/// ];
/// let merged = coalesce(&lanes);
/// assert_eq!(merged.len(), 3);
/// assert_eq!(merged[0], MemRef { vpn: Vpn(1), line_in_page: 0 });
/// ```
#[must_use]
pub fn coalesce(lanes: &[MemRef]) -> Vec<MemRef> {
    let mut out: Vec<MemRef> = Vec::with_capacity(lanes.len().min(8));
    for &lane in lanes {
        if !out.contains(&lane) {
            out.push(lane);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vpn: u64, line: u32) -> MemRef {
        MemRef {
            vpn: Vpn(vpn),
            line_in_page: line,
        }
    }

    #[test]
    fn fully_coalesced_instruction_is_one_access() {
        let lanes = vec![r(5, 3); 32];
        assert_eq!(coalesce(&lanes), vec![r(5, 3)]);
    }

    #[test]
    fn preserves_first_appearance_order() {
        let lanes = [r(2, 0), r(1, 0), r(2, 0), r(1, 1)];
        assert_eq!(coalesce(&lanes), vec![r(2, 0), r(1, 0), r(1, 1)]);
    }

    #[test]
    fn divergent_instruction_fans_out() {
        let lanes: Vec<MemRef> = (0..8).map(|i| r(i, 0)).collect();
        assert_eq!(coalesce(&lanes).len(), 8);
    }

    #[test]
    fn same_page_different_lines_is_one_translation() {
        let lanes = [r(9, 0), r(9, 1), r(9, 2)];
        let merged = coalesce(&lanes);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(|m| m.vpn == Vpn(9)));
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(&[]).is_empty());
    }
}
