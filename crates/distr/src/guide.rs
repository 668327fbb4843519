//! Guide tables: O(1) inverse-transform sampling over CDF grids.
//!
//! Inverse-transform sampling must find the first grid index whose CDF value
//! reaches the uniform draw `p`. A binary search does that in O(log n) per
//! draw; a **guide table** (Chen & Asau 1974, the classic table-lookup
//! accelerator) precomputes, for `G` equal-probability buckets, the first
//! grid index each bucket can start from. A draw then indexes its bucket in
//! O(1) and scans forward — with `G` equal to the grid size, the expected
//! scan length is below one step, so sampling cost is constant regardless of
//! table resolution.
//!
//! The guided lookup returns **exactly** the index the binary search would
//! (the first `i` with `cdf[i] >= p`), so interpolation — and therefore every
//! sampled variate — is bit-identical to the unguided path. The equivalence
//! is enforced by unit tests here and property tests in
//! `tests/properties.rs`.

/// The most grid points a table may have: the guide indexes them with `u32`
/// cuts. Every table constructor refuses more, so every table has a guide.
pub(crate) const MAX_POINTS: usize = u32::MAX as usize;

/// An equal-probability bucket index over a CDF grid.
///
/// `cuts[k]` is the first grid index `i` with `cdf[i] >= k / G`, where `G`
/// is the number of buckets (one per grid point). A guide is a pure
/// function of its grid, so tables holding one compare equal exactly when
/// their grids do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuideTable {
    cuts: Vec<u32>,
}

impl GuideTable {
    /// Builds the guide for a monotone non-decreasing `cdf` grid of 2 to
    /// `u32::MAX` points; any other length gets the empty guide, which no
    /// table holds.
    ///
    /// One bucket per grid point plus a terminal cut, so the guide costs
    /// `4 × (len + 1)` bytes next to the grid's `16 × len`.
    pub fn build(cdf: &[f64]) -> Self {
        if !(2..=MAX_POINTS).contains(&cdf.len()) {
            return Self::default();
        }
        let g = cdf.len();
        let mut cuts = Vec::with_capacity(g + 1);
        let mut i = 0usize;
        for k in 0..=g {
            let p = k as f64 / g as f64;
            while i < g && cdf[i] < p {
                i += 1;
            }
            cuts.push(i.min(g - 1) as u32);
        }
        Self { cuts }
    }

    /// Whether this guide is empty (built from a grid of a length no table
    /// has).
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Number of buckets (0 for the empty guide).
    pub fn len(&self) -> usize {
        self.cuts.len().saturating_sub(1)
    }

    /// Resident bytes of the bucket index.
    pub fn memory_bytes(&self) -> usize {
        self.cuts.len() * std::mem::size_of::<u32>()
    }

    /// First index `i` with `cdf[i] >= p`, via bucket lookup + forward scan.
    ///
    /// Caller must guarantee `cdf[0] < p < cdf[len - 1]` (the interpolation
    /// bracket pre-conditions) and that `cdf` is the grid the guide was
    /// built from.
    #[inline]
    pub(crate) fn first_at_or_above(&self, cdf: &[f64], p: f64) -> usize {
        let g = self.cuts.len() - 1;
        // p < 1 here, so the bucket index is within [0, g).
        let bucket = ((p * g as f64) as usize).min(g - 1);
        let mut i = self.cuts[bucket] as usize;
        // cdf[len - 1] > p bounds the scan.
        while cdf[i] < p {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unguided reference: binary search for the first `i` with
    /// `cdf[i] >= p`.
    fn reference(cdf: &[f64], p: f64) -> usize {
        let (mut lo, mut hi) = (0usize, cdf.len() - 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if cdf[mid] < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    fn check_all_probes(cdf: &[f64]) {
        let guide = GuideTable::build(cdf);
        let last = *cdf.last().unwrap();
        for k in 1..2000 {
            let p = k as f64 / 2000.0;
            if p <= cdf[0] || p >= last {
                continue;
            }
            assert_eq!(
                guide.first_at_or_above(cdf, p),
                reference(cdf, p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn matches_binary_search_on_uniform_grid() {
        let cdf: Vec<f64> = (0..=64).map(|i| i as f64 / 64.0).collect();
        check_all_probes(&cdf);
    }

    #[test]
    fn matches_binary_search_on_skewed_grid() {
        // Exponential-ish CDF: most mass early.
        let cdf: Vec<f64> = (0..=256)
            .map(|i| 1.0 - (-(i as f64) / 20.0).exp())
            .map(|c| c / (1.0 - (-256.0f64 / 20.0).exp()))
            .collect();
        check_all_probes(&cdf);
    }

    #[test]
    fn matches_binary_search_with_plateaus() {
        let cdf = vec![0.0, 0.1, 0.1, 0.1, 0.5, 0.5, 0.9, 1.0];
        check_all_probes(&cdf);
    }

    #[test]
    fn empty_guide_for_degenerate_input() {
        assert!(GuideTable::build(&[1.0]).is_empty());
        assert_eq!(GuideTable::default().len(), 0);
    }

    #[test]
    fn memory_is_linear() {
        let cdf: Vec<f64> = (0..=999).map(|i| i as f64 / 999.0).collect();
        let g = GuideTable::build(&cdf);
        assert_eq!(g.len(), 1000);
        assert_eq!(g.memory_bytes(), 1001 * 4);
    }
}
