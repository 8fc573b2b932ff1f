//! Adaptive (equal-weight) 2D histograms.
//!
//! The paper computes adaptive histograms the way FastBit does: "by first
//! computing a higher-resolution uniformly binned histogram and then merging
//! bins". [`rebin_equal_weight`] implements that merge: given a fine uniform
//! 1D marginal, it produces coarse boundaries such that each coarse bin holds
//! approximately the same number of records. [`AdaptiveHist2D`] couples the
//! per-axis adaptive edges with the resulting 2D counts and enforces an
//! optional minimum bin density used for outlier-preserving renderings.

use crate::edges::BinEdges;
use crate::hist1d::Hist1D;
use crate::hist2d::Hist2D;

/// Derive equal-weight coarse boundaries from a fine uniform histogram.
///
/// The returned edges have at most `target_bins` bins; fewer when the fine
/// histogram concentrates all mass in a handful of fine bins.
pub fn rebin_equal_weight(fine: &Hist1D, target_bins: usize) -> crate::Result<BinEdges> {
    if target_bins == 0 {
        return Err(crate::BinningError::ZeroBins);
    }
    let total = fine.total();
    if total == 0 {
        // Nothing to adapt to: fall back to uniform coarse edges.
        return BinEdges::uniform(fine.edges().lo(), fine.edges().hi(), target_bins);
    }
    let per_bin = (total as f64 / target_bins as f64).max(1.0);
    let mut boundaries = Vec::with_capacity(target_bins + 1);
    boundaries.push(fine.edges().lo());
    let mut acc = 0u64;
    let mut next_quota = per_bin;
    for i in 0..fine.num_bins() {
        acc += fine.count(i);
        if (acc as f64) >= next_quota && boundaries.len() < target_bins {
            let edge = fine.edges().bin_range(i).1;
            if edge > *boundaries.last().expect("non-empty") && edge < fine.edges().hi() {
                boundaries.push(edge);
            }
            next_quota = acc as f64 + per_bin;
        }
    }
    boundaries.push(fine.edges().hi());
    BinEdges::from_boundaries(boundaries)
}

/// An adaptively binned 2D histogram plus the parameters that produced it.
#[derive(Debug, Clone)]
pub struct AdaptiveHist2D {
    hist: Hist2D,
    /// Minimum density below which a bin is considered an outlier bin.
    min_density: Option<f64>,
}

impl AdaptiveHist2D {
    /// Build an adaptive 2D histogram of `(xs, ys)` with approximately
    /// `bins × bins` equal-weight bins, derived by refining through a fine
    /// uniform histogram with `oversample × bins` bins per axis.
    pub fn build(xs: &[f64], ys: &[f64], bins: usize, oversample: usize) -> crate::Result<Self> {
        let fine_bins = bins.max(1) * oversample.max(1);
        let fx = BinEdges::uniform_from_data(xs, fine_bins)?;
        let fy = BinEdges::uniform_from_data(ys, fine_bins)?;
        let fine_x = Hist1D::from_data(fx, xs);
        let fine_y = Hist1D::from_data(fy, ys);
        let ex = rebin_equal_weight(&fine_x, bins)?;
        let ey = rebin_equal_weight(&fine_y, bins)?;
        Ok(Self {
            hist: Hist2D::from_data(ex, ey, xs, ys),
            min_density: None,
        })
    }

    /// Restrict the minimum density: bins sparser than `min_density` are
    /// reported by [`AdaptiveHist2D::outlier_bins`] so a hybrid renderer can
    /// draw their records as individual lines (Novotný & Hauser's
    /// outlier-preserving scheme referenced by the paper).
    pub fn with_min_density(mut self, min_density: f64) -> Self {
        self.min_density = Some(min_density);
        self
    }

    /// The underlying 2D histogram.
    pub fn hist(&self) -> &Hist2D {
        &self.hist
    }

    /// Consume and return the underlying histogram.
    pub fn into_hist(self) -> Hist2D {
        self.hist
    }

    /// Bins whose density falls below the configured threshold.
    pub fn outlier_bins(&self) -> Vec<crate::hist2d::Bin2D> {
        match self.min_density {
            None => Vec::new(),
            Some(t) => self
                .hist
                .iter_non_empty()
                .filter(|b| b.density < t)
                .collect(),
        }
    }

    /// Bins at or above the configured density threshold (all non-empty bins
    /// when no threshold is set), back-to-front ordered for rendering.
    pub fn dense_bins(&self) -> Vec<crate::hist2d::Bin2D> {
        let t = self.min_density.unwrap_or(f64::NEG_INFINITY);
        self.hist
            .bins_back_to_front()
            .into_iter()
            .filter(|b| b.density >= t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_data(n: usize) -> Vec<f64> {
        // Strongly skewed: 90% of mass in [0,1), tail out to 100.
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    (i % 100) as f64
                } else {
                    (i % 97) as f64 / 97.0
                }
            })
            .collect()
    }

    #[test]
    fn rebin_equal_weight_balances_mass() {
        let data = skewed_data(10_000);
        let fine = Hist1D::from_data(BinEdges::uniform_from_data(&data, 1024).unwrap(), &data);
        let coarse_edges = rebin_equal_weight(&fine, 8).unwrap();
        assert!(coarse_edges.num_bins() <= 8);
        assert!(coarse_edges.num_bins() >= 2);
        let coarse = Hist1D::from_data(coarse_edges, &data);
        let total = coarse.total() as f64;
        let ideal = total / coarse.num_bins() as f64;
        for i in 0..coarse.num_bins() {
            // Equal-weight within a generous factor; heavy ties make perfect
            // balance impossible.
            assert!(
                (coarse.count(i) as f64) < ideal * 3.0,
                "bin {i} holds {} records, ideal {ideal}",
                coarse.count(i)
            );
        }
    }

    #[test]
    fn rebin_equal_weight_empty_histogram_falls_back_to_uniform() {
        let fine = Hist1D::new(BinEdges::uniform(0.0, 1.0, 64).unwrap());
        let coarse = rebin_equal_weight(&fine, 4).unwrap();
        assert_eq!(coarse.num_bins(), 4);
        assert!(coarse.is_uniform());
    }

    #[test]
    fn adaptive_hist_preserves_total() {
        let xs = skewed_data(5000);
        let ys: Vec<f64> = xs.iter().map(|v| v * 2.0 + 1.0).collect();
        let a = AdaptiveHist2D::build(&xs, &ys, 16, 8).unwrap();
        assert_eq!(a.hist().total(), 5000);
        let (nx, ny) = a.hist().shape();
        assert!(nx <= 16 && ny <= 16);
    }

    #[test]
    fn adaptive_bins_are_finer_in_dense_regions() {
        let xs = skewed_data(20_000);
        let ys = xs.clone();
        let a = AdaptiveHist2D::build(&xs, &ys, 16, 16).unwrap();
        let e = a.hist().x_edges();
        // The first bin (dense region near 0) must be far narrower than the
        // last bin (sparse tail).
        assert!(
            e.bin_width(0) < e.bin_width(e.num_bins() - 1) / 2.0,
            "adaptive binning should refine the dense region: first={} last={}",
            e.bin_width(0),
            e.bin_width(e.num_bins() - 1)
        );
    }

    #[test]
    fn outlier_bins_split_by_density() {
        let xs = skewed_data(5000);
        let ys = xs.clone();
        let a = AdaptiveHist2D::build(&xs, &ys, 8, 8)
            .unwrap()
            .with_min_density(1.0);
        let outliers = a.outlier_bins();
        let dense = a.dense_bins();
        let total_bins = a.hist().non_empty_count();
        assert_eq!(outliers.len() + dense.len(), total_bins);
        for b in outliers {
            assert!(b.density < 1.0);
        }
        for b in dense {
            assert!(b.density >= 1.0);
        }
    }
}
