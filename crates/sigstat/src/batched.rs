//! Batched Mahalanobis scoring across many Gaussians at once.
//!
//! The per-cluster hot path computes `d_c(x) = ‖L_c⁻¹ (x − μ_c)‖` with one
//! triangular solve per cluster. For a detector that scores every incoming
//! frame against *all* `K` clusters, the same result is obtained with a
//! single dense product: precompute the explicit inverse factors
//! `W_c = L_c⁻¹` once per model version, stack them into one `(K·d) × d`
//! matrix `M`, and precompute the offsets `v_c = W_c μ_c`. Then
//!
//! ```text
//! y = M x            (one matrix–vector product per frame)
//! d_c² = ‖y_c − v_c‖²  (the c-th length-d slice of y)
//! ```
//!
//! and a batch of `B` frames needs one matrix–matrix product `M X` with
//! `X ∈ ℝ^{d×B}`. The factorization cost is paid once and reused across
//! frames until an online model update invalidates it.

use crate::matrix::dot;
use crate::{Gaussian, Matrix, SampleBatch, SigStatError};

/// Precomputed stacked-inverse-factor state for scoring one observation
/// against `K` Gaussians in a single dense product.
///
/// Build it from the model's cluster Gaussians with
/// [`BatchedMahalanobis::from_gaussians`]; rebuild after any covariance
/// changes (the factors are snapshots).
///
/// # Example
///
/// ```
/// use vprofile_sigstat::{BatchedMahalanobis, Gaussian, Matrix};
///
/// # fn main() -> Result<(), vprofile_sigstat::SigStatError> {
/// let a = Gaussian::from_moments(vec![0.0, 0.0], Matrix::identity(2), 10)?;
/// let b = Gaussian::from_moments(vec![4.0, 0.0], Matrix::identity(2), 10)?;
/// let batched = BatchedMahalanobis::from_gaussians(&[&a, &b])?;
/// let d = batched.distances(&[1.0, 0.0])?;
/// assert!((d[0] - 1.0).abs() < 1e-12);
/// assert!((d[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedMahalanobis {
    /// Stacked inverse factors: rows `c·d .. (c+1)·d` hold `W_c = L_c⁻¹`.
    stacked: Matrix,
    /// Stacked offsets `v_c = W_c μ_c`, matching `stacked`'s row layout.
    offsets: Vec<f64>,
    dim: usize,
    clusters: usize,
}

impl BatchedMahalanobis {
    /// Builds the stacked kernel from per-cluster Gaussians.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] for an empty cluster list and
    /// [`SigStatError::DimensionMismatch`] if the Gaussians disagree on
    /// dimensionality.
    pub fn from_gaussians(gaussians: &[&Gaussian]) -> Result<Self, SigStatError> {
        let Some(first) = gaussians.first() else {
            return Err(SigStatError::EmptyInput {
                context: "BatchedMahalanobis::from_gaussians",
            });
        };
        let dim = first.dim();
        let clusters = gaussians.len();
        let mut stacked = Matrix::zeros(clusters * dim, dim);
        let mut offsets = Vec::with_capacity(clusters * dim);
        for (c, g) in gaussians.iter().enumerate() {
            if g.dim() != dim {
                return Err(SigStatError::DimensionMismatch {
                    expected: dim,
                    actual: g.dim(),
                    context: "BatchedMahalanobis::from_gaussians",
                });
            }
            let w = g.cholesky().inverse_factor()?;
            for i in 0..dim {
                for j in 0..dim {
                    stacked[(c * dim + i, j)] = w[(i, j)];
                }
            }
            offsets.extend(w.mul_vec(g.mean())?);
        }
        Ok(BatchedMahalanobis {
            stacked,
            offsets,
            dim,
            clusters,
        })
    }

    /// Dimensionality of the scored observations.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stacked clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Mahalanobis distances from `x` to every cluster, appended to `out`
    /// (cleared first) — one matrix–vector product total.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    // xtask: hot-path
    pub fn distances_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), SigStatError> {
        if x.len() != self.dim {
            return Err(SigStatError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
                context: "BatchedMahalanobis::distances_into",
            });
        }
        out.clear();
        out.reserve(self.clusters);
        self.score_row(x, out);
        Ok(())
    }

    /// The per-frame kernel: every stacked row is one contiguous 4-wide
    /// [`dot`] with `x`, the residual against the precomputed offset is
    /// squared and accumulated per cluster. No intermediate `y` buffer —
    /// the product row is consumed as it is produced, so the hot path
    /// never touches the allocator. Each `W_c = L_c⁻¹` is lower
    /// triangular, so row `i` carries only `i + 1` non-zeros and the dot
    /// is truncated accordingly (half the flops of the dense product).
    fn score_row(&self, x: &[f64], out: &mut Vec<f64>) {
        let stacked = self.stacked.as_slice();
        for c in 0..self.clusters {
            let base = c * self.dim;
            let mut q = 0.0;
            for i in 0..self.dim {
                let start = (base + i) * self.dim;
                // xtask: allow(hot-path-panic): offsets holds clusters*dim entries by construction; the innermost kernel keeps bounds checks hoisted
                let r = dot(&stacked[start..start + i + 1], &x[..=i]) - self.offsets[base + i];
                q = r.mul_add(r, q);
            }
            debug_assert!(
                q >= 0.0 || q.is_nan(),
                "squared distance is a sum of squares and cannot be negative"
            );
            out.push(q.sqrt());
        }
    }

    /// Mahalanobis distances from `x` to every cluster.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn distances(&self, x: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut out = Vec::new();
        self.distances_into(x, &mut out)?;
        Ok(out)
    }

    /// Distances for a whole flat batch of frames: row `b` of the returned
    /// [`SampleBatch`] holds the per-cluster distances for row `b` of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `xs.dim() != self.dim()`.
    pub fn distances_batch(&self, xs: &SampleBatch) -> Result<SampleBatch, SigStatError> {
        let mut out = SampleBatch::with_capacity(self.clusters, xs.rows());
        self.distances_batch_into(xs, &mut out)?;
        Ok(out)
    }

    /// [`BatchedMahalanobis::distances_batch`] into a reusable output batch
    /// (cleared first), so batched scoring is allocation-free once both
    /// buffers are warm. The batch kernel streams each frame row through
    /// `BatchedMahalanobis::score_row`: the stacked factor matrix (tens
    /// of KiB) stays cache-resident while frame rows stream past it, which
    /// is the same access pattern a blocked `M · Xᵀ` product would produce
    /// without ever materializing `Xᵀ` or the `(K·d) × B` intermediate.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `xs.dim() != self.dim()`
    /// or `out.dim() != self.cluster_count()`.
    pub fn distances_batch_into(
        &self,
        xs: &SampleBatch,
        out: &mut SampleBatch,
    ) -> Result<(), SigStatError> {
        if xs.dim() != self.dim {
            return Err(SigStatError::DimensionMismatch {
                expected: self.dim,
                actual: xs.dim(),
                context: "BatchedMahalanobis::distances_batch",
            });
        }
        if out.dim() != self.clusters {
            return Err(SigStatError::DimensionMismatch {
                expected: self.clusters,
                actual: out.dim(),
                context: "BatchedMahalanobis::distances_batch",
            });
        }
        out.clear();
        let mut row = Vec::with_capacity(self.clusters);
        for x in xs.iter_rows() {
            row.clear();
            self.score_row(x, &mut row);
            out.push_row(&row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CovarianceEstimate;

    fn gaussian(center: f64, spread: f64) -> Gaussian {
        let obs: Vec<Vec<f64>> = (0..12)
            .map(|k| {
                let t = k as f64;
                vec![
                    center + spread * (t * 0.7).sin(),
                    center * 0.5 + spread * (t * 1.3).cos(),
                    center - spread * (t * 0.4).sin(),
                ]
            })
            .collect();
        let est = CovarianceEstimate::fit(&obs, 1e-6).unwrap();
        Gaussian::from_estimate(est).unwrap()
    }

    #[test]
    fn matches_per_cluster_solves() {
        let a = gaussian(10.0, 1.0);
        let b = gaussian(-4.0, 2.0);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let x = [9.5, 4.0, 11.0];
        let d = batched.distances(&x).unwrap();
        assert!((d[0] - a.mahalanobis(&x).unwrap()).abs() < 1e-9);
        assert!((d[1] - b.mahalanobis(&x).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn batch_product_matches_single_frames() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let xs = SampleBatch::from_nested(&[
            vec![3.0, 1.5, 3.0],
            vec![7.0, 3.5, 7.0],
            vec![0.0, 0.0, 0.0],
        ])
        .unwrap();
        let many = batched.distances_batch(&xs).unwrap();
        assert_eq!(many.rows(), 3);
        assert_eq!(many.dim(), 2);
        for (x, row) in xs.iter_rows().zip(many.iter_rows()) {
            let single = batched.distances(x).unwrap();
            for (m, s) in row.iter().zip(&single) {
                assert!((m - s).abs() < 1e-12, "batch {m} vs single {s}");
            }
        }
    }

    #[test]
    fn batch_into_reuse_is_bit_identical() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let xs = SampleBatch::from_nested(&[vec![3.0, 1.5, 3.0], vec![7.0, 3.5, 7.0]]).unwrap();
        let fresh = batched.distances_batch(&xs).unwrap();
        let mut reused = SampleBatch::new(2);
        batched.distances_batch_into(&xs, &mut reused).unwrap();
        // Dirty and repeat: the reused buffer must produce the same bits.
        batched
            .distances_batch_into(
                &SampleBatch::from_nested(&[vec![0.0; 3]]).unwrap(),
                &mut reused,
            )
            .unwrap();
        batched.distances_batch_into(&xs, &mut reused).unwrap();
        for (f, r) in fresh.as_slice().iter().zip(reused.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn nested_round_trip_matches_flat_batch() {
        let a = gaussian(3.0, 0.5);
        let b = gaussian(7.0, 1.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a, &b]).unwrap();
        let nested = vec![vec![3.0, 1.5, 3.0], vec![7.0, 3.5, 7.0]];
        let flat = batched
            .distances_batch(&SampleBatch::from_nested(&nested).unwrap())
            .unwrap();
        // from_nested/to_nested round-trips the row layout the legacy
        // nested API exposed.
        let via_nested = flat.to_nested();
        for (row, want) in via_nested.iter().zip(flat.iter_rows()) {
            assert_eq!(row.as_slice(), want);
        }
    }

    #[test]
    fn rejects_dimension_mismatches() {
        let a = gaussian(1.0, 0.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a]).unwrap();
        assert!(batched.distances(&[1.0]).is_err());
        assert!(SampleBatch::from_nested(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        let bad = SampleBatch::from_nested(&[vec![1.0]]).unwrap();
        assert!(batched.distances_batch(&bad).is_err());
        let mut wrong_out = SampleBatch::new(3);
        let ok_in = SampleBatch::new(batched.dim());
        assert!(batched
            .distances_batch_into(&ok_in, &mut wrong_out)
            .is_err());
        let short = Gaussian::from_moments(vec![0.0; 2], Matrix::identity(2), 3).unwrap();
        assert!(BatchedMahalanobis::from_gaussians(&[&a, &short]).is_err());
    }

    #[test]
    fn rejects_empty_cluster_list() {
        assert!(matches!(
            BatchedMahalanobis::from_gaussians(&[]).unwrap_err(),
            SigStatError::EmptyInput { .. }
        ));
    }

    #[test]
    fn empty_batch_is_fine() {
        let a = gaussian(1.0, 0.5);
        let batched = BatchedMahalanobis::from_gaussians(&[&a]).unwrap();
        let empty = SampleBatch::new(batched.dim());
        assert!(batched.distances_batch(&empty).unwrap().is_empty());
    }
}
