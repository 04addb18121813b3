//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Classical (Torgerson) multidimensional scaling needs the top eigenpairs of
//! the double-centered squared-dissimilarity matrix. For the matrix sizes in
//! this workspace (n <= a few hundred) the cyclic Jacobi method is simple,
//! numerically robust, and plenty fast.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition: `A = V diag(values) V^T`.
///
/// Eigenpairs are sorted by descending eigenvalue; `vectors` holds the
/// eigenvectors as columns, in the same order.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as matrix columns, matching `values`.
    pub vectors: Matrix,
}

/// Decompose a symmetric matrix with the cyclic Jacobi method.
///
/// Sweeps rotate away off-diagonal mass until the off-diagonal Frobenius norm
/// falls below `tol` times the initial norm (or `max_sweeps` is reached —
/// which for symmetric input essentially never happens before convergence).
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] for a non-square input and
/// [`LinalgError::NonFinite`] when the input contains NaN or infinite
/// entries (the rotations would silently spread them everywhere).
pub fn jacobi_eigen(a: &Matrix, tol: f64, max_sweeps: usize) -> Result<Eigen, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            context: "jacobi_eigen",
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if a.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite { context: "jacobi_eigen" });
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    let off = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        (2.0 * s).sqrt()
    };

    let initial_off = off(&m).max(f64::MIN_POSITIVE);
    for _ in 0..max_sweeps {
        if off(&m) <= tol * initial_off {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Standard Jacobi rotation angle selection.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation to rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Extract and sort descending. Rotations of huge entries can still
    // overflow to NaN, which `total_cmp` orders instead of panicking;
    // adding 0.0 makes -0.0 and +0.0 tie, so equal eigenvalues keep their
    // (stable) order.
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|i| (m[(i, i)], v.col(i))).collect();
    pairs.sort_by(|a, b| (b.0 + 0.0).total_cmp(&(a.0 + 0.0)));

    let values: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (j, (_, col)) in pairs.iter().enumerate() {
        for i in 0..n {
            vectors[(i, j)] = col[i];
        }
    }
    Ok(Eigen { values, vectors })
}

impl Eigen {
    /// Reconstruct `V diag(values) V^T` (useful for testing).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = self.values[i];
        }
        let vt = self.vectors.transpose();
        self.vectors.matmul(&d).matmul(&vt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = jacobi_eigen(&m, 1e-12, 50).unwrap();
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 2.0, 1e-10);
        assert_close(e.values[2], 1.0, 1e-10);
    }

    #[test]
    fn two_by_two_known_eigenpairs() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = jacobi_eigen(&m, 1e-14, 50).unwrap();
        assert_close(e.values[0], 3.0, 1e-10);
        assert_close(e.values[1], 1.0, 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.vectors.col(0);
        assert_close(v0[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-8);
        assert_close(v0[0], v0[1], 1e-8);
    }

    #[test]
    fn reconstruction_matches_original() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.0],
            vec![-2.0, 0.0, 3.0],
        ]);
        let e = jacobi_eigen(&m, 1e-14, 100).unwrap();
        let r = e.reconstruct();
        assert!(m.max_abs_diff(&r) < 1e-9, "reconstruction error too large");
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0, 0.0],
            vec![2.0, 4.0, 0.5, 0.1],
            vec![1.0, 0.5, 3.0, 0.2],
            vec![0.0, 0.1, 0.2, 1.0],
        ]);
        let e = jacobi_eigen(&m, 1e-14, 100).unwrap();
        let vt = e.vectors.transpose();
        let g = vt.matmul(&e.vectors);
        assert!(g.max_abs_diff(&Matrix::identity(4)) < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.3, 0.2],
            vec![0.3, 2.0, -0.4],
            vec![0.2, -0.4, -1.0],
        ]);
        let e = jacobi_eigen(&m, 1e-14, 100).unwrap();
        let trace = m[(0, 0)] + m[(1, 1)] + m[(2, 2)];
        let sum: f64 = e.values.iter().sum();
        assert_close(trace, sum, 1e-10);
    }

    #[test]
    fn handles_one_by_one() {
        let m = Matrix::from_rows(&[vec![7.5]]);
        let e = jacobi_eigen(&m, 1e-12, 10).unwrap();
        assert_eq!(e.values, vec![7.5]);
    }

    #[test]
    fn non_square_is_an_error() {
        let m = Matrix::zeros(2, 3);
        let err = jacobi_eigen(&m, 1e-12, 10).unwrap_err();
        assert!(matches!(err, LinalgError::NotSquare { rows: 2, cols: 3, .. }));
    }

    #[test]
    fn nan_input_is_an_error() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![f64::NAN, 1.0]]);
        let err = jacobi_eigen(&m, 1e-12, 10).unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite { .. }));
    }

    #[test]
    fn infinite_input_is_an_error() {
        let m = Matrix::from_rows(&[vec![1.0, f64::INFINITY], vec![f64::INFINITY, 1.0]]);
        assert!(jacobi_eigen(&m, 1e-12, 10).is_err());
    }

    #[test]
    fn extreme_finite_input_never_panics() {
        let big = f64::MAX;
        let m = Matrix::from_rows(&[
            vec![big, 1e150, 0.0],
            vec![1e150, big, 1e150],
            vec![0.0, 1e150, -big],
        ]);
        let e = jacobi_eigen(&m, 1e-12, 50).unwrap();
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]), "{:?}", e.values);
    }

    #[test]
    fn signed_zero_eigenvalues_keep_their_order() {
        // Diagonal input: no rotations, eigenvalues -0.0 then +0.0. They
        // tie, so the stable sort keeps the identity eigenvectors in place.
        let m = Matrix::from_rows(&[vec![-0.0, 0.0], vec![0.0, 0.0]]);
        let e = jacobi_eigen(&m, 1e-12, 10).unwrap();
        assert_eq!(e.values[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(e.values[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(e.vectors.as_slice(), Matrix::identity(2).as_slice());
    }
}
