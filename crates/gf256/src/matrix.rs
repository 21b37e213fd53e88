//! Dense matrices over GF(2^8): Gaussian inversion and the Cauchy
//! constructor that builds the erasure-coding matrix (Eq. 1 of the paper).

use core::fmt;

use crate::field::Gf;

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf::ONE);
        }
        m
    }

    /// Builds a matrix from a row-major byte slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: &[u8]) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// `rows × cols` Cauchy matrix: `a[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + cols` and `y_j = j`.
    ///
    /// Every square block of a Cauchy matrix is invertible, which is the MDS
    /// property required of the parity-generation matrix.
    ///
    /// # Panics
    /// Panics if `rows + cols > 256` (the element sets must stay disjoint
    /// within the field).
    pub fn cauchy(rows: usize, cols: usize) -> Matrix {
        assert!(
            rows + cols <= 256,
            "cauchy: rows + cols must fit in the field"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let xi = Gf((i + cols) as u8);
            for j in 0..cols {
                let yj = Gf(j as u8);
                let denom = xi + yj;
                m.set(i, j, denom.inverse().expect("x_i and y_j are disjoint"));
            }
        }
        m
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        Gf(self.data[r * self.cols + c])
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Gf) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v.0;
    }

    /// Borrow of row `r` as raw bytes (the coefficient row used by slice
    /// kernels during encoding).
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "matrix row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs` (the inversion tests' check).
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    #[cfg(test)]
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix shape mismatch in mul");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * rhs.get(l, j));
                }
            }
        }
        out
    }

    /// New matrix made of the given rows of `self`, in order.
    ///
    /// # Panics
    /// Panics if `rows` is empty or any index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        assert!(!rows.is_empty(), "select_rows: empty selection");
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "select_rows: row {r} out of bounds");
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(r));
        }
        out
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Gauss-Jordan inverse. Returns `None` if the matrix is singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn inverted(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero())?;
            a.swap_rows(col, pivot);
            inv.swap_rows(col, pivot);
            // Normalise the pivot row.
            let scale = a.get(col, col).inverse().expect("pivot is non-zero");
            for c in 0..n {
                a.set(col, c, a.get(col, c) * scale);
                inv.set(col, c, inv.get(col, c) * scale);
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor.is_zero() {
                    continue;
                }
                for c in 0..n {
                    let va = a.get(r, c) + factor * a.get(col, c);
                    a.set(r, c, va);
                    let vi = inv.get(r, c) + factor * inv.get(col, c);
                    inv.set(r, c, vi);
                }
            }
        }
        Some(inv)
    }

    /// Whether this is the identity matrix (the inversion tests' check).
    #[cfg(test)]
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let want = if r == c { Gf::ONE } else { Gf::ZERO };
                if self.get(r, c) != want {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:02x} ", self.get(r, c).0)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let i = Matrix::identity(5);
        assert!(i.is_identity());
        let m = Matrix::cauchy(5, 5);
        assert_eq!(i.mul(&m), m);
        assert_eq!(m.mul(&i), m);
    }

    #[test]
    fn cauchy_square_blocks_invert() {
        for n in 1..=8 {
            let m = Matrix::cauchy(n, n);
            let inv = m.inverted().expect("cauchy must invert");
            assert!(m.mul(&inv).is_identity(), "n = {n}");
            assert!(inv.mul(&m).is_identity(), "n = {n}");
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        // Two identical rows.
        let m = Matrix::from_rows(2, 2, &[1, 2, 1, 2]);
        assert!(m.inverted().is_none());
    }

    #[test]
    fn cauchy_parity_is_mds_for_paper_codes() {
        for (k, m) in [(6usize, 2usize), (6, 3), (6, 4), (12, 2), (12, 3), (12, 4)] {
            let b = Matrix::cauchy(m, k);
            let mut full = Matrix::zero(k + m, k);
            for i in 0..k {
                full.set(i, i, Gf::ONE);
            }
            for i in 0..m {
                for j in 0..k {
                    full.set(k + i, j, b.get(i, j));
                }
            }
            // Check a structured sample of k-subsets (exhaustive for small m).
            let idx: Vec<usize> = (0..k + m).collect();
            for combo in combinations(&idx, k).into_iter().take(5000) {
                let sub = full.select_rows(&combo);
                assert!(
                    sub.inverted().is_some(),
                    "rows {combo:?} singular for Cauchy RS({k},{m})"
                );
            }
        }
    }

    #[test]
    fn select_rows_keeps_the_given_order() {
        let m = Matrix::cauchy(4, 3);
        let sel = m.select_rows(&[3, 0]);
        assert_eq!(sel.row(0), m.row(3));
        assert_eq!(sel.row(1), m.row(0));
    }

    #[test]
    fn swap_rows_in_place() {
        let mut m = Matrix::from_rows(2, 2, &[1, 2, 3, 4]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3, 4]);
        assert_eq!(m.row(1), &[1, 2]);
    }

    proptest::proptest! {
        #[test]
        fn random_invertible_matrices_roundtrip(
            n in 1usize..9,
            seed in proptest::collection::vec(proptest::prelude::any::<u8>(), 81),
        ) {
            let data: Vec<u8> = seed.into_iter().take(n * n).collect();
            let m = Matrix::from_rows(n, n, &data);
            if let Some(inv) = m.inverted() {
                proptest::prop_assert!(m.mul(&inv).is_identity());
                proptest::prop_assert!(inv.mul(&m).is_identity());
            }
        }

        #[test]
        fn matrix_mul_associates(
            a_data in proptest::collection::vec(proptest::prelude::any::<u8>(), 9),
            b_data in proptest::collection::vec(proptest::prelude::any::<u8>(), 9),
            c_data in proptest::collection::vec(proptest::prelude::any::<u8>(), 9),
        ) {
            let a = Matrix::from_rows(3, 3, &a_data);
            let b = Matrix::from_rows(3, 3, &b_data);
            let c = Matrix::from_rows(3, 3, &c_data);
            proptest::prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }
    }

    /// All k-combinations of `items` (small inputs only; test helper).
    fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![vec![]];
        }
        if items.len() < k {
            return vec![];
        }
        let mut out = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            for mut rest in combinations(&items[i + 1..], k - 1) {
                rest.insert(0, first);
                out.push(rest);
            }
        }
        out
    }
}
