//! Distance oracles.
//!
//! The partitioning tree and the neighbor search never look at coordinates or
//! matrix entries directly — they only ask an oracle for distances between
//! index sets (a block at a time: a leaf against itself, a node against its
//! two poles) and for distances to a sampled centroid. `gofmm-core`
//! implements this trait for the two Gram-space distances (kernel and angle)
//! and for the geometric distance; this crate ships a plain Euclidean
//! point-based oracle used for testing and for the geometry-aware reference
//! path.

/// Source of pairwise distances between matrix indices `0..n`.
///
/// All distances must be non-negative and symmetric; they need not satisfy
/// the triangle inequality exactly (the angle distance does not), because they
/// are only ever *compared*, never summed.
pub trait DistanceOracle: Sync {
    /// Number of indices.
    fn len(&self) -> usize;

    /// True when there are no indices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between indices `i` and `j`.
    fn distance(&self, i: usize, j: usize) -> f64;

    /// Every distance between `rows` and `cols` at once, column-major:
    /// `out[c * rows.len() + r] = distance(rows[r], cols[c])`, bit for bit.
    /// The default asks [`Self::distance`] pair by pair; an oracle that can
    /// evaluate a block faster overrides it.
    ///
    /// # Panics
    /// Panics if `out.len() != rows.len() * cols.len()`.
    fn distance_block(&self, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), rows.len() * cols.len(), "distance block shape");
        let m = rows.len();
        for (c, &j) in cols.iter().enumerate() {
            for (r, &i) in rows.iter().enumerate() {
                out[c * m + r] = self.distance(i, j);
            }
        }
    }

    /// Distances from every index in `targets` to the centroid of the sample
    /// set `sample`.
    ///
    /// For point-based oracles the centroid is the coordinate mean; for
    /// Gram-space oracles it is the mean of the (implicit) Gram vectors, which
    /// can be evaluated from matrix entries alone. The default implementation
    /// approximates the centroid distance by the average distance to the
    /// sample points, which is adequate for splitting purposes.
    fn distances_to_centroid(&self, sample: &[usize], targets: &[usize]) -> Vec<f64> {
        targets
            .iter()
            .map(|&t| {
                if sample.is_empty() {
                    0.0
                } else {
                    sample.iter().map(|&s| self.distance(t, s)).sum::<f64>() / sample.len() as f64
                }
            })
            .collect()
    }
}

/// Euclidean distances between points stored row-major (`dim` coordinates per
/// point).
pub struct PointOracle<'a> {
    points: &'a [f64],
    dim: usize,
    n: usize,
}

impl<'a> PointOracle<'a> {
    /// Wrap a flat row-major coordinate buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn new(points: &'a [f64], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
        Self {
            points,
            dim,
            n: points.len() / dim,
        }
    }

    /// Coordinates of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Dimensionality of the points.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl<'a> DistanceOracle for PointOracle<'a> {
    fn len(&self) -> usize {
        self.n
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        let a = self.point(i);
        let b = self.point(j);
        let mut acc = 0.0;
        for d in 0..self.dim {
            let diff = a[d] - b[d];
            acc += diff * diff;
        }
        acc.sqrt()
    }

    fn distances_to_centroid(&self, sample: &[usize], targets: &[usize]) -> Vec<f64> {
        if sample.is_empty() {
            return vec![0.0; targets.len()];
        }
        let mut centroid = vec![0.0; self.dim];
        for &s in sample {
            for (c, v) in centroid.iter_mut().zip(self.point(s)) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= sample.len() as f64;
        }
        targets
            .iter()
            .map(|&t| {
                let p = self.point(t);
                let mut acc = 0.0;
                for d in 0..self.dim {
                    let diff = p[d] - centroid[d];
                    acc += diff * diff;
                }
                acc.sqrt()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_oracle_basic_distances() {
        // Three points on a line: 0, 3, 7.
        let pts = vec![0.0, 3.0, 7.0];
        let o = PointOracle::new(&pts, 1);
        assert_eq!(o.len(), 3);
        assert_eq!(o.distance(0, 1), 3.0);
        assert_eq!(o.distance(1, 2), 4.0);
        assert_eq!(o.distance(0, 2), 7.0);
        assert_eq!(o.distance(2, 0), 7.0);
    }

    #[test]
    fn point_oracle_2d() {
        let pts = vec![0.0, 0.0, 3.0, 4.0];
        let o = PointOracle::new(&pts, 2);
        assert_eq!(o.len(), 2);
        assert!((o.distance(0, 1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_distances_exact_for_points() {
        let pts = vec![0.0, 2.0, 4.0, 10.0];
        let o = PointOracle::new(&pts, 1);
        // centroid of {0, 2} is 1.0
        let d = o.distances_to_centroid(&[0, 1], &[0, 1, 2, 3]);
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
        assert!((d[2] - 3.0).abs() < 1e-12);
        assert!((d[3] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn default_centroid_approximation_reasonable() {
        struct Dummy;
        impl DistanceOracle for Dummy {
            fn len(&self) -> usize {
                4
            }
            fn distance(&self, i: usize, j: usize) -> f64 {
                (i as f64 - j as f64).abs()
            }
        }
        let d = Dummy.distances_to_centroid(&[0, 2], &[3]);
        // average of |3-0| = 3 and |3-2| = 1 is 2
        assert!((d[0] - 2.0).abs() < 1e-12);
        assert!(!Dummy.is_empty());
    }

    #[test]
    #[should_panic]
    fn bad_buffer_length_panics() {
        let pts = vec![1.0, 2.0, 3.0];
        let _ = PointOracle::new(&pts, 2);
    }
}
