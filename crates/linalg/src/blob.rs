//! Storage-tier codecs for dense matrices and scalar slices.
//!
//! Implements [`gofmm_store::Blob`] for [`DenseMatrix`] so packed interaction
//! panels and factor blocks can be spilled to a `FilePanelStore` and faulted
//! back bit-identically. Scalars are written by IEEE bit pattern (`f32` as a
//! little-endian `u32`, `f64` as a `u64`), with the scalar width recorded in
//! the blob header so an `f32` store can never be decoded as `f64` silently.
//! Every decoder checks a length against the bytes actually present before
//! it allocates for it, so a hostile length fails with
//! [`StoreError::Corrupt`] rather than an allocation.

use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::ulv::WyRotation;
use gofmm_store::{Blob, ByteReader, ByteWriter, StoreError};

/// Append `vals` to `out` by IEEE bit pattern (no length prefix; callers
/// record dimensions separately). Exact for both supported widths: an `f32`
/// round-trips through `to_f64` unchanged.
pub fn encode_scalar_slice<T: Scalar>(out: &mut Vec<u8>, vals: &[T]) {
    let mut w = ByteWriter::new(out);
    if std::mem::size_of::<T>() == 4 {
        for &x in vals {
            w.u32((x.to_f64() as f32).to_bits());
        }
    } else {
        for &x in vals {
            w.u64(x.to_f64().to_bits());
        }
    }
}

/// Read `count` scalars written by [`encode_scalar_slice`]; a `count` the
/// remaining bytes cannot hold is [`StoreError::Corrupt`], before anything
/// is allocated.
pub fn decode_scalar_vec<T: Scalar>(
    r: &mut ByteReader<'_>,
    count: usize,
) -> Result<Vec<T>, StoreError> {
    let fits = count
        .checked_mul(std::mem::size_of::<T>())
        .is_some_and(|bytes| bytes <= r.remaining());
    if !fits {
        return Err(StoreError::Corrupt(format!(
            "{count} scalars claimed, {} bytes left",
            r.remaining()
        )));
    }
    let mut vals = Vec::with_capacity(count);
    if std::mem::size_of::<T>() == 4 {
        for _ in 0..count {
            vals.push(T::from_f64(f32::from_bits(r.u32()?) as f64));
        }
    } else {
        for _ in 0..count {
            vals.push(T::from_f64(f64::from_bits(r.u64()?)));
        }
    }
    Ok(vals)
}

/// Check a decoded scalar-width tag against `T`'s width.
pub fn check_scalar_width<T: Scalar>(width: u8) -> Result<(), StoreError> {
    if width as usize != std::mem::size_of::<T>() {
        return Err(StoreError::Corrupt(format!(
            "scalar width mismatch: blob holds {width}-byte scalars, caller expects {}-byte",
            std::mem::size_of::<T>()
        )));
    }
    Ok(())
}

impl<T: Scalar> Blob for DenseMatrix<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        {
            let mut w = ByteWriter::new(out);
            w.u8(std::mem::size_of::<T>() as u8);
            w.usize(self.rows());
            w.usize(self.cols());
        }
        encode_scalar_slice(out, self.data());
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        check_scalar_width::<T>(r.u8()?)?;
        let rows = r.usize()?;
        let cols = r.usize()?;
        let count = rows
            .checked_mul(cols)
            .ok_or_else(|| StoreError::Corrupt(format!("{rows} x {cols} matrix overflows")))?;
        let data = decode_scalar_vec::<T>(&mut r, count)?;
        r.finish()?;
        Ok(DenseMatrix::from_vec(rows, cols, data))
    }

    fn resident_bytes(&self) -> usize {
        self.rows() * self.cols() * std::mem::size_of::<T>()
    }
}

impl<T: Scalar> Blob for WyRotation<T> {
    /// Scalar width, `m`, `k`, `nb` and the block count, then each block's
    /// `V_g`, then the packed `T_g`s: lengths those five determine.
    fn encode(&self, out: &mut Vec<u8>) {
        {
            let mut w = ByteWriter::new(out);
            w.u8(std::mem::size_of::<T>() as u8);
            w.usize(self.rows);
            w.usize(self.rank);
            w.usize(self.nb);
            w.usize(self.v.len());
        }
        for v in &self.v {
            encode_scalar_slice(out, v.data());
        }
        encode_scalar_slice(out, &self.t);
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        check_scalar_width::<T>(r.u8()?)?;
        let (rows, rank, nb, blocks) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
        let corrupt = |what: &str| {
            StoreError::Corrupt(format!(
                "WY rotation m = {rows}, k = {rank}, nb = {nb}, {blocks} blocks: {what}"
            ))
        };
        if rank > rows {
            return Err(corrupt("more reflectors than rows"));
        }
        if nb != WyRotation::<T>::block_width(rank) || blocks != rank.div_ceil(nb.max(1)) {
            return Err(corrupt("block layout disagrees with m x k"));
        }
        // Each reflector stores at least its T diagonal, so this bounds the
        // block walk below by the blob's size before the walk runs.
        let width = std::mem::size_of::<T>();
        let present = r.remaining() / width;
        let exact = r.remaining() % width == 0
            && rank <= present
            && WyRotation::<T>::stored_scalars_for(rows, rank) == Some(present);
        if !exact {
            return Err(corrupt("payload length disagrees with m x k"));
        }
        let mut v = Vec::with_capacity(blocks);
        for j0 in (0..rank).step_by(nb.max(1)) {
            let w = nb.min(rank - j0);
            let data = decode_scalar_vec::<T>(&mut r, (rows - j0) * w)?;
            v.push(DenseMatrix::from_vec(rows - j0, w, data));
        }
        let t = decode_scalar_vec::<T>(&mut r, WyRotation::<T>::packed_len(rank, nb))?;
        r.finish()?;
        Ok(WyRotation {
            rows,
            rank,
            nb,
            v,
            t,
        })
    }

    fn resident_bytes(&self) -> usize {
        self.stored_scalars() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>(m: &DenseMatrix<T>) {
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        let back = DenseMatrix::<T>::decode(&bytes).unwrap();
        assert_eq!(back.rows(), m.rows());
        assert_eq!(back.cols(), m.cols());
        for (a, b) in back.data().iter().zip(m.data()) {
            assert!(a.to_f64().to_bits() == b.to_f64().to_bits(), "bit mismatch");
        }
    }

    #[test]
    fn matrix_blob_roundtrips_bit_exactly() {
        let m = DenseMatrix::<f64>::from_fn(7, 5, |i, j| {
            ((i * 31 + j) as f64).sin() * 1e3 + 1.0 / (1 + i + j) as f64
        });
        roundtrip(&m);
        let s = DenseMatrix::<f32>::from_fn(4, 9, |i, j| ((i * 13 + j) as f32).cos());
        roundtrip(&s);
        roundtrip(&DenseMatrix::<f64>::zeros(0, 3));
    }

    fn sample_rotation(m: usize, k: usize) -> WyRotation<f64> {
        let u = DenseMatrix::<f64>::from_fn(m, k, |i, j| ((i * 7 + j * 13) as f64).sin());
        WyRotation::from_qr(&crate::householder_qr(&u))
    }

    fn rotation_bytes(m: usize, k: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        sample_rotation(m, k).encode(&mut bytes);
        bytes
    }

    /// The header of an encoded rotation with field `field` (0 = m, 1 = k,
    /// 2 = nb, 3 = block count) replaced.
    fn with_header_field(mut bytes: Vec<u8>, field: usize, value: u64) -> Vec<u8> {
        let at = 1 + 8 * field;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    fn assert_corrupt<V: Blob + std::fmt::Debug>(bytes: &[u8], what: &str) {
        match V::decode(bytes) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wy_rotation_blob_roundtrips_bit_exactly() {
        for (m, k) in [(1, 0), (5, 1), (40, 21), (200, 129)] {
            let rot = sample_rotation(m, k);
            let mut bytes = Vec::new();
            rot.encode(&mut bytes);
            let back = WyRotation::<f64>::decode(&bytes).unwrap();
            assert_eq!((back.rows(), back.rank()), (m, k));
            assert_eq!(back.resident_bytes(), rot.stored_scalars() * 8);
            let b = DenseMatrix::<f64>::from_fn(m, 3, |i, j| (i + 2 * j) as f64);
            let (mut x, mut y) = (b.clone(), b.clone());
            rot.apply_qt(&mut x);
            back.apply_qt(&mut y);
            assert_eq!(x, y, "m = {m}, k = {k}");
            assert!(WyRotation::<f32>::decode(&bytes).is_err());
        }
    }

    #[test]
    fn wy_rotation_decode_rejects_every_corruption() {
        let bytes = rotation_bytes(40, 21);
        for len in 0..bytes.len() {
            assert_corrupt::<WyRotation<f64>>(&bytes[..len], &format!("truncated to {len}"));
        }
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 8]);
        assert_corrupt::<WyRotation<f64>>(&long, "trailing scalar");
        // k = 21 takes 11-wide blocks, two of them.
        let cases = [
            (2, 10, "nb too narrow"),
            (2, 12, "nb too wide"),
            (2, 0, "nb zero"),
            (3, 3, "block count"),
            (3, 1, "block count"),
            (1, 22, "k disagrees with the payload"),
            (0, 39, "m disagrees with the payload"),
            (1, 41, "more reflectors than rows"),
            (0, u64::MAX, "hostile m"),
            (1, u64::MAX, "hostile k"),
            (0, 1 << 40, "huge m"),
            (3, u64::MAX, "hostile block count"),
        ];
        for (field, value, what) in cases {
            assert_corrupt::<WyRotation<f64>>(
                &with_header_field(bytes.clone(), field, value),
                what,
            );
        }
        // A consistent header whose payload is absent: m = 2^31, k = 2^30
        // claims ~2^61 scalars against a few hundred bytes.
        let mut hostile = with_header_field(bytes.clone(), 0, 1 << 31);
        hostile = with_header_field(hostile, 1, 1 << 30);
        hostile = with_header_field(hostile, 2, 32);
        hostile = with_header_field(hostile, 3, 1 << 25);
        assert_corrupt::<WyRotation<f64>>(&hostile, "hostile but consistent header");
    }

    #[test]
    fn matrix_decode_rejects_hostile_dimensions() {
        let m = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        for (rows, cols) in [(u64::MAX, 2u64), (1 << 40, 1 << 40), (1 << 30, 1)] {
            let mut b = bytes.clone();
            b[1..9].copy_from_slice(&rows.to_le_bytes());
            b[9..17].copy_from_slice(&cols.to_le_bytes());
            assert_corrupt::<DenseMatrix<f64>>(&b, &format!("{rows} x {cols}"));
        }
    }

    #[test]
    fn width_mismatch_is_detected() {
        let m = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        let err = DenseMatrix::<f32>::decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }
}
