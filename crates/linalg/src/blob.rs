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
//!
//! A store fault reads a blob's bytes into a per-thread reused buffer (one
//! blob at most, outside the store's `resident_budget`) and decodes them
//! from there; [`decode_scalar_vec`] turns each scalar run into its `Vec` in
//! one slice-wide pass, so a fault costs about two copies of the payload.

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
/// is allocated. The `count × width` payload is taken as one slice and
/// converted in a single pass over its fixed-width chunks (a loop the
/// compiler vectorises), with the same bit-pattern conversion per scalar as
/// [`ByteReader::u64`] / [`ByteReader::u32`] followed by `from_bits`.
pub fn decode_scalar_vec<T: Scalar>(
    r: &mut ByteReader<'_>,
    count: usize,
) -> Result<Vec<T>, StoreError> {
    let width = std::mem::size_of::<T>();
    let bytes = count
        .checked_mul(width)
        .ok_or_else(|| StoreError::Corrupt(format!("{count} scalars of {width} bytes overflow")))?;
    // `Corrupt` unless `bytes` are left, checked before anything is allocated.
    let payload = r.take(bytes)?;
    let vals = if width == 4 {
        payload
            .chunks_exact(4)
            .map(|c| T::from_f64(f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())) as f64))
            .collect()
    } else {
        payload
            .chunks_exact(8)
            .map(|c| T::from_f64(f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))))
            .collect()
    };
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

    /// The per-element decoder: one bounds-checked `ByteReader` read and
    /// one `push` per scalar. This is the reference [`decode_scalar_vec`]
    /// must match bit for bit.
    fn per_element_decode<T: Scalar>(
        r: &mut ByteReader<'_>,
        count: usize,
    ) -> Result<Vec<T>, StoreError> {
        let fits = count
            .checked_mul(std::mem::size_of::<T>())
            .is_some_and(|bytes| bytes <= r.remaining());
        if !fits {
            return Err(StoreError::Corrupt(format!("{count} scalars claimed")));
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

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// ±0, ±∞, quiet and signalling NaNs (with and without payloads, both
    /// signs), the subnormal range's ends and the normal range's ends.
    const F64_SPECIALS: [u64; 15] = [
        0,
        1 << 63,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff8_dead_beef_0001,
        0xfff8_0000_0000_1234,
        0x7ff0_0000_0000_0001,
        0x7ff4_0000_0000_0000,
        0xfff0_0000_dead_beef,
        1,
        0x000f_ffff_ffff_ffff,
        0x800f_ffff_ffff_ffff,
        0x0010_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
    ];
    const F32_SPECIALS: [u32; 15] = [
        0,
        1 << 31,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7fc0_1234,
        0xffc0_0001,
        0x7f80_0001,
        0x7fa0_0000,
        0xff80_beef,
        1,
        0x007f_ffff,
        0x807f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
    ];

    /// `count` little-endian `width`-byte words after a one-byte header
    /// (so the payload starts unaligned) and before a three-byte trailer:
    /// random bit patterns with every fourth word, on average, a special.
    fn random_payload(count: usize, width: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut bytes = vec![0xa5];
        for _ in 0..count {
            let r = splitmix(&mut state);
            let special = splitmix(&mut state) % 4 == 0;
            if width == 4 {
                let w = if special {
                    F32_SPECIALS[(r % 15) as usize]
                } else {
                    r as u32
                };
                bytes.extend_from_slice(&w.to_le_bytes());
            } else {
                let w = if special {
                    F64_SPECIALS[(r % 15) as usize]
                } else {
                    r
                };
                bytes.extend_from_slice(&w.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&[1, 2, 3]);
        bytes
    }

    /// Decode with both decoders from the same position; both must agree
    /// on the result bits, or both fail with `Corrupt`, and leave the same
    /// bytes unread.
    fn assert_decoders_agree<T: Scalar>(
        bytes: &[u8],
        count: usize,
        bits: fn(T) -> u64,
    ) -> Result<Vec<T>, StoreError> {
        let (mut new_r, mut old_r) = (ByteReader::new(bytes), ByteReader::new(bytes));
        new_r.u8().unwrap();
        old_r.u8().unwrap();
        let new = decode_scalar_vec::<T>(&mut new_r, count);
        let old = per_element_decode::<T>(&mut old_r, count);
        match (&new, &old) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.len(), count);
                let new_bits: Vec<u64> = new.iter().map(|&x| bits(x)).collect();
                let old_bits: Vec<u64> = old.iter().map(|&x| bits(x)).collect();
                assert!(new_bits == old_bits, "count {count}: decoded bits differ");
                assert_eq!(new_r.remaining(), old_r.remaining());
            }
            (Err(StoreError::Corrupt(_)), Err(StoreError::Corrupt(_))) => {
                // Rejected before the payload was touched.
                assert_eq!(new_r.remaining(), bytes.len() - 1, "count {count}");
            }
            _ => panic!("count {count}: decoders disagree: {new:?} vs {old:?}"),
        }
        new
    }

    fn decoder_battery<T: Scalar>(bits: fn(T) -> u64) {
        let width = std::mem::size_of::<T>();
        for (seed, count) in [0, 1, 2, 3, 7, 31, 33, 1001, 65_537]
            .into_iter()
            .enumerate()
        {
            let bytes = random_payload(count, width, seed as u64 + 1);
            // Every count up to the payload's decodes; one more does not.
            for claimed in [count.saturating_sub(1), count] {
                assert!(assert_decoders_agree::<T>(&bytes, claimed, bits).is_ok());
            }
            let hostile = [
                count + 1,
                usize::MAX / width,
                usize::MAX / width + 1,
                usize::MAX,
            ];
            for claimed in hostile {
                assert!(assert_decoders_agree::<T>(&bytes, claimed, bits).is_err());
            }
        }
        // Every special in every lane position of a short run.
        let specials: Vec<u8> = std::iter::once(0)
            .chain((0..64).flat_map(|i| {
                if width == 4 {
                    F32_SPECIALS[i % 15].to_le_bytes().to_vec()
                } else {
                    F64_SPECIALS[i % 15].to_le_bytes().to_vec()
                }
            }))
            .collect();
        assert!(assert_decoders_agree::<T>(&specials, 64, bits).is_ok());
    }

    #[test]
    fn slice_decoder_matches_per_element_decoder_f64() {
        decoder_battery::<f64>(f64::to_bits);
        // The raw patterns come back untouched, NaN payloads included.
        let bytes = random_payload(1001, 8, 7);
        let vals = assert_decoders_agree::<f64>(&bytes, 1001, f64::to_bits).unwrap();
        for (x, raw) in vals.iter().zip(bytes[1..].chunks_exact(8)) {
            assert_eq!(x.to_bits(), u64::from_le_bytes(raw.try_into().unwrap()));
        }
    }

    #[test]
    fn slice_decoder_matches_per_element_decoder_f32() {
        decoder_battery::<f32>(|x| x.to_bits() as u64);
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
