//! std-only binary persistence for the index structures.
//!
//! The paper's premise is that FastBit indexes are *built once and reused*
//! across exploration sessions; this module provides the byte-level
//! encoders/decoders that make [`BitmapIndex`] (bin edges plus the
//! WAH-compressed bitmaps, written in their already-compressed form),
//! [`IdIndex`] and [`ZoneMaps`] durable. The datastore crate's `vdx` store
//! embeds these encodings in checksummed segment files.
//!
//! Decoding is written for hostile input: every length is validated against
//! the bytes actually available *before* any allocation (no OOM on a
//! declared-but-absent gigabyte), every structural invariant the in-memory
//! types rely on is checked before construction (no panics on corrupt
//! bytes), and every failure is a typed [`PersistError`]. All integers are
//! little-endian.

use std::fmt;

use histogram::BinEdges;

use crate::index::{BitmapIndex, IdIndex};
use crate::par::{Zone, ZoneMaps};
use crate::wah::Wah;

/// Longest column/section name the decoders accept.
pub const MAX_NAME_LEN: usize = 1 << 16;

/// A typed decoding failure. Never panics, never over-allocates: `Truncated`
/// and `Oversized` fire before any buffer is reserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before a declared structure was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A declared count or length exceeds what the remaining bytes could
    /// possibly hold.
    Oversized {
        /// What was being read.
        what: &'static str,
        /// The declared element count or byte length.
        claimed: u64,
        /// The maximum the remaining input admits.
        limit: u64,
    },
    /// The bytes decoded structurally but violate an invariant of the target
    /// type (unsorted rows, non-monotonic boundaries, WAH words not covering
    /// the declared bit length, …).
    Invalid {
        /// What was being read.
        what: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// Well-formed input with unexpected bytes left over after the structure
    /// ended — a sign the payload was assembled for a different layout.
    TrailingBytes {
        /// What was being read.
        what: &'static str,
        /// Number of unread bytes.
        remaining: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} byte(s), only {available} available"
            ),
            PersistError::Oversized {
                what,
                claimed,
                limit,
            } => write!(f, "oversized {what}: claimed {claimed}, limit {limit}"),
            PersistError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
            PersistError::TrailingBytes { what, remaining } => {
                write!(f, "{remaining} trailing byte(s) after {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Result alias for this module.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over untrusted bytes. Every read names what it is
/// reading so failures are self-describing.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless the input is fully consumed.
    pub fn expect_end(&self, what: &'static str) -> PersistResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes {
                what,
                remaining: self.remaining() as u64,
            })
        }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> PersistResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(PersistError::Truncated {
                what,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> PersistResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> PersistResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> PersistResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a little-endian `f64` (bit pattern preserved exactly).
    pub fn f64(&mut self, what: &'static str) -> PersistResult<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Validate that `count` elements of `elem_bytes` bytes each fit in the
    /// remaining input, returning the count as `usize`. Call before any
    /// `Vec::with_capacity` so hostile counts can never drive allocation.
    pub fn check_count(
        &self,
        count: u64,
        elem_bytes: u64,
        what: &'static str,
    ) -> PersistResult<usize> {
        let limit = (self.remaining() as u64)
            .checked_div(elem_bytes)
            .unwrap_or(u64::MAX);
        if count > limit {
            return Err(PersistError::Oversized {
                what,
                claimed: count,
                limit,
            });
        }
        Ok(count as usize)
    }

    /// Read `count` little-endian values of `N` bytes each in one slice
    /// conversion. `count` is validated against the remaining input before
    /// anything is allocated.
    fn values<const N: usize, T>(
        &mut self,
        count: u64,
        what: &'static str,
        from_le: impl Fn([u8; N]) -> T,
    ) -> PersistResult<Vec<T>> {
        let count = self.check_count(count, N as u64, what)?;
        let raw = self.take(count * N, what)?;
        Ok(raw
            .chunks_exact(N)
            .map(|b| from_le(b.try_into().expect("N-byte chunk")))
            .collect())
    }

    /// Read `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: u64, what: &'static str) -> PersistResult<Vec<u32>> {
        self.values(count, what, u32::from_le_bytes)
    }

    /// Read `count` little-endian `u64`s.
    pub fn u64s(&mut self, count: u64, what: &'static str) -> PersistResult<Vec<u64>> {
        self.values(count, what, u64::from_le_bytes)
    }

    /// Read `count` little-endian `f64`s (bit patterns preserved exactly).
    pub fn f64s(&mut self, count: u64, what: &'static str) -> PersistResult<Vec<f64>> {
        self.values(count, what, f64::from_le_bytes)
    }

    /// Read a length-prefixed UTF-8 string (length capped at
    /// [`MAX_NAME_LEN`]).
    pub fn str(&mut self, what: &'static str) -> PersistResult<String> {
        let len = self.u32(what)? as u64;
        if len > MAX_NAME_LEN as u64 {
            return Err(PersistError::Oversized {
                what,
                claimed: len,
                limit: MAX_NAME_LEN as u64,
            });
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Invalid {
            what,
            detail: "not valid UTF-8".to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Write helpers
// ---------------------------------------------------------------------------

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64` (bit pattern preserved exactly).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `values` as `N`-byte little-endian fields: the output grows once
/// and the conversion runs over whole slices.
fn put_values<const N: usize, T: Copy>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    for (dst, v) in out[start..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&to_le(*v));
    }
}

/// Append a slice of little-endian `u32`s.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_values(out, values, u32::to_le_bytes);
}

/// Append a slice of little-endian `u64`s.
pub fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    put_values(out, values, u64::to_le_bytes);
}

/// Append a slice of little-endian `f64`s (bit patterns preserved exactly).
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_values(out, values, f64::to_le_bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Wah
// ---------------------------------------------------------------------------

/// Append one WAH vector: logical bit length, word count, then the
/// compressed words verbatim (no recompression).
pub fn encode_wah(wah: &Wah, out: &mut Vec<u8>) {
    put_u64(out, wah.len());
    let words = wah.as_words();
    put_u32(out, words.len() as u32);
    put_u32s(out, words);
}

/// Read one WAH vector, validating that the words cover exactly the declared
/// bit length (via [`Wah::checked_from_raw_parts`]).
pub fn read_wah(r: &mut Reader<'_>) -> PersistResult<Wah> {
    let nbits = r.u64("wah bit length")?;
    let word_count = r.u32("wah word count")? as u64;
    let words = r.u32s(word_count, "wah words")?;
    Wah::checked_from_raw_parts(words, nbits).map_err(|detail| PersistError::Invalid {
        what: "wah words",
        detail,
    })
}

/// Decode one WAH vector from a standalone buffer.
pub fn decode_wah(bytes: &[u8]) -> PersistResult<Wah> {
    let mut r = Reader::new(bytes);
    let wah = read_wah(&mut r)?;
    r.expect_end("wah")?;
    Ok(wah)
}

// ---------------------------------------------------------------------------
// BitmapIndex
// ---------------------------------------------------------------------------

/// Append one bitmap index: row count, the unbinned-matchable flag, bin
/// boundaries, one WAH bitmap per bin (already compressed) and the unbinned
/// row list.
pub fn encode_index(idx: &BitmapIndex, out: &mut Vec<u8>) {
    put_u64(out, idx.num_rows() as u64);
    out.push(idx.unbinned_matchable() as u8);
    let boundaries = idx.edges().boundaries();
    put_u32(out, boundaries.len() as u32);
    put_f64s(out, boundaries);
    put_u32(out, idx.num_bins() as u32);
    for bin in 0..idx.num_bins() {
        encode_wah(idx.bitmap(bin), out);
    }
    let unbinned = idx.unbinned_rows();
    put_u32(out, unbinned.len() as u32);
    put_u32s(out, unbinned);
}

/// Read one bitmap index, validating every structural invariant (boundary
/// monotonicity, bitmap count and lengths, unbinned rows strictly increasing
/// and in range) before construction.
pub fn read_index(r: &mut Reader<'_>) -> PersistResult<BitmapIndex> {
    let num_rows = r.u64("index row count")?;
    let matchable = match r.u8("index matchable flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(PersistError::Invalid {
                what: "index matchable flag",
                detail: format!("expected 0 or 1, found {other}"),
            })
        }
    };
    let boundary_count = r.u32("index boundary count")? as u64;
    let boundaries = r.f64s(boundary_count, "index boundaries")?;
    let edges = BinEdges::from_boundaries(boundaries).map_err(|e| PersistError::Invalid {
        what: "index boundaries",
        detail: e.to_string(),
    })?;
    let bin_count = r.u32("index bin count")? as u64;
    // A serialized empty-but-present bitmap takes at least 12 bytes.
    let bin_count = r.check_count(bin_count, 12, "index bitmaps")?;
    let mut bitmaps = Vec::with_capacity(bin_count);
    for _ in 0..bin_count {
        bitmaps.push(read_wah(r)?);
    }
    let unbinned_count = r.u32("index unbinned count")? as u64;
    let unbinned = r.u32s(unbinned_count, "index unbinned rows")?;
    BitmapIndex::from_parts_with_matchable(edges, bitmaps, num_rows as usize, unbinned, matchable)
        .map_err(|e| PersistError::Invalid {
            what: "index structure",
            detail: e.to_string(),
        })
}

/// Decode one bitmap index from a standalone buffer.
pub fn decode_index(bytes: &[u8]) -> PersistResult<BitmapIndex> {
    let mut r = Reader::new(bytes);
    let idx = read_index(&mut r)?;
    r.expect_end("index")?;
    Ok(idx)
}

// ---------------------------------------------------------------------------
// Range (cumulative) bitmaps
// ---------------------------------------------------------------------------

/// Append one index's cumulative (range-encoded) bitmaps: bitmap count then
/// each WAH vector in its already-compressed form. The equality encoding of
/// the same index is persisted separately by [`encode_index`]; segment
/// format v2 stores the two under different section tags so a v1 reader's
/// section-kind validation naturally rejects what it cannot interpret.
pub fn encode_range_bitmaps(cumulative: &[Wah], out: &mut Vec<u8>) {
    put_u32(out, cumulative.len() as u32);
    for wah in cumulative {
        encode_wah(wah, out);
    }
}

/// Read one index's cumulative bitmaps. Each WAH vector is structurally
/// validated here; the *cumulative* property against the owning index's
/// equality bitmaps is enforced by
/// [`BitmapIndex::attach_range_bitmaps`].
pub fn read_range_bitmaps(r: &mut Reader<'_>) -> PersistResult<Vec<Wah>> {
    let count = r.u32("range bitmap count")? as u64;
    // A serialized empty-but-present bitmap takes at least 12 bytes.
    let count = r.check_count(count, 12, "range bitmaps")?;
    let mut cumulative = Vec::with_capacity(count);
    for _ in 0..count {
        cumulative.push(read_wah(r)?);
    }
    Ok(cumulative)
}

/// Decode one index's cumulative bitmaps from a standalone buffer.
pub fn decode_range_bitmaps(bytes: &[u8]) -> PersistResult<Vec<Wah>> {
    let mut r = Reader::new(bytes);
    let cumulative = read_range_bitmaps(&mut r)?;
    r.expect_end("range bitmaps")?;
    Ok(cumulative)
}

// ---------------------------------------------------------------------------
// IdIndex
// ---------------------------------------------------------------------------

/// Append one identifier index: row count, pair count, then the sorted
/// `(id, row)` pairs.
pub fn encode_id_index(idx: &IdIndex, out: &mut Vec<u8>) {
    put_u64(out, idx.num_rows() as u64);
    let pairs = idx.pairs();
    put_u64(out, pairs.len() as u64);
    let start = out.len();
    out.resize(start + pairs.len() * 12, 0);
    for (dst, (id, row)) in out[start..].chunks_exact_mut(12).zip(pairs) {
        dst[..8].copy_from_slice(&id.to_le_bytes());
        dst[8..].copy_from_slice(&row.to_le_bytes());
    }
}

/// Read one identifier index, validating that the pairs are sorted by id and
/// every row is within the row count.
pub fn read_id_index(r: &mut Reader<'_>) -> PersistResult<IdIndex> {
    let num_rows = r.u64("id index row count")?;
    let pair_count = r.u64("id index pair count")?;
    let pair_count = r.check_count(pair_count, 12, "id index pairs")?;
    let raw = r.take(pair_count * 12, "id index pairs")?;
    let pairs: Vec<(u64, u32)> = raw
        .chunks_exact(12)
        .map(|b| {
            (
                u64::from_le_bytes(b[..8].try_into().expect("8-byte id")),
                u32::from_le_bytes(b[8..].try_into().expect("4-byte row")),
            )
        })
        .collect();
    if pairs.windows(2).any(|w| w[0].0 > w[1].0) {
        return Err(PersistError::Invalid {
            what: "id index pairs",
            detail: "pairs are not sorted by id".to_string(),
        });
    }
    if let Some(&(_, row)) = pairs.iter().find(|&&(_, row)| row as u64 >= num_rows) {
        return Err(PersistError::Invalid {
            what: "id index pairs",
            detail: format!("row {row} outside row count {num_rows}"),
        });
    }
    Ok(IdIndex::from_sorted_pairs(pairs, num_rows as usize))
}

/// Decode one identifier index from a standalone buffer.
pub fn decode_id_index(bytes: &[u8]) -> PersistResult<IdIndex> {
    let mut r = Reader::new(bytes);
    let idx = read_id_index(&mut r)?;
    r.expect_end("id index")?;
    Ok(idx)
}

// ---------------------------------------------------------------------------
// ZoneMaps
// ---------------------------------------------------------------------------

/// Append one column's zone maps: chunk size, row count, zone count, then
/// per-zone `(min, max, nan_count, len)`.
pub fn encode_zone_maps(maps: &ZoneMaps, out: &mut Vec<u8>) {
    put_u64(out, maps.chunk_rows() as u64);
    put_u64(out, maps.num_rows() as u64);
    put_u64(out, maps.num_chunks() as u64);
    for i in 0..maps.num_chunks() {
        let z = maps.zone(i);
        put_f64(out, z.min);
        put_f64(out, z.max);
        put_u32(out, z.nan_count);
        put_u32(out, z.len);
    }
}

/// Read one column's zone maps, validating that the zones partition the row
/// count into `chunk_rows`-sized chunks (the final chunk may be shorter).
pub fn read_zone_maps(r: &mut Reader<'_>) -> PersistResult<ZoneMaps> {
    let chunk_rows = r.u64("zone map chunk size")?;
    if chunk_rows == 0 {
        return Err(PersistError::Invalid {
            what: "zone map chunk size",
            detail: "chunk size must be at least 1".to_string(),
        });
    }
    let num_rows = r.u64("zone map row count")?;
    let zone_count = r.u64("zone map zone count")?;
    let zone_count = r.check_count(zone_count, 24, "zone map zones")?;
    if zone_count as u64 != num_rows.div_ceil(chunk_rows) {
        return Err(PersistError::Invalid {
            what: "zone map zones",
            detail: format!(
                "{zone_count} zone(s) cannot cover {num_rows} row(s) at {chunk_rows} rows/chunk"
            ),
        });
    }
    let mut zones = Vec::with_capacity(zone_count);
    let mut covered = 0u64;
    for i in 0..zone_count {
        let min = r.f64("zone min")?;
        let max = r.f64("zone max")?;
        let nan_count = r.u32("zone nan count")?;
        let len = r.u32("zone length")?;
        let expected = if i + 1 < zone_count {
            chunk_rows
        } else {
            num_rows - covered
        };
        if len as u64 != expected || nan_count > len {
            return Err(PersistError::Invalid {
                what: "zone map zones",
                detail: format!(
                    "zone {i} declares len {len} (expected {expected}) with {nan_count} NaN(s)"
                ),
            });
        }
        covered += len as u64;
        zones.push(Zone {
            min,
            max,
            nan_count,
            len,
        });
    }
    Ok(ZoneMaps::from_raw_parts(
        chunk_rows as usize,
        num_rows as usize,
        zones,
    ))
}

/// Decode one column's zone maps from a standalone buffer.
pub fn decode_zone_maps(bytes: &[u8]) -> PersistResult<ZoneMaps> {
    let mut r = Reader::new(bytes);
    let maps = read_zone_maps(&mut r)?;
    r.expect_end("zone maps")?;
    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use histogram::Binning;

    fn sample_index(n: usize) -> BitmapIndex {
        let mut data: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 100.0).collect();
        if n > 20 {
            data[3] = f64::NAN;
            data[9] = f64::INFINITY;
            data[15] = f64::NEG_INFINITY;
        }
        BitmapIndex::build(&data, &Binning::EqualWidth { bins: 16 }).unwrap()
    }

    #[test]
    fn wah_roundtrip_preserves_words() {
        for wah in [
            Wah::zeros(0),
            Wah::zeros(1000),
            Wah::ones(93),
            Wah::from_sorted_indices(500, [0u64, 31, 62, 499]),
        ] {
            let mut buf = Vec::new();
            encode_wah(&wah, &mut buf);
            let back = decode_wah(&buf).unwrap();
            assert_eq!(back, wah);
        }
    }

    #[test]
    fn index_roundtrip_is_exact() {
        let idx = sample_index(400);
        let mut buf = Vec::new();
        encode_index(&idx, &mut buf);
        let back = decode_index(&buf).unwrap();
        assert_eq!(back.num_rows(), idx.num_rows());
        assert_eq!(back.edges().boundaries(), idx.edges().boundaries());
        assert_eq!(back.bin_counts(), idx.bin_counts());
        assert_eq!(back.unbinned_rows(), idx.unbinned_rows());
        assert_eq!(back.unbinned_matchable(), idx.unbinned_matchable());
    }

    #[test]
    fn truncation_and_oversize_are_typed_errors() {
        let idx = sample_index(100);
        let mut buf = Vec::new();
        encode_index(&idx, &mut buf);
        for cut in 0..buf.len() {
            let err = decode_index(&buf[..cut]).unwrap_err();
            let shown = err.to_string();
            assert!(!shown.is_empty());
        }
        // A hostile declared count larger than the buffer must fail *before*
        // allocating.
        let mut hostile = Vec::new();
        put_u64(&mut hostile, 10); // num_rows
        hostile.push(0); // matchable
        put_u32(&mut hostile, u32::MAX); // boundary count
        assert!(matches!(
            decode_index(&hostile),
            Err(PersistError::Oversized { .. })
        ));
    }

    #[test]
    fn range_bitmaps_roundtrip_and_reject_garbage() {
        let idx = sample_index(400).with_range_encoding().unwrap();
        let cumulative = idx.range_bitmaps().unwrap();
        let mut buf = Vec::new();
        encode_range_bitmaps(cumulative, &mut buf);
        let back = decode_range_bitmaps(&buf).unwrap();
        assert_eq!(back, cumulative);
        // Attaching the decoded set to a structurally identical index passes
        // the cumulative-tally validation.
        let mut fresh = sample_index(400);
        fresh.attach_range_bitmaps(back).unwrap();
        assert!(fresh.has_range_encoding());
        // Truncations are typed errors, never panics.
        for cut in 0..buf.len() {
            assert!(decode_range_bitmaps(&buf[..cut]).is_err());
        }
        // Hostile count fails before allocating.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert!(matches!(
            decode_range_bitmaps(&hostile),
            Err(PersistError::Oversized { .. })
        ));
    }

    #[test]
    fn id_index_and_zone_maps_roundtrip() {
        let ids: Vec<u64> = (0..300u64).map(|i| (i * 31) % 997).collect();
        let idx = IdIndex::build(&ids);
        let mut buf = Vec::new();
        encode_id_index(&idx, &mut buf);
        let back = decode_id_index(&buf).unwrap();
        assert_eq!(back.pairs(), idx.pairs());
        assert_eq!(back.num_rows(), idx.num_rows());

        let data: Vec<f64> = (0..250).map(|i| i as f64 * 0.5).collect();
        let maps = ZoneMaps::build(&data, 64);
        let mut buf = Vec::new();
        encode_zone_maps(&maps, &mut buf);
        let back = decode_zone_maps(&buf).unwrap();
        assert_eq!(back, maps);
    }

    #[test]
    fn invalid_structures_are_rejected() {
        // Unsorted id pairs.
        let mut buf = Vec::new();
        put_u64(&mut buf, 5);
        put_u64(&mut buf, 2);
        put_u64(&mut buf, 9);
        put_u32(&mut buf, 0);
        put_u64(&mut buf, 3);
        put_u32(&mut buf, 1);
        assert!(matches!(
            decode_id_index(&buf),
            Err(PersistError::Invalid { .. })
        ));
        // Trailing garbage.
        let maps = ZoneMaps::build(&[1.0, 2.0, 3.0], 2);
        let mut buf = Vec::new();
        encode_zone_maps(&maps, &mut buf);
        buf.push(0);
        assert!(matches!(
            decode_zone_maps(&buf),
            Err(PersistError::TrailingBytes { .. })
        ));
    }
}
