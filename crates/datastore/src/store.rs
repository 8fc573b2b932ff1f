//! The `vdx` segment codec: checksummed, versioned persistence for whole
//! datasets, and the write-back policy of store-attached catalogs.
//!
//! The paper's FastBit indexes are *built once and reused* across
//! exploration sessions; a segment is how our in-memory [`Dataset`]s
//! (columns, bitmap indexes, identifier index, zone maps) survive a process
//! restart. Every catalog timestep is one segment file (see
//! [`crate::catalog`]), the only copy of its timestep, so a warm
//! `vdx-server` start never re-ingests raw data or rebuilds a single index.
//! A [`Store`] holds no files of its own: attached to a catalog, it decides
//! that a full load of a timestep written without indexes builds them and
//! rewrites the timestep's file, and it counts what that did.
//!
//! # Segment layout (formats v1 and v2, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "VDXS"
//!      4     4  format version (u32, 1 or 2)
//!      8     4  section count (u32)
//!     12     4  CRC-32 of the section table bytes
//!     16  24*n  section table: { kind u32 | offset u64 | len u64 | crc u32 }
//!   ....        section payloads (each at its declared offset/len)
//! ```
//!
//! Section kinds: `1` meta (step, row count, section tallies), `2` column
//! (name, dtype, raw values), `3` bitmap index (name + `fastbit::persist`
//! encoding), `4` identifier index, `5` zone maps (name + chunk size), and —
//! format v2 only — `6` range-encoded (cumulative) bitmaps of one index
//! (name + `fastbit::persist::encode_range_bitmaps` encoding). A v2 meta
//! payload appends a `u32` tally of the range-index sections; everything
//! else is byte-identical to v1. The writer emits v2 **only when** a dataset
//! actually carries range encodings, so datasets without them keep producing
//! v1 segments bit-for-bit (the golden v1 fixture pins this), and the reader
//! accepts both versions.
//!
//! Every payload carries its own CRC-32 in the table, and the table itself
//! is covered by the header CRC, so *any* single-byte corruption anywhere in
//! a segment is detected before a `Dataset` is constructed. [`crc32`] folds
//! inputs of 128 bytes or more by carry-less multiplication where the CPU
//! supports it (detected at run time on x86-64; the call into the kernel is
//! this module's one `unsafe`) and runs a slicing-by-16 table otherwise;
//! both compute the bytewise definition's values, so segment bytes do not
//! depend on which one ran.
//!
//! Writes go to a uniquely named `<segment>.<pid>.<n>.tmp` file first and are
//! renamed into place, so a crash mid-write can never leave a truncated
//! segment under the real name; leftover temp files are swept when the
//! catalog is opened. Reads validate before constructing: hostile bytes
//! produce a typed [`StoreError`], never a panic or an unbounded
//! allocation.
//!
//! A load is one pass per section: after the header and the section table,
//! each payload is read into a single reused buffer, checksummed, validated
//! and turned into its part of the dataset before the next is read, so a
//! load's transient memory is its largest section rather than the file.
//! [`decode_segment`] runs the same routine over bytes already in memory.
//!
//! A catalog's loads may be projected: the decoder then reads, besides the
//! header, the section table and meta, only the named columns, their
//! indexes when indexes are asked for, and the identifier index when `id`
//! is named. It tells a section's column from the name its payload opens
//! with, and a damaged name fails the load rather than drop a projected
//! column or index (see `projected_sections`).
//!
//! An identifier lookup needs far less than a dataset:
//! [`crate::Catalog::load_id_index`] (and [`decode_segment_id_index`] over
//! bytes in memory) runs the decoder's
//! own validator over the header, the section table — whose per-kind section
//! counts are held to meta's tallies — and the meta section, then reads,
//! checksums and validates the identifier-index section alone. Every other
//! payload is skipped unread, so a flip inside one cannot reach the index,
//! while anything the reader does read is checked as the full load checks it.

use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbit::persist::{
    self, encode_id_index, encode_index, encode_zone_maps, put_f64s, put_str, put_u32, put_u64,
    put_u64s, PersistError, Reader,
};
use histogram::Binning;

use crate::column::{Column, ColumnData};
use crate::dataset::Dataset;
use crate::table::ParticleTable;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"VDXS";
/// Baseline segment format version, written for datasets without
/// range-encoded bitmaps. Byte-for-byte stable (golden-fixture pinned).
pub const SEGMENT_VERSION: u32 = 1;
/// Segment format version written when any index carries the range
/// (cumulative) encoding: adds section kind 6 and a range-section tally in
/// the meta payload, and is otherwise identical to v1. The reader accepts
/// both versions.
pub const SEGMENT_VERSION_RANGE: u32 = 2;
/// Fixed header length: magic + version + section count + table CRC.
pub const HEADER_LEN: usize = 16;
/// Bytes per section-table entry: kind + offset + len + crc.
pub const TABLE_ENTRY_LEN: usize = 24;

const KIND_META: u32 = 1;
const KIND_COLUMN: u32 = 2;
const KIND_INDEX: u32 = 3;
const KIND_ID_INDEX: u32 = 4;
const KIND_ZONE_MAPS: u32 = 5;
/// Format v2 only: one index's cumulative (range-encoded) bitmaps.
const KIND_RANGE_INDEX: u32 = 6;

const DTYPE_FLOAT: u8 = 0;
const DTYPE_ID: u8 = 1;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial:
/// `CRC32_TABLES[0]` is the classic bytewise table, and `CRC32_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so sixteen input bytes
/// fold into the running value with sixteen independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`; the values are those of the
/// bytewise definition. Inputs of at least 128 bytes go through a
/// carry-less-multiply folding kernel where the CPU has one (detected at
/// run time); everything else goes through a slicing-by-16 table.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Advance the raw (uninverted) CRC-32 register `crc` over `bytes`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` has just confirmed that this CPU has the
        // `pclmulqdq` and `sse4.1` features the kernel is compiled for.
        return unsafe { clmul::update(crc, bytes) };
    }
    crc32_update_table(crc, bytes)
}

/// The table fallback: sixteen bytes per step (slicing-by-16), then the
/// remainder a byte at a time, over the raw CRC-32 register.
fn crc32_update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let block = u128::from_le_bytes(block.try_into().expect("16-byte block")) ^ crc as u128;
        crc = 0;
        for (k, table) in t.iter().rev().enumerate() {
            crc ^= table[(block >> (8 * k)) as u8 as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication: the input is folded 64 bytes per
/// step into four 128-bit lanes, the lanes into one, that one down to 32
/// bits by a Barrett reduction, and the last partial block goes through the
/// table (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel, 2009; the bit-reflected variant).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input handed to the kernel, which needs one whole 64-byte
    /// block to fill its four lanes; shorter inputs stay on the table.
    pub(super) const MIN_LEN: usize = 128;

    // Folding constants for the IEEE polynomial P, bit-reflected as 33-bit
    // values: K1 = x^(4*128+32) mod P and K2 = x^(4*128-32) mod P carry a
    // lane across 512 bits, K3 = x^(128+32) mod P and K4 = x^(128-32) mod P
    // across 128 bits, K5 = x^64 mod P across 64 bits; P_X is P itself and
    // U_PRIME is floor(x^64 / P), the Barrett constant.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte block as a little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(block[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi, lo)
    }

    /// Carry `acc` forward by the distance `keys` encodes onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance the raw CRC-32 register `crc` over `bytes`, which must hold
    /// at least [`MIN_LEN`] bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        let mut wide = bytes.chunks_exact(64);
        let first = wide.next().expect("at least MIN_LEN bytes");
        let mut lanes = [
            load(&first[0..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..64]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for chunk in &mut wide {
            for (lane, block) in lanes.iter_mut().zip(chunk.chunks_exact(16)) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut acc = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        let mut narrow = wide.remainder().chunks_exact(16);
        for block in &mut narrow {
            acc = fold(acc, load(block), k3k4);
        }

        // 128 -> 96 -> 64 bits: fold the low half by K4, then the low 32
        // bits of that by K5.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 -> 32 bits; reflected, so the result is the
        // upper half of the low 64 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_update_table(crc, narrow.remainder())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed store failure. Corrupt or hostile segment bytes always map to one
/// of these — never a panic, never an unbounded allocation.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The file does not start with the segment magic.
    BadMagic([u8; 4]),
    /// The file declares a format version this reader does not understand.
    UnsupportedVersion(u32),
    /// The file ended before a declared structure was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's declared `[offset, offset+len)` does not lie within the
    /// file (or overlaps the header).
    SectionBounds {
        /// Declared section kind.
        kind: u32,
        /// Declared payload offset.
        offset: u64,
        /// Declared payload length.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// A checksum did not match: the named region was corrupted on disk.
    ChecksumMismatch {
        /// Which region failed ("section table" or a section kind name).
        region: &'static str,
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the bytes actually present.
        found: u32,
    },
    /// The section table names a kind this version does not define.
    BadSectionKind(u32),
    /// A required section is missing or appears more than once.
    SectionCount {
        /// Section kind name.
        section: &'static str,
        /// How many were found.
        found: usize,
        /// How many are allowed/required.
        expected: usize,
    },
    /// A payload decoded structurally but contradicts the segment's own
    /// metadata (row-count mismatches, tally mismatches, duplicate names).
    Corrupt(String),
}

impl StoreError {
    /// A short stable name for the failure class, for trace notes and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::BadMagic(_) => "bad_magic",
            StoreError::UnsupportedVersion(_) => "unsupported_version",
            StoreError::Truncated { .. } => "truncated",
            StoreError::SectionBounds { .. } => "section_bounds",
            StoreError::ChecksumMismatch { .. } => "checksum_mismatch",
            StoreError::BadSectionKind(_) => "bad_section_kind",
            StoreError::SectionCount { .. } => "section_count",
            StoreError::Corrupt(_) => "corrupt",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic(m) => write!(f, "bad magic {m:?}, not a vdx segment"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported segment version {v}"),
            StoreError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} byte(s), only {available} available"
            ),
            StoreError::SectionBounds {
                kind,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "section kind {kind} declares [{offset}, {offset}+{len}) outside the {file_len}-byte file"
            ),
            StoreError::ChecksumMismatch {
                region,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {region}: file says {expected:#010x}, bytes hash to {found:#010x}"
            ),
            StoreError::BadSectionKind(k) => write!(f, "unknown section kind {k}"),
            StoreError::SectionCount {
                section,
                found,
                expected,
            } => write!(f, "expected {expected} {section} section(s), found {found}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Truncated {
                what,
                needed,
                available,
            } => StoreError::Truncated {
                what,
                needed,
                available,
            },
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------------
// Segment encoding
// ---------------------------------------------------------------------------

/// Chunk size the store persists zone maps at. Deliberately an independent
/// format constant — it matches the chunked engine's current default (so
/// warm-started servers prune without a build scan), but retuning
/// `fastbit::par::DEFAULT_CHUNK_ROWS` must not change the bytes the writer
/// emits for format v1 (the golden-file test pins them).
pub const STORE_ZONE_CHUNK_ROWS: usize = 4096;

/// Materialization budget for the range (cumulative) encoding a catalog
/// timestep carries (written by `Catalog::write_timestep` and by a store's
/// write-back alike): an index keeps its cumulative bitmaps only when their
/// total compressed size is at most this many times the equality bitmaps'.
/// Clustered / low-cardinality columns compress near 1:1 and qualify;
/// scattered high-entropy columns (whose mid-range cumulative bitmaps are
/// literal-dense, approaching `bins × rows / 31` words) do not — for those,
/// persisting the encoding would multiply segment size and warm-restart
/// time for a win that only applies to wide ranges. This is a policy
/// constant, not a format constant: changing it changes *which* sections a
/// segment carries, never how any section is laid out.
pub const STORE_RANGE_ENCODING_MAX_RATIO: f64 = 2.0;

/// Builds a segment in one buffer: the header and a zeroed section table go
/// first, each section's payload is then encoded straight onto the end and
/// its table entry (offset, length, CRC) filled in behind it.
struct SegmentWriter {
    out: Vec<u8>,
    /// Where the next table entry goes.
    entry_at: usize,
    /// Where the table ends and the payloads begin.
    payload_start: usize,
}

impl SegmentWriter {
    fn new(version: u32, section_count: usize, capacity: usize) -> Self {
        let payload_start = HEADER_LEN + section_count * TABLE_ENTRY_LEN;
        let mut out = Vec::with_capacity(payload_start + capacity);
        out.extend_from_slice(SEGMENT_MAGIC);
        put_u32(&mut out, version);
        put_u32(&mut out, section_count as u32);
        out.resize(payload_start, 0);
        Self {
            out,
            entry_at: HEADER_LEN,
            payload_start,
        }
    }

    fn section(&mut self, kind: u32, encode: impl FnOnce(&mut Vec<u8>)) {
        let offset = self.out.len();
        encode(&mut self.out);
        let len = self.out.len() - offset;
        let crc = crc32(&self.out[offset..]);
        let entry = &mut self.out[self.entry_at..self.entry_at + TABLE_ENTRY_LEN];
        entry[0..4].copy_from_slice(&kind.to_le_bytes());
        entry[4..12].copy_from_slice(&(offset as u64).to_le_bytes());
        entry[12..20].copy_from_slice(&(len as u64).to_le_bytes());
        entry[20..24].copy_from_slice(&crc.to_le_bytes());
        self.entry_at += TABLE_ENTRY_LEN;
    }

    fn finish(mut self) -> Vec<u8> {
        // A miscounted table would leave zeroed entries in a checksummed file.
        assert_eq!(self.entry_at, self.payload_start, "section count mismatch");
        let table_crc = crc32(&self.out[HEADER_LEN..self.payload_start]);
        self.out[12..16].copy_from_slice(&table_crc.to_le_bytes());
        self.out
    }
}

fn encode_column(column: &Column, out: &mut Vec<u8>) {
    put_str(out, &column.name);
    match &column.data {
        ColumnData::Float(values) => {
            out.push(DTYPE_FLOAT);
            put_u64(out, values.len() as u64);
            put_f64s(out, values);
        }
        ColumnData::Id(values) => {
            out.push(DTYPE_ID);
            put_u64(out, values.len() as u64);
            put_u64s(out, values);
        }
    }
}

/// Serialize a dataset into segment bytes. Sections are emitted in a fixed,
/// deterministic order (meta, columns in table order, indexes by name, range
/// bitmaps by name, the identifier index, zone maps in table order), so
/// identical datasets always produce identical bytes — the property the
/// golden-file tests pin. The format version is v1 unless some index carries
/// the range encoding, in which case v2 is written (extra meta tally plus
/// one kind-6 section per range-encoded index).
pub fn encode_segment(dataset: &Dataset) -> Vec<u8> {
    use fastbit::persist::encode_range_bitmaps;
    use fastbit::ColumnProvider;

    let table = dataset.table();
    let index_entries = dataset.index_entries();
    let range_entries: Vec<(&str, &[fastbit::Wah])> = index_entries
        .iter()
        .filter_map(|(name, idx)| idx.range_bitmaps().map(|c| (*name, c)))
        .collect();
    // Built through the dataset's cache, so a save after queries reuses the
    // maps those queries already built (and vice versa on load).
    let zone_maps: Vec<(&str, Arc<fastbit::ZoneMaps>)> = table
        .columns()
        .iter()
        .filter(|c| c.data.as_float().is_some())
        .filter_map(|c| {
            let maps = dataset.zone_maps(&c.name, STORE_ZONE_CHUNK_ROWS)?;
            Some((c.name.as_str(), maps))
        })
        .collect();
    // Format v2 appends the range-index section tally to the meta payload;
    // v1 metas stop before it so v1 bytes stay pinned.
    let version = if range_entries.is_empty() {
        SEGMENT_VERSION
    } else {
        SEGMENT_VERSION_RANGE
    };
    let id_index = dataset.id_index();
    let section_count = 1
        + table.num_columns()
        + index_entries.len()
        + range_entries.len()
        + usize::from(id_index.is_some())
        + zone_maps.len();

    // The resident size is within a few percent of the encoded size (same
    // columns, same compressed words): a capacity hint that all but rules
    // out regrowing a multi-megabyte buffer.
    let mut w = SegmentWriter::new(version, section_count, dataset.resident_size_bytes());
    w.section(KIND_META, |out| {
        put_u64(out, dataset.step() as u64);
        put_u64(out, dataset.num_particles() as u64);
        put_u32(out, table.num_columns() as u32);
        put_u32(out, index_entries.len() as u32);
        put_u32(out, zone_maps.len() as u32);
        out.push(id_index.is_some() as u8);
        if version == SEGMENT_VERSION_RANGE {
            put_u32(out, range_entries.len() as u32);
        }
    });
    for column in table.columns() {
        w.section(KIND_COLUMN, |out| encode_column(column, out));
    }
    for (name, idx) in &index_entries {
        w.section(KIND_INDEX, |out| {
            put_str(out, name);
            encode_index(idx, out);
        });
    }
    for (name, cumulative) in &range_entries {
        w.section(KIND_RANGE_INDEX, |out| {
            put_str(out, name);
            encode_range_bitmaps(cumulative, out);
        });
    }
    if let Some(id_index) = id_index {
        w.section(KIND_ID_INDEX, |out| encode_id_index(id_index, out));
    }
    for (name, maps) in &zone_maps {
        w.section(KIND_ZONE_MAPS, |out| {
            put_str(out, name);
            encode_zone_maps(maps, out);
        });
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Segment decoding
// ---------------------------------------------------------------------------

/// Where a segment's bytes come from. Decoding asks for one region at a time
/// — header, section table, then each payload — so a source backed by a file
/// never holds more than the largest of them.
trait SegmentSource {
    /// Total length of the segment in bytes.
    fn len(&self) -> u64;

    /// The bytes of `[offset, offset + len)`, which the caller has checked
    /// to lie within [`SegmentSource::len`]; valid until the next call.
    fn region(&mut self, offset: u64, len: usize) -> StoreResult<&[u8]>;
}

impl SegmentSource for &[u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn region(&mut self, offset: u64, len: usize) -> StoreResult<&[u8]> {
        let start = offset as usize;
        Ok(&self[start..start + len])
    }
}

/// A segment file read region by region into one reused buffer.
struct SegmentFile {
    file: std::fs::File,
    len: u64,
    /// File position after the last read; segments are laid out in table
    /// order, so a well-formed one is read front to back without a seek.
    pos: u64,
    buf: Vec<u8>,
}

impl SegmentFile {
    fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            len,
            pos: 0,
            buf: Vec::new(),
        })
    }
}

impl SegmentSource for SegmentFile {
    fn len(&self) -> u64 {
        self.len
    }

    fn region(&mut self, offset: u64, len: usize) -> StoreResult<&[u8]> {
        if offset != self.pos {
            self.file.seek(SeekFrom::Start(offset))?;
        }
        // Grown to the largest region so far, never shrunk: no re-zeroing.
        if self.buf.len() < len {
            self.buf.resize(len, 0);
        }
        self.file.read_exact(&mut self.buf[..len])?;
        self.pos = offset + len as u64;
        Ok(&self.buf[..len])
    }
}

/// The stages a load alternates between, section after section.
#[derive(Clone, Copy)]
enum Stage {
    Read,
    Verify,
    Decode,
}

/// Time per [`Stage`] summed over one load's sections, reported on drop as
/// three closed children of the open trace span. Takes no timestamps when
/// the request is not traced.
struct StageTimes {
    last: Option<Instant>,
    spent: [Duration; 3],
}

impl StageTimes {
    fn start() -> Self {
        Self {
            last: obs::is_active().then(Instant::now),
            spent: [Duration::ZERO; 3],
        }
    }

    /// Charge the time since the previous lap to `stage`.
    fn lap(&mut self, stage: Stage) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.spent[stage as usize] += now - *last;
            *last = now;
        }
    }
}

impl Drop for StageTimes {
    /// Report the stages, however the load ended.
    fn drop(&mut self) {
        if self.last.is_some() {
            for (name, spent) in ["read", "verify", "decode"].into_iter().zip(self.spent) {
                obs::record(name, spent);
            }
        }
    }
}

struct SectionEntry {
    kind: u32,
    offset: u64,
    len: usize,
    crc: u32,
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_META => "meta",
        KIND_COLUMN => "column",
        KIND_INDEX => "index",
        KIND_ID_INDEX => "id index",
        KIND_ZONE_MAPS => "zone maps",
        KIND_RANGE_INDEX => "range index",
        _ => "unknown",
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Read one section's payload and verify its checksum.
fn fetch<'s>(
    src: &'s mut impl SegmentSource,
    entry: &SectionEntry,
    stages: &mut StageTimes,
) -> StoreResult<&'s [u8]> {
    let payload = src.region(entry.offset, entry.len)?;
    stages.lap(Stage::Read);
    let found = crc32(payload);
    stages.lap(Stage::Verify);
    if found != entry.crc {
        return Err(StoreError::ChecksumMismatch {
            region: kind_name(entry.kind),
            expected: entry.crc,
            found,
        });
    }
    Ok(payload)
}

fn decode_column(payload: &[u8], expected_rows: u64) -> StoreResult<Column> {
    let mut r = Reader::new(payload);
    let name = r.str("column name")?;
    let dtype = r.u8("column dtype")?;
    let rows = r.u64("column row count")?;
    if rows != expected_rows {
        return Err(StoreError::Corrupt(format!(
            "column '{name}' declares {rows} row(s), segment meta says {expected_rows}"
        )));
    }
    let data = match dtype {
        DTYPE_FLOAT => ColumnData::Float(r.f64s(rows, "column values")?),
        DTYPE_ID => ColumnData::Id(r.u64s(rows, "column values")?),
        other => {
            return Err(StoreError::Corrupt(format!(
                "column '{name}' has unknown dtype tag {other}"
            )))
        }
    };
    r.expect_end("column")?;
    Ok(Column { name, data })
}

/// Parse and validate segment bytes into a [`Dataset`]. Every check —
/// magic, version, section-table CRC, per-section bounds and CRCs, payload
/// structure, cross-section consistency — happens before construction.
pub fn decode_segment(mut bytes: &[u8]) -> StoreResult<Dataset> {
    decode_from(&mut bytes, None, true)
}

/// Parse and validate only what an identifier lookup needs from segment
/// bytes: the header, the section table, the meta section and the
/// identifier-index section, each checked exactly as [`decode_segment`]
/// checks it. The other sections' payloads are never read.
pub fn decode_segment_id_index(mut bytes: &[u8]) -> StoreResult<fastbit::IdIndex> {
    read_id_index_from(&mut bytes)?
        .1
        .ok_or(StoreError::SectionCount {
            section: "id index",
            found: 0,
            expected: 1,
        })
}

/// A segment's header, section table and meta section, validated — the one
/// validator that both [`decode_from`] and [`read_id_index_from`] run
/// before touching any other payload.
struct SegmentHead {
    /// Every table entry, bounds- and kind-checked, in table order.
    entries: Vec<SectionEntry>,
    /// The step recorded in meta.
    step: u64,
    /// The row count recorded in meta, which every section must match.
    num_rows: u64,
}

/// Read and validate the header, the section table and the meta section;
/// the table's per-kind section counts are held to meta's tallies here, so
/// a reader that skips sections still rejects a segment whose table lies.
fn read_head(src: &mut impl SegmentSource, stages: &mut StageTimes) -> StoreResult<SegmentHead> {
    let file_len = src.len();
    if file_len < HEADER_LEN as u64 {
        return Err(StoreError::Truncated {
            what: "segment header",
            needed: HEADER_LEN as u64,
            available: file_len,
        });
    }
    let header = src.region(0, HEADER_LEN)?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if &magic != SEGMENT_MAGIC {
        return Err(StoreError::BadMagic(magic));
    }
    let version = le_u32(&header[4..8]);
    if version != SEGMENT_VERSION && version != SEGMENT_VERSION_RANGE {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let has_range_sections = version == SEGMENT_VERSION_RANGE;
    let section_count = le_u32(&header[8..12]);
    let table_crc = le_u32(&header[12..16]);
    // Checked against the file before the table is read or entries reserved.
    let table_len = section_count as u64 * TABLE_ENTRY_LEN as u64;
    if file_len - (HEADER_LEN as u64) < table_len {
        return Err(StoreError::Truncated {
            what: "section table",
            needed: table_len,
            available: file_len - HEADER_LEN as u64,
        });
    }
    let table_bytes = src.region(HEADER_LEN as u64, table_len as usize)?;
    stages.lap(Stage::Read);
    let found = crc32(table_bytes);
    stages.lap(Stage::Verify);
    if found != table_crc {
        return Err(StoreError::ChecksumMismatch {
            region: "section table",
            expected: table_crc,
            found,
        });
    }

    let payload_start = HEADER_LEN as u64 + table_len;
    let mut entries = Vec::with_capacity(section_count as usize);
    for chunk in table_bytes.chunks_exact(TABLE_ENTRY_LEN) {
        let (kind, offset, len) = (
            le_u32(&chunk[0..4]),
            le_u64(&chunk[4..12]),
            le_u64(&chunk[12..20]),
        );
        let in_file =
            offset >= payload_start && offset.checked_add(len).is_some_and(|end| end <= file_len);
        let (true, Ok(len_bytes)) = (in_file, usize::try_from(len)) else {
            return Err(StoreError::SectionBounds {
                kind,
                offset,
                len,
                file_len,
            });
        };
        let kind_ok = matches!(
            kind,
            KIND_META | KIND_COLUMN | KIND_INDEX | KIND_ID_INDEX | KIND_ZONE_MAPS
        ) || (kind == KIND_RANGE_INDEX && has_range_sections);
        if !kind_ok {
            return Err(StoreError::BadSectionKind(kind));
        }
        entries.push(SectionEntry {
            kind,
            offset,
            len: len_bytes,
            crc: le_u32(&chunk[20..24]),
        });
    }

    // Meta first: exactly one, and it anchors every cross-check.
    let tally = |kind: u32| entries.iter().filter(|e| e.kind == kind).count();
    let meta_count = tally(KIND_META);
    let Some(meta) = entries
        .iter()
        .find(|e| e.kind == KIND_META && meta_count == 1)
    else {
        return Err(StoreError::SectionCount {
            section: "meta",
            found: meta_count,
            expected: 1,
        });
    };
    let mut r = Reader::new(fetch(src, meta, stages)?);
    let step = r.u64("meta step")?;
    let num_rows = r.u64("meta row count")?;
    let column_tally = r.u32("meta column tally")?;
    let index_tally = r.u32("meta index tally")?;
    let zone_tally = r.u32("meta zone-map tally")?;
    let has_id_index = match r.u8("meta id-index flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::Corrupt(format!(
                "meta id-index flag must be 0 or 1, found {other}"
            )))
        }
    };
    let range_tally = if has_range_sections {
        r.u32("meta range-index tally")?
    } else {
        0
    };
    r.expect_end("meta")?;
    stages.lap(Stage::Decode);

    let (columns, indexes, zones, ranges, id_indexes) = (
        tally(KIND_COLUMN),
        tally(KIND_INDEX),
        tally(KIND_ZONE_MAPS),
        tally(KIND_RANGE_INDEX),
        tally(KIND_ID_INDEX),
    );
    if id_indexes > 1 {
        return Err(StoreError::SectionCount {
            section: "id index",
            found: id_indexes,
            expected: 1,
        });
    }
    if columns != column_tally as usize
        || indexes != index_tally as usize
        || zones != zone_tally as usize
        || ranges != range_tally as usize
        || (id_indexes == 1) != has_id_index
    {
        return Err(StoreError::Corrupt(format!(
            "section tallies disagree with meta: {columns} column(s) (meta {column_tally}), \
             {indexes} index(es) (meta {index_tally}), {zones} zone map(s) (meta {zone_tally}), \
             {ranges} range index(es) (meta {range_tally}), id index {} (meta {has_id_index})",
            id_indexes == 1
        )));
    }
    Ok(SegmentHead {
        entries,
        step,
        num_rows,
    })
}

/// Decode an identifier-index payload, held to the meta row count.
fn decode_id_index(payload: &[u8], num_rows: u64) -> StoreResult<fastbit::IdIndex> {
    let mut r = Reader::new(payload);
    let idx = persist::read_id_index(&mut r)?;
    r.expect_end("id index")?;
    if idx.num_rows() as u64 != num_rows {
        return Err(StoreError::Corrupt(format!(
            "id index covers {} row(s), segment meta says {num_rows}",
            idx.num_rows()
        )));
    }
    Ok(idx)
}

/// The identifier-index reader: the validated head, then the one id-index
/// payload, read and checked — every other section is skipped unread.
/// Returns the step meta records with the index, `None` when the segment
/// holds no identifier index.
fn read_id_index_from(
    src: &mut impl SegmentSource,
) -> StoreResult<(u64, Option<fastbit::IdIndex>)> {
    let stages = &mut StageTimes::start();
    let head = read_head(src, stages)?;
    let Some(entry) = head.entries.iter().find(|e| e.kind == KIND_ID_INDEX) else {
        return Ok((head.step, None));
    };
    let idx = decode_id_index(fetch(src, entry, stages)?, head.num_rows)?;
    stages.lap(Stage::Decode);
    Ok((head.step, Some(idx)))
}

/// The name a column, index or range-index payload opens with, read alone
/// (unchecked: see [`projected_sections`]).
fn peek_name(src: &mut impl SegmentSource, entry: &SectionEntry) -> StoreResult<Vec<u8>> {
    let truncated = |needed: u64| StoreError::Truncated {
        what: "section name",
        needed,
        available: entry.len as u64,
    };
    if entry.len < 4 {
        return Err(truncated(4));
    }
    let len = le_u32(src.region(entry.offset, 4)?) as usize;
    if len > entry.len - 4 {
        return Err(truncated(4 + len as u64));
    }
    Ok(src.region(entry.offset + 4, len)?.to_vec())
}

/// Which sections a load projected on `projection` reads by name: for each
/// entry, whether it is a column section — or, with indexes, an index
/// section — whose payload opens with a projected name. The
/// names are read before any payload is checksummed, so a damaged one can
/// select an unwanted section, whose checksum then fails, or hide a wanted
/// one: a hidden column is missing from the table, and an index whose name
/// is no column's fails here, so a damaged name never drops a projected
/// column's index unnoticed.
fn projected_sections(
    src: &mut impl SegmentSource,
    entries: &[SectionEntry],
    projection: &[&str],
    with_indexes: bool,
) -> StoreResult<Vec<bool>> {
    let mut names = Vec::with_capacity(entries.len());
    for entry in entries {
        let named = match entry.kind {
            KIND_COLUMN => true,
            KIND_INDEX => with_indexes,
            _ => false,
        };
        names.push(if named {
            Some(peek_name(src, entry)?)
        } else {
            None
        });
    }
    let columns: Vec<&[u8]> = entries
        .iter()
        .zip(&names)
        .filter(|(e, _)| e.kind == KIND_COLUMN)
        .filter_map(|(_, n)| n.as_deref())
        .collect();
    let orphan = entries.iter().zip(&names).find(|(e, n)| {
        e.kind != KIND_COLUMN && n.as_deref().is_some_and(|n| !columns.contains(&n))
    });
    if let Some((entry, _)) = orphan {
        return Err(StoreError::Corrupt(format!(
            "{} section names no column",
            kind_name(entry.kind)
        )));
    }
    Ok(names
        .iter()
        .map(|n| {
            n.as_deref()
                .is_some_and(|n| projection.iter().any(|p| p.as_bytes() == n))
        })
        .collect())
}

/// The one segment decoder, fed region by region: the validated head
/// first, then one pass per remaining section it reads (read, CRC,
/// validate, construct).
///
/// `projection` names the columns to read, in the order the table gets
/// them (all, in file order, when `None`); a named column the segment does
/// not hold is left for the caller to report. `with_indexes` adds the read
/// columns' bitmap indexes and, when `id` is read, the identifier index.
/// Zone maps and the indexes' range encodings come with a full load only:
/// a projected load decodes and checks no cumulative bitmap. The stage times go to the open
/// trace span (see [`StageTimes`]).
fn decode_from(
    src: &mut impl SegmentSource,
    projection: Option<&[&str]>,
    with_indexes: bool,
) -> StoreResult<Dataset> {
    let stages = &mut StageTimes::start();
    let SegmentHead {
        entries,
        step,
        num_rows,
    } = read_head(src, stages)?;

    let projected = match projection {
        Some(names) => Some(projected_sections(src, &entries, names, with_indexes)?),
        None => None,
    };
    let mut columns = Vec::new();
    let mut indexes: Vec<(String, fastbit::BitmapIndex)> = Vec::new();
    let mut id_index = None;
    let mut zone_maps: Vec<(String, fastbit::ZoneMaps)> = Vec::new();
    let mut range_sections: Vec<(String, Vec<fastbit::Wah>)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let wanted = match entry.kind {
            KIND_META => false,
            KIND_ID_INDEX => with_indexes && projection.is_none_or(|p| p.contains(&"id")),
            KIND_ZONE_MAPS => projection.is_none(),
            KIND_RANGE_INDEX => with_indexes && projection.is_none(),
            // Columns, and with indexes their bitmap sections.
            kind => {
                (kind == KIND_COLUMN || with_indexes)
                    && projected.as_ref().is_none_or(|projected| projected[i])
            }
        };
        if !wanted {
            continue;
        }
        let payload = fetch(src, entry, stages)?;
        match entry.kind {
            KIND_COLUMN => columns.push(decode_column(payload, num_rows)?),
            KIND_INDEX => {
                let mut r = Reader::new(payload);
                let name = r.str("index name")?;
                let idx = persist::read_index(&mut r)?;
                r.expect_end("index")?;
                if idx.num_rows() as u64 != num_rows {
                    return Err(StoreError::Corrupt(format!(
                        "index '{name}' covers {} row(s), segment meta says {num_rows}",
                        idx.num_rows()
                    )));
                }
                if indexes.iter().any(|(n, _)| *n == name) {
                    return Err(StoreError::Corrupt(format!("duplicate index '{name}'")));
                }
                indexes.push((name, idx));
            }
            KIND_ID_INDEX => id_index = Some(decode_id_index(payload, num_rows)?),
            KIND_ZONE_MAPS => {
                let mut r = Reader::new(payload);
                let name = r.str("zone map name")?;
                let maps = persist::read_zone_maps(&mut r)?;
                r.expect_end("zone maps")?;
                if maps.num_rows() as u64 != num_rows {
                    return Err(StoreError::Corrupt(format!(
                        "zone maps '{name}' cover {} row(s), segment meta says {num_rows}",
                        maps.num_rows()
                    )));
                }
                zone_maps.push((name, maps));
            }
            KIND_RANGE_INDEX => {
                let mut r = Reader::new(payload);
                let name = r.str("range index name")?;
                let cumulative = persist::read_range_bitmaps(&mut r)?;
                r.expect_end("range index")?;
                if range_sections.iter().any(|(n, _)| *n == name) {
                    return Err(StoreError::Corrupt(format!(
                        "duplicate range index '{name}'"
                    )));
                }
                range_sections.push((name, cumulative));
            }
            other => return Err(StoreError::BadSectionKind(other)),
        }
        stages.lap(Stage::Decode);
    }

    // Attach the cumulative bitmaps to their owning indexes; the attach
    // validates lengths, counts and the cumulative ORs word for word, so a
    // structurally valid but semantically impossible section is rejected
    // here rather than corrupting query answers later.
    for (name, cumulative) in range_sections {
        let Some((_, idx)) = indexes.iter_mut().find(|(n, _)| *n == name) else {
            return Err(StoreError::Corrupt(format!(
                "range index '{name}' has no matching bitmap index"
            )));
        };
        idx.attach_range_bitmaps(cumulative).map_err(|e| {
            StoreError::Corrupt(format!("range index '{name}' is inconsistent: {e}"))
        })?;
    }

    if let Some(names) = projection {
        columns.sort_by_key(|c: &Column| names.iter().position(|n| *n == c.name));
    }
    let table = ParticleTable::from_columns(columns)
        .map_err(|e| StoreError::Corrupt(format!("column set does not form a table: {e}")))?;
    // A projection may name no column the segment holds; every column read
    // was held to the meta row count already.
    if projection.is_none() && table.num_rows() as u64 != num_rows {
        return Err(StoreError::Corrupt(format!(
            "table holds {} row(s), segment meta says {num_rows}",
            table.num_rows()
        )));
    }
    for (name, _) in &indexes {
        if table.column(name).and_then(|c| c.data.as_float()).is_none() {
            return Err(StoreError::Corrupt(format!(
                "index '{name}' has no matching float column"
            )));
        }
    }
    let mut dataset = Dataset::from_table(table, step as usize);
    dataset.attach_indexes(indexes);
    if let Some(idx) = id_index {
        dataset.attach_id_index(idx);
    }
    for (name, maps) in zone_maps {
        dataset.attach_zone_maps(name, Arc::new(maps));
    }
    stages.lap(Stage::Decode);
    Ok(dataset)
}

/// A segment whose recorded step disagrees with its file name (a misplaced
/// backup/restore) is corrupt for this slot: serving it would silently
/// answer step `step` with another step's data.
fn check_step(step: usize, recorded: u64) -> StoreResult<()> {
    if recorded != step as u64 {
        return Err(StoreError::Corrupt(format!(
            "segment for step {step} holds step {recorded}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Segment files and the write-back policy
// ---------------------------------------------------------------------------

/// Point-in-time snapshot of store effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Full loads and identifier-index reads served from the timestep file
    /// as it was.
    pub hits: u64,
    /// Full loads that found no bitmap index in the timestep file, built
    /// what it lacked and rewrote it.
    pub misses: u64,
    /// Total timestep-file bytes rewritten over the store's lifetime.
    pub bytes_written: u64,
    /// Bitmap indexes built because a full load found none in the file —
    /// exactly zero across a fully warm restart.
    pub indexes_built: u64,
}

/// Write `bytes` to `path` through a uniquely named `<path>.<pid>.<n>.tmp`
/// file renamed into place, so no reader ever sees a torn file and a crash
/// mid-write leaves only a temp file behind.
///
/// `durable` also syncs the temp file before the rename and the directory
/// after it, so a power loss leaves the old file or the whole new one,
/// never a renamed file whose data never reached the disk. Write-back asks
/// for it: it replaces the only copy of a timestep. Ingest does not: its
/// table is still at hand, and a file it leaves torn is a typed error
/// (every section is checksummed), never rows, until ingest runs again.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8], durable: bool) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = write_file(&tmp, bytes, durable).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written?;
    if durable {
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// Create `path` holding `bytes`, flushed to the disk when `durable`.
fn write_file(path: &Path, bytes: &[u8], durable: bool) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    if durable {
        file.sync_all()?;
    }
    Ok(())
}

/// Flush the directory entry of `path` (the rename) to the disk.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    std::fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()
}

/// Off Unix a directory cannot be opened to sync it; the rename's
/// durability is left to the platform.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Open the segment file at `path`, noting its size on the open trace span.
fn open_segment(path: &Path) -> io::Result<SegmentFile> {
    let source = SegmentFile::open(path)?;
    obs::note("bytes", || source.len.to_string());
    Ok(source)
}

/// Read the segment file at `path`, which must hold step `step`, decoding
/// only what `projection` and `with_indexes` select (see [`decode_from`]).
pub(crate) fn read_segment(
    path: &Path,
    step: usize,
    projection: Option<&[&str]>,
    with_indexes: bool,
) -> StoreResult<Dataset> {
    let dataset = decode_from(&mut open_segment(path)?, projection, with_indexes)?;
    check_step(step, dataset.step() as u64)?;
    Ok(dataset)
}

/// Read only the identifier index of the segment file at `path`, which must
/// hold step `step`: `None` when the segment has none.
pub(crate) fn read_segment_id_index(
    path: &Path,
    step: usize,
) -> StoreResult<Option<fastbit::IdIndex>> {
    let (recorded, idx) = read_id_index_from(&mut open_segment(path)?)?;
    check_step(step, recorded)?;
    Ok(idx)
}

/// The write-back policy of a store-attached catalog: the binning a full
/// load builds missing indexes with, and counters of what loads did. It
/// holds no files: a completed timestep is written back over its own
/// catalog file.
#[derive(Debug)]
pub struct Store {
    binning: Binning,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    indexes_built: AtomicU64,
}

impl Store {
    /// A write-back policy with the default binning (256 equal-width bins).
    /// `dir` is neither created nor read: every segment lives in its
    /// catalog's directory. Never fails; the `Result` keeps the signature
    /// callers already handle.
    pub fn open(_dir: impl Into<PathBuf>) -> StoreResult<Self> {
        Ok(Self {
            binning: Binning::EqualWidth { bins: 256 },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            indexes_built: AtomicU64::new(0),
        })
    }

    /// Binning used when a full load has to build indexes before write-back.
    pub fn with_binning(mut self, binning: Binning) -> Self {
        self.binning = binning;
        self
    }

    /// The index-build binning strategy.
    pub fn binning(&self) -> &Binning {
        &self.binning
    }

    /// Record a load served from the file as it was.
    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a load that built `indexes_built` indexes and rewrote its file
    /// with `bytes` bytes (0 when the write failed).
    pub(crate) fn note_write_back(&self, indexes_built: u64, bytes: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.indexes_built
            .fetch_add(indexes_built, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            indexes_built: self.indexes_built.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, DataStoreError};
    use histogram::Binning;

    fn sample_dataset(n: usize, step: usize) -> Dataset {
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 10.0).collect();
        if n > 8 {
            x[2] = f64::NAN;
            x[5] = f64::INFINITY;
            x[7] = f64::NEG_INFINITY;
        }
        let px: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let id: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let table = ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("px", px),
            Column::id("id", id),
        ])
        .unwrap();
        let mut ds = Dataset::from_table(table, step);
        ds.build_indexes(&Binning::EqualWidth { bins: 8 }).unwrap();
        ds.build_id_index().unwrap();
        ds
    }

    /// An empty catalog directory for one test.
    fn temp_catalog(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdx_store_unit_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Place `bytes` as timestep `step`'s file of the catalog in `dir`.
    fn place(dir: &Path, step: usize, bytes: &[u8]) -> PathBuf {
        let path = dir.join(format!("timestep_{step:05}.vdx"));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise definition of CRC-32, kept as the oracle the kernel and
    /// the table fallback are held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// A seeded xorshift buffer of 3 MiB.
    fn crc_buffer() -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..3 << 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_definition_at_every_length_and_offset() {
        // Every length 0..=1100 at every start offset within a block: below
        // and across the kernel's 128-byte threshold, every count of 64-byte
        // folds up to 17, and every 16-byte and sub-16-byte tail after them.
        let buffer = crc_buffer();
        for offset in 0..16 {
            for len in 0..=1100 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer), "3 MiB buffer");
        assert_eq!(crc32(&buffer[5..]), crc32_bytewise(&buffer[5..]));
    }

    #[test]
    fn crc32_table_fallback_equals_the_bytewise_definition() {
        // Where the kernel runs it shadows the table for inputs of 128 bytes
        // or more, so the fallback is held to the oracle directly.
        let table = |bytes: &[u8]| !crc32_update_table(0xFFFF_FFFF, bytes);
        let buffer = crc_buffer();
        for offset in 0..16 {
            for len in 0..=600 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    table(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(table(&buffer[3..]), crc32_bytewise(&buffer[3..]));
        assert_eq!(table(b"123456789"), 0xCBF4_3926);
    }

    /// A v1 dataset and the same one with range encodings (v2).
    fn v1_and_v2(n: usize, step: usize) -> [Dataset; 2] {
        let v1 = sample_dataset(n, step);
        let mut v2 = sample_dataset(n, step);
        assert_eq!(v2.build_range_encodings(), 2);
        [v1, v2]
    }

    #[test]
    fn streamed_load_and_in_memory_decode_build_the_same_dataset() {
        let dir = temp_catalog("streamed");
        for (version, ds) in (1u8..).zip(v1_and_v2(700, 3)) {
            let bytes = encode_segment(&ds);
            assert_eq!(bytes[4], version);
            place(&dir, 3, &bytes);
            let streamed = Catalog::open(&dir).unwrap().load(3, None, true).unwrap();
            let in_memory = decode_segment(&bytes).unwrap();
            assert_eq!(encode_segment(&streamed), bytes, "v{version} streamed");
            assert_eq!(encode_segment(&in_memory), bytes, "v{version} in memory");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sections_out_of_file_order_load_identically_from_disk() {
        // A foreign writer may lay payloads out in any order. Move the meta
        // payload (first in our layout) to the end of the file: the file
        // source must seek there and back, and agree with the in-memory one.
        let dir = temp_catalog("reordered");
        for ds in v1_and_v2(300, 6) {
            let bytes = encode_segment(&ds);
            let count = le_u32(&bytes[8..12]) as usize;
            let payload_start = HEADER_LEN + count * TABLE_ENTRY_LEN;
            assert_eq!(le_u32(&bytes[HEADER_LEN..HEADER_LEN + 4]), KIND_META);
            let meta_len = le_u64(&bytes[HEADER_LEN + 12..HEADER_LEN + 20]) as usize;
            let mut moved = bytes[..payload_start].to_vec();
            moved.extend_from_slice(&bytes[payload_start + meta_len..]);
            moved.extend_from_slice(&bytes[payload_start..payload_start + meta_len]);
            for i in 0..count {
                let at = HEADER_LEN + i * TABLE_ENTRY_LEN + 4;
                let offset = if i == 0 {
                    (bytes.len() - meta_len) as u64
                } else {
                    le_u64(&bytes[at..at + 8]) - meta_len as u64
                };
                moved[at..at + 8].copy_from_slice(&offset.to_le_bytes());
            }
            let table_crc = crc32(&moved[HEADER_LEN..payload_start]);
            moved[12..16].copy_from_slice(&table_crc.to_le_bytes());
            place(&dir, 6, &moved);
            let streamed = Catalog::open(&dir).unwrap().load(6, None, true).unwrap();
            assert_eq!(encode_segment(&streamed), bytes);
            assert_eq!(encode_segment(&decode_segment(&moved).unwrap()), bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projected_indexed_loads_decode_no_range_section() {
        // Range encodings come with a full load only: a projected indexed
        // load reads the equality index and leaves the cumulative bitmaps.
        let dir = temp_catalog("projected_ranges");
        let [_, v2] = v1_and_v2(300, 4);
        place(&dir, 4, &encode_segment(&v2));
        let catalog = Catalog::open(&dir).unwrap();
        let has_ranges = |ds: &Dataset| {
            ds.index_entries()
                .iter()
                .map(|(name, idx)| (name.to_string(), idx.range_bitmaps().is_some()))
                .collect::<Vec<_>>()
        };
        let projected = catalog.load(4, Some(&["x", "id"]), true).unwrap();
        assert_eq!(has_ranges(&projected), [("x".to_string(), false)]);
        assert!(projected.id_index().is_some());
        let full = catalog.load(4, None, true).unwrap();
        assert_eq!(
            has_ranges(&full),
            [("px".to_string(), true), ("x".to_string(), true)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_roundtrip_preserves_everything() {
        let ds = sample_dataset(64, 9);
        let bytes = encode_segment(&ds);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back.step(), 9);
        assert_eq!(back.num_particles(), 64);
        assert_eq!(back.indexed_columns(), ds.indexed_columns());
        assert_eq!(
            back.table().id_column("id").unwrap(),
            ds.table().id_column("id").unwrap()
        );
        // Float columns bit-exact, NaN included.
        for name in ["x", "px"] {
            let a = back.table().float_column(name).unwrap();
            let b = ds.table().float_column(name).unwrap();
            assert_eq!(a.len(), b.len());
            assert!(a
                .iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        // Query results identical.
        let sel_a = back.query_str("x > -5 && px < 60").unwrap();
        let sel_b = ds.query_str("x > -5 && px < 60").unwrap();
        assert_eq!(sel_a.to_rows(), sel_b.to_rows());
        // Zone maps came back attached at the store chunk size.
        use fastbit::ColumnProvider;
        let maps = back.zone_maps("x", STORE_ZONE_CHUNK_ROWS).unwrap();
        assert_eq!(maps.num_rows(), 64);
        // Id index survived.
        assert!(back.id_index().is_some());
        assert_eq!(
            back.select_ids(&[1, 4, 190]).unwrap().to_rows(),
            ds.select_ids(&[1, 4, 190]).unwrap().to_rows()
        );
    }

    #[test]
    fn save_load_through_directory_counts_stats() {
        // A timestep written without indexes: the first full load with a
        // store attached builds them and writes the file back, the next
        // serves it as is.
        let dir = temp_catalog("saveload");
        let bare = Dataset::from_table(sample_dataset(32, 4).table().clone(), 4);
        let path = place(&dir, 4, &encode_segment(&bare));
        let mut catalog = Catalog::open(&dir).unwrap();
        catalog.attach_store(Store::open(dir.join("unused")).unwrap());
        let cold = catalog.load(4, None, true).unwrap();
        assert_eq!(cold.num_particles(), 32);
        assert_eq!(cold.indexed_columns(), vec!["px", "x"]);
        let written = std::fs::read(&path).unwrap();
        assert_eq!(written, encode_segment(&cold), "the file is the load");
        let stats = catalog.store().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.indexes_built), (0, 1, 2));
        assert_eq!(stats.bytes_written, written.len() as u64);

        let warm = catalog.load(4, None, true).unwrap();
        assert_eq!(encode_segment(&warm), written);
        assert!(catalog.load(5, None, true).is_err(), "no step 5");
        let stats = catalog.store().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes_written, written.len() as u64);
        assert!(!dir.join("unused").exists(), "the store makes no directory");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misplaced_segment_is_rejected_not_served() {
        let dir = temp_catalog("misplaced");
        let one = place(&dir, 1, &encode_segment(&sample_dataset(24, 1)));
        // A backup/restore mishap: step 1's file lands under step 2.
        std::fs::copy(&one, dir.join("timestep_00002.vdx")).unwrap();
        let catalog = Catalog::open(&dir).unwrap();
        for loaded in [
            catalog.load(2, None, true).map(|_| ()),
            catalog.load(2, Some(&["px"]), false).map(|_| ()),
            catalog.load_id_index(2).map(|_| ()),
        ] {
            let err = loaded.expect_err("wrong-step segment must not load");
            assert!(
                matches!(err, DataStoreError::Store(StoreError::Corrupt(_))),
                "{err:?}"
            );
        }
        assert_eq!(
            catalog.load(1, None, true).unwrap().num_particles(),
            24,
            "the real slot still works"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = temp_catalog("sweep");
        let tmp = dir.join("timestep_00002.vdx.123.0.tmp");
        std::fs::write(&tmp, encode_segment(&sample_dataset(16, 2))).unwrap();
        // Only a timestep write's temp files are the catalog's to sweep.
        let foreign = dir.join("notes.123.0.tmp");
        std::fs::write(&foreign, b"someone else's").unwrap();
        let catalog = Catalog::open(&dir).unwrap();
        assert!(!tmp.exists(), "crashed writer's temp file removed");
        assert!(foreign.exists(), "other temp files are left alone");
        assert!(catalog.steps().is_empty(), "tmp never read as data");
        assert!(catalog.load(2, None, true).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bytes_yield_typed_errors() {
        let ds = sample_dataset(16, 0);
        let bytes = encode_segment(&ds);
        assert!(matches!(
            decode_segment(b"NOPE"),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_segment(&bad_magic),
            Err(StoreError::BadMagic(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_segment(&bad_version),
            Err(StoreError::UnsupportedVersion(99))
        ));
        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0xFF;
        assert!(matches!(
            decode_segment(&flipped_payload),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}
