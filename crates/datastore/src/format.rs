//! Binary timestep file format.
//!
//! The paper stores each timestep in its own HDF5 file together with FastBit
//! index data, and reads it through a parallel I/O layer that only touches
//! the columns a computation actually needs. This module provides the
//! equivalent substrate:
//!
//! * `.vdc` files hold the columnar particle data with a self-describing
//!   header, so a reader can seek directly to any subset of columns
//!   (projection reads).
//! * `.vdi` sidecar files hold the per-column WAH bitmap indexes produced by
//!   the one-time preprocessing step, so queries at load time never rebuild
//!   indexes.
//!
//! All integers are little-endian. The formats are deliberately simple and
//! versioned; they are substrates for the experiments, not archival formats.
//! The decoders check every count against the bytes left in the file before
//! allocating for it, so a corrupt file is a [`DataStoreError::Format`].

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Take, Write};
use std::path::Path;

use fastbit::{BitmapIndex, Wah};
use histogram::BinEdges;

use crate::column::{Column, ColumnData};
use crate::error::{DataStoreError, Result};
use crate::table::ParticleTable;

const DATA_MAGIC: &[u8; 4] = b"VDXC";
const INDEX_MAGIC: &[u8; 4] = b"VDXI";
const FORMAT_VERSION: u32 = 1;

/// Column type tag stored in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DType {
    Float = 0,
    Id = 1,
}

/// Metadata of one stored column.
#[derive(Debug, Clone)]
pub struct ColumnEntry {
    /// Column name.
    pub name: String,
    /// Byte offset of the column data within the file.
    pub offset: u64,
    /// Number of rows.
    pub rows: u64,
    dtype: DType,
}

/// Parsed header of a `.vdc` file.
#[derive(Debug, Clone)]
pub struct TableHeader {
    /// Number of rows stored in every column.
    pub num_rows: u64,
    /// Per-column metadata in file order.
    pub columns: Vec<ColumnEntry>,
}

impl TableHeader {
    /// Names of all stored columns.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Low-level write/read helpers
// ---------------------------------------------------------------------------

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_f64(w: &mut impl Write, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_str(w: &mut impl Write, s: &str) -> Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f64(r: &mut impl Read) -> Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

fn read_str(r: &mut impl Read) -> Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(DataStoreError::Format(format!(
            "unreasonable string length {len}"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| DataStoreError::Format("invalid UTF-8 in name".into()))
}

/// Open `path` for sequential decoding. The reader's `limit()` is the number
/// of bytes left in the file, which [`fitting`] checks every count against.
fn open_sized(path: &Path) -> Result<Take<BufReader<File>>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    Ok(BufReader::new(file).take(len))
}

/// `count` as a length to allocate, or a `Format` error when `count` items
/// of at least `size` bytes each cannot fit in the `left` bytes the file
/// has after the cursor. Checked before allocating, so a corrupt header
/// field never sizes an allocation.
fn fitting(what: &str, count: u64, size: u64, left: u64) -> Result<usize> {
    match count.checked_mul(size) {
        Some(bytes) if bytes <= left => Ok(count as usize),
        _ => Err(DataStoreError::Format(format!(
            "{what} count {count} does not fit in the {left} bytes left"
        ))),
    }
}

// ---------------------------------------------------------------------------
// .vdc — columnar particle data
// ---------------------------------------------------------------------------

fn header_len(table: &ParticleTable) -> u64 {
    // magic + version + num_rows + num_columns
    let mut len = 4 + 4 + 8 + 4;
    for c in table.columns() {
        // name_len + name + dtype + offset
        len += 4 + c.name.len() as u64 + 1 + 8;
    }
    len
}

/// Write a particle table to `path` as a `.vdc` file.
pub fn write_table(path: &Path, table: &ParticleTable) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(DATA_MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_u64(&mut w, table.num_rows() as u64)?;
    write_u32(&mut w, table.num_columns() as u32)?;

    let mut offset = header_len(table);
    for c in table.columns() {
        write_str(&mut w, &c.name)?;
        let dtype = match c.data {
            ColumnData::Float(_) => DType::Float,
            ColumnData::Id(_) => DType::Id,
        };
        w.write_all(&[dtype as u8])?;
        write_u64(&mut w, offset)?;
        offset += c.data.byte_len() as u64;
    }
    for c in table.columns() {
        match &c.data {
            ColumnData::Float(v) => {
                for x in v {
                    write_f64(&mut w, *x)?;
                }
            }
            ColumnData::Id(v) => {
                for x in v {
                    write_u64(&mut w, *x)?;
                }
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Read only the header (column names, offsets, row count) of a `.vdc` file.
pub fn read_header(path: &Path) -> Result<TableHeader> {
    let mut r = open_sized(path)?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != DATA_MAGIC {
        return Err(DataStoreError::Format("bad magic, not a .vdc file".into()));
    }
    let version = read_u32(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(DataStoreError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let num_rows = read_u64(&mut r)?;
    // Each entry is at least a name length, a type tag and an offset.
    let num_columns = fitting("column", read_u32(&mut r)?.into(), 4 + 1 + 8, r.limit())?;
    let mut columns = Vec::with_capacity(num_columns);
    for _ in 0..num_columns {
        let name = read_str(&mut r)?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let dtype = match tag[0] {
            0 => DType::Float,
            1 => DType::Id,
            other => {
                return Err(DataStoreError::Format(format!(
                    "bad column type tag {other}"
                )))
            }
        };
        let offset = read_u64(&mut r)?;
        columns.push(ColumnEntry {
            name,
            offset,
            rows: num_rows,
            dtype,
        });
    }
    Ok(TableHeader { num_rows, columns })
}

/// Read a table from `path`, optionally restricted to a projection of column
/// names. With a projection, only the bytes of the requested columns are
/// read from disk (the property the paper's reader-level histogramming
/// relies on).
pub fn read_table(path: &Path, projection: Option<&[&str]>) -> Result<ParticleTable> {
    let header = read_header(path)?;
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let wanted: Vec<&ColumnEntry> = match projection {
        None => header.columns.iter().collect(),
        Some(names) => {
            let mut entries = Vec::with_capacity(names.len());
            for &n in names {
                let e = header
                    .columns
                    .iter()
                    .find(|c| c.name == n)
                    .ok_or_else(|| DataStoreError::UnknownColumn(n.to_string()))?;
                entries.push(e);
            }
            entries
        }
    };
    let mut columns = Vec::with_capacity(wanted.len());
    for entry in wanted {
        r.seek(SeekFrom::Start(entry.offset))?;
        let rows = fitting("row", entry.rows, 8, file_len.saturating_sub(entry.offset))?;
        let mut raw = vec![0u8; rows * 8];
        r.read_exact(&mut raw)?;
        let data = match entry.dtype {
            DType::Float => ColumnData::Float(
                raw.chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
            DType::Id => ColumnData::Id(
                raw.chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
        };
        columns.push(Column {
            name: entry.name.clone(),
            data,
        });
    }
    ParticleTable::from_columns(columns)
}

// ---------------------------------------------------------------------------
// .vdi — per-column bitmap indexes
// ---------------------------------------------------------------------------

/// Write the per-column bitmap indexes of one timestep to a `.vdi` file.
pub fn write_indexes(path: &Path, indexes: &[(String, BitmapIndex)]) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(INDEX_MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_u32(&mut w, indexes.len() as u32)?;
    for (name, idx) in indexes {
        write_str(&mut w, name)?;
        write_u64(&mut w, idx.num_rows() as u64)?;
        let boundaries = idx.edges().boundaries();
        write_u32(&mut w, boundaries.len() as u32)?;
        for b in boundaries {
            write_f64(&mut w, *b)?;
        }
        write_u32(&mut w, idx.num_bins() as u32)?;
        for bin in 0..idx.num_bins() {
            let bitmap = idx.bitmap(bin);
            write_u64(&mut w, bitmap.len())?;
            let words = bitmap.as_words();
            write_u32(&mut w, words.len() as u32)?;
            for word in words {
                write_u32(&mut w, *word)?;
            }
        }
        let unbinned = idx.unbinned_rows();
        write_u32(&mut w, unbinned.len() as u32)?;
        for row in unbinned {
            write_u32(&mut w, *row)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Read bitmap indexes from a `.vdi` file, optionally restricted to the named
/// columns.
pub fn read_indexes(
    path: &Path,
    projection: Option<&[&str]>,
) -> Result<Vec<(String, BitmapIndex)>> {
    let mut r = open_sized(path)?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != INDEX_MAGIC {
        return Err(DataStoreError::Format("bad magic, not a .vdi file".into()));
    }
    let version = read_u32(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(DataStoreError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let count = read_u32(&mut r)? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let name = read_str(&mut r)?;
        let num_rows = read_u64(&mut r)? as usize;
        let nb = fitting("boundary", read_u32(&mut r)?.into(), 8, r.limit())?;
        let mut boundaries = Vec::with_capacity(nb);
        for _ in 0..nb {
            boundaries.push(read_f64(&mut r)?);
        }
        // Each bin is at least a bit length and a word count.
        let num_bins = fitting("bin", read_u32(&mut r)?.into(), 8 + 4, r.limit())?;
        let mut bitmaps = Vec::with_capacity(num_bins);
        for _ in 0..num_bins {
            let nbits = read_u64(&mut r)?;
            let nwords = fitting("word", read_u32(&mut r)?.into(), 4, r.limit())?;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(read_u32(&mut r)?);
            }
            bitmaps.push(Wah::from_raw_parts(words, nbits));
        }
        let n_unbinned = fitting("unbinned row", read_u32(&mut r)?.into(), 4, r.limit())?;
        let mut unbinned = Vec::with_capacity(n_unbinned);
        for _ in 0..n_unbinned {
            unbinned.push(read_u32(&mut r)?);
        }
        let keep = projection
            .map(|names| names.contains(&name.as_str()))
            .unwrap_or(true);
        if keep {
            let edges = BinEdges::from_boundaries(boundaries)
                .map_err(|e| DataStoreError::Format(format!("bad index boundaries: {e}")))?;
            let index = BitmapIndex::from_parts(edges, bitmaps, num_rows, unbinned)?;
            out.push((name, index));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// .vdj — particle identifier index
// ---------------------------------------------------------------------------

const ID_INDEX_MAGIC: &[u8; 4] = b"VDXJ";

/// Write the particle identifier index of one timestep to a `.vdj` file.
pub fn write_id_index(path: &Path, index: &fastbit::IdIndex) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(ID_INDEX_MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_u64(&mut w, index.num_rows() as u64)?;
    write_u64(&mut w, index.pairs().len() as u64)?;
    for (id, row) in index.pairs() {
        write_u64(&mut w, *id)?;
        write_u32(&mut w, *row)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a particle identifier index from a `.vdj` file.
pub fn read_id_index(path: &Path) -> Result<fastbit::IdIndex> {
    let mut r = open_sized(path)?;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != ID_INDEX_MAGIC {
        return Err(DataStoreError::Format("bad magic, not a .vdj file".into()));
    }
    let version = read_u32(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(DataStoreError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let num_rows = read_u64(&mut r)? as usize;
    // Each pair is an 8-byte id and a 4-byte row.
    let count = fitting("pair", read_u64(&mut r)?, 8 + 4, r.limit())?;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let id = read_u64(&mut r)?;
        let row = read_u32(&mut r)?;
        pairs.push((id, row));
    }
    Ok(fastbit::IdIndex::from_sorted_pairs(pairs, num_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use histogram::Binning;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample_table(n: usize) -> ParticleTable {
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let px: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e10..1e11)).collect();
        let id: Vec<u64> = (0..n as u64).map(|i| i * 2 + 5).collect();
        ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("px", px),
            Column::id("id", id),
        ])
        .unwrap()
    }

    #[test]
    fn table_roundtrip() {
        let dir = std::env::temp_dir().join("vdx_format_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0.vdc");
        let table = sample_table(1234);
        write_table(&path, &table).unwrap();

        let header = read_header(&path).unwrap();
        assert_eq!(header.num_rows, 1234);
        assert_eq!(header.column_names(), vec!["x", "px", "id"]);

        let back = read_table(&path, None).unwrap();
        assert_eq!(back.num_rows(), 1234);
        assert_eq!(
            back.float_column("x").unwrap(),
            table.float_column("x").unwrap()
        );
        assert_eq!(
            back.float_column("px").unwrap(),
            table.float_column("px").unwrap()
        );
        assert_eq!(
            back.id_column("id").unwrap(),
            table.id_column("id").unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let dir = std::env::temp_dir().join("vdx_format_test_projection");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0.vdc");
        let table = sample_table(500);
        write_table(&path, &table).unwrap();

        let proj = read_table(&path, Some(&["px"])).unwrap();
        assert_eq!(proj.num_columns(), 1);
        assert_eq!(
            proj.float_column("px").unwrap(),
            table.float_column("px").unwrap()
        );
        assert!(read_table(&path, Some(&["missing"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_roundtrip_preserves_query_results() {
        let dir = std::env::temp_dir().join("vdx_format_test_index");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0.vdi");
        let table = sample_table(3000);
        let px = table.float_column("px").unwrap();
        let idx = BitmapIndex::build(px, &Binning::EqualWidth { bins: 64 }).unwrap();
        write_indexes(&path, &[("px".to_string(), idx.clone())]).unwrap();

        let loaded = read_indexes(&path, None).unwrap();
        assert_eq!(loaded.len(), 1);
        let (name, loaded_idx) = &loaded[0];
        assert_eq!(name, "px");
        assert_eq!(loaded_idx.num_rows(), idx.num_rows());
        assert_eq!(loaded_idx.bin_counts(), idx.bin_counts());
        let range = fastbit::ValueRange::gt(5e10);
        assert_eq!(
            loaded_idx.evaluate(&range, px).unwrap().to_rows(),
            idx.evaluate(&range, px).unwrap().to_rows()
        );
        // Projection filtering works too.
        assert!(read_indexes(&path, Some(&["other"])).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn id_index_roundtrip() {
        let dir = std::env::temp_dir().join("vdx_format_test_idindex");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t0.vdj");
        let ids: Vec<u64> = (0..5000u64).map(|i| (i * 37) % 9001).collect();
        let idx = fastbit::IdIndex::build(&ids);
        write_id_index(&path, &idx).unwrap();
        let back = read_id_index(&path).unwrap();
        assert_eq!(back.num_rows(), idx.num_rows());
        let query: Vec<u64> = vec![0, 37, 74, 8888, 123_456];
        assert_eq!(back.select(&query).to_rows(), idx.select(&query).to_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join("vdx_format_test_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.vdc");
        std::fs::write(&path, b"NOPE0123456789").unwrap();
        assert!(matches!(read_header(&path), Err(DataStoreError::Format(_))));
        assert!(matches!(
            read_indexes(&path, None),
            Err(DataStoreError::Format(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
