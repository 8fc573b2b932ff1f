//! Corruption/fuzz suite for the `vdx` segment codec.
//!
//! A valid segment is mutilated every way we can think of — truncated at
//! every byte (so every section boundary included), every single byte
//! flipped, hostile lengths and counts declared *with recomputed checksums*
//! (so the structural validators are exercised, not just the CRCs), bogus
//! versions and section kinds — and every case must come back as a typed
//! [`StoreError`], never a panic, never an unbounded allocation, never
//! silently wrong data. The identifier-index reader, which skips every
//! section but meta and the id index, gets the same truncation and
//! byte-flip battery. Plus the crash-atomicity contract: leftover `.tmp`
//! files are ignored as data and swept when the catalog opens. A catalog's
//! timestep files are segments, the only copy of each timestep, and a
//! corrupt one is a typed error from every catalog read, with a store
//! attached or not.

use datastore::store::{
    crc32, decode_segment, decode_segment_id_index, encode_segment, Store, StoreError, HEADER_LEN,
    SEGMENT_VERSION, SEGMENT_VERSION_RANGE, TABLE_ENTRY_LEN,
};
use datastore::{Catalog, Column, DataStoreError, Dataset, ParticleTable, StoreStats};
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn sample_dataset() -> Dataset {
    let mut x: Vec<f64> = (0..48).map(|i| (i as f64) * 0.5 - 12.0).collect();
    x[3] = f64::NAN;
    x[11] = f64::INFINITY;
    x[17] = f64::NEG_INFINITY;
    let px: Vec<f64> = (0..48).map(|i| ((i * 29) % 17) as f64 - 8.0).collect();
    let id: Vec<u64> = (0..48u64).map(|i| i * 5 + 2).collect();
    let table = ParticleTable::from_columns(vec![
        Column::float("x", x),
        Column::float("px", px),
        Column::id("id", id),
    ])
    .unwrap();
    let mut ds = Dataset::from_table(table, 7);
    ds.build_indexes(&Binning::EqualWidth { bins: 4 }).unwrap();
    ds.build_id_index().unwrap();
    ds
}

/// The same dataset with both index encodings, which encodes as format v2
/// (adds the kind-6 range-bitmap sections and the meta tally).
fn sample_dataset_v2() -> Dataset {
    let mut ds = sample_dataset();
    assert_eq!(ds.build_range_encodings(), 2);
    ds
}

fn segment_bytes() -> Vec<u8> {
    encode_segment(&sample_dataset())
}

fn segment_bytes_v2() -> Vec<u8> {
    let bytes = encode_segment(&sample_dataset_v2());
    assert_eq!(bytes[4], 2, "dual-encoding dataset must encode as v2");
    bytes
}

/// Parsed `(kind, offset, len)` triples from a (valid) segment's table.
fn section_table(bytes: &[u8]) -> Vec<(u32, u64, u64)> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            (
                u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()),
                u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()),
                u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()),
            )
        })
        .collect()
}

/// Recompute the header CRC over the section table (after a table patch).
fn fix_table_crc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let table = &bytes[HEADER_LEN..HEADER_LEN + count * TABLE_ENTRY_LEN];
    let crc = crc32(table).to_le_bytes();
    bytes[12..16].copy_from_slice(&crc);
}

/// Recompute section `i`'s CRC over its (patched) payload, then the table
/// CRC that covers the entry.
fn fix_section_crc(bytes: &mut [u8], i: usize) {
    let (_, offset, len) = section_table(bytes)[i];
    let payload = bytes[offset as usize..(offset + len) as usize].to_vec();
    let at = HEADER_LEN + i * TABLE_ENTRY_LEN + 20;
    let crc = crc32(&payload).to_le_bytes();
    bytes[at..at + 4].copy_from_slice(&crc);
    fix_table_crc(bytes);
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        // Every prefix — which necessarily includes every section boundary —
        // must fail loudly with a displayable, typed error.
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut])
                .map(|_| ())
                .expect_err(&format!("prefix of {cut} bytes must not decode"));
            assert!(!err.to_string().is_empty());
        }
        decode_segment(&bytes).expect("the untouched segment still decodes");
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0xFF;
            assert!(
                decode_segment(&corrupt).is_err(),
                "flipping byte {at} of {} must be detected",
                bytes.len()
            );
        }
    }
}

#[test]
fn random_mutations_never_panic_or_succeed_silently() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        let mut rng = StdRng::seed_from_u64(0xDEAD);
        for round in 0..600 {
            let mut corrupt = bytes.clone();
            for _ in 0..rng.gen_range(1..16usize) {
                let at = rng.gen_range(0..corrupt.len());
                corrupt[at] = rng.gen_range(0..256usize) as u8;
            }
            // Any mutation that does not faithfully recompute the checksums
            // must be rejected (the chance of a random 32-bit CRC collision
            // across 600 rounds is negligible, and a collision would still
            // have to pass every structural validator).
            if corrupt != bytes {
                assert!(decode_segment(&corrupt).is_err(), "round {round}");
            }
        }
    }
}

#[test]
fn bogus_versions_are_rejected_by_value() {
    let bytes = segment_bytes();
    for version in [0u32, 3, 7, u32::MAX] {
        let mut patched = bytes.clone();
        patched[4..8].copy_from_slice(&version.to_le_bytes());
        match decode_segment(&patched) {
            Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    assert_eq!(SEGMENT_VERSION, 1, "bump the bogus list when v3 lands");
    assert_eq!(SEGMENT_VERSION_RANGE, 2);

    // Version 2 is structurally accepted, but a v1 body relabeled v2 still
    // fails a typed check: the v2 meta requires the range-index tally that a
    // v1 meta payload does not carry.
    let mut relabeled = bytes.clone();
    relabeled[4..8].copy_from_slice(&SEGMENT_VERSION_RANGE.to_le_bytes());
    match decode_segment(&relabeled) {
        Err(StoreError::Truncated { what, .. }) => assert!(what.contains("range-index tally")),
        other => panic!("relabeled v2: expected truncated meta, got {other:?}"),
    }

    // And the converse: a genuine v2 body relabeled v1 trips over its own
    // kind-6 sections (unknown to v1) before any payload is interpreted.
    let mut downgraded = segment_bytes_v2();
    downgraded[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    assert!(matches!(
        decode_segment(&downgraded),
        Err(StoreError::BadSectionKind(6))
    ));
}

#[test]
fn hostile_lengths_with_recomputed_checksums_hit_the_validators() {
    // Fixing up the CRCs after each patch proves rejection comes from the
    // structural validators, not just checksum mismatches — a hostile writer
    // can compute CRCs too.
    let bytes = segment_bytes();

    // Section length beyond the file (also an allocation guard: u64::MAX
    // must fail bounds checking, not try to slice or allocate).
    for hostile_len in [u64::MAX, bytes.len() as u64 + 1] {
        let mut patched = bytes.clone();
        patched[HEADER_LEN + 12..HEADER_LEN + 20].copy_from_slice(&hostile_len.to_le_bytes());
        fix_table_crc(&mut patched);
        assert!(
            matches!(
                decode_segment(&patched),
                Err(StoreError::SectionBounds { .. })
            ),
            "declared len {hostile_len}"
        );
    }

    // Section offset overlapping the header.
    let mut patched = bytes.clone();
    patched[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&0u64.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::SectionBounds { .. })
    ));

    // Unknown section kind.
    let mut patched = bytes.clone();
    patched[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&99u32.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::BadSectionKind(99))
    ));

    // Two meta sections (retag a column entry as meta).
    let table = section_table(&bytes);
    let column_idx = table.iter().position(|&(kind, _, _)| kind == 2).unwrap();
    let mut patched = bytes.clone();
    let at = HEADER_LEN + column_idx * TABLE_ENTRY_LEN;
    patched[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::SectionCount { found: 2, .. })
    ));

    // A section count that claims more table entries than the file holds:
    // must fail before allocating space for them.
    let mut patched = bytes.clone();
    patched[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn hostile_payload_counts_with_recomputed_checksums_hit_the_validators() {
    let bytes = segment_bytes();
    let table = section_table(&bytes);

    // Meta row count contradicting the columns.
    let meta_idx = table.iter().position(|&(kind, _, _)| kind == 1).unwrap();
    let (_, meta_off, _) = table[meta_idx];
    let mut patched = bytes.clone();
    let rows_at = meta_off as usize + 8;
    patched[rows_at..rows_at + 8].copy_from_slice(&12_345u64.to_le_bytes());
    fix_section_crc(&mut patched, meta_idx);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Corrupt(_))
    ));

    // A column declaring an absurd row count inside its payload: the
    // bounded reader must refuse before allocating the claimed rows.
    let column_idx = table.iter().position(|&(kind, _, _)| kind == 2).unwrap();
    let (_, col_off, _) = table[column_idx];
    let mut patched = bytes.clone();
    // Payload layout: name len u32 + name + dtype u8, then the row count.
    let name_len = u32::from_le_bytes(
        patched[col_off as usize..col_off as usize + 4]
            .try_into()
            .unwrap(),
    ) as usize;
    let rows_at = col_off as usize + 4 + name_len + 1;
    patched[rows_at..rows_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    fix_section_crc(&mut patched, column_idx);
    let err = decode_segment(&patched).expect_err("absurd row count");
    assert!(
        matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }),
        "got {err:?}"
    );

    // An index section whose unbinned rows are unsorted: the persist layer
    // must reject it (an unsorted list would panic WAH assembly later).
    let index_idx = table.iter().position(|&(kind, _, _)| kind == 3).unwrap();
    let (_, idx_off, idx_len) = table[index_idx];
    let payload = bytes[idx_off as usize..(idx_off + idx_len) as usize].to_vec();
    // The unbinned list is the payload tail: count u32, then count u32 rows.
    // The x index has 3 unbinned rows (NaN, +inf, -inf); swap the last two.
    let tail = payload.len() - 8;
    let mut patched = bytes.clone();
    let (a, b) = (idx_off as usize + tail, idx_off as usize + tail + 4);
    let row_a: [u8; 4] = patched[a..a + 4].try_into().unwrap();
    let row_b: [u8; 4] = patched[b..b + 4].try_into().unwrap();
    patched[a..a + 4].copy_from_slice(&row_b);
    patched[b..b + 4].copy_from_slice(&row_a);
    fix_section_crc(&mut patched, index_idx);
    assert!(matches!(
        decode_segment(&patched),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn hostile_range_sections_with_recomputed_checksums_hit_the_validators() {
    let bytes = segment_bytes_v2();
    let table = section_table(&bytes);
    let range_idx = table.iter().position(|&(kind, _, _)| kind == 6).unwrap();
    let (_, off, len) = table[range_idx];

    // Rename the section to a column that has no index: every range section
    // must attach to an existing bitmap index.
    let mut patched = bytes.clone();
    let name_len =
        u32::from_le_bytes(patched[off as usize..off as usize + 4].try_into().unwrap()) as usize;
    assert!(name_len >= 1);
    patched[off as usize + 4] = b'q'; // "x"/"px" -> no such index
    fix_section_crc(&mut patched, range_idx);
    match decode_segment(&patched) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("no matching bitmap index")),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Zero out the last WAH word of the cumulative payload and recompute the
    // CRC: structurally valid words whose population tallies cannot be
    // cumulative must be rejected by the attach validator, not served.
    let mut patched = bytes.clone();
    let tail = (off + len) as usize - 4;
    let original: [u8; 4] = patched[tail..tail + 4].try_into().unwrap();
    let zero_fill = 0x8000_0001u32.to_le_bytes(); // one all-zero WAH group
    if original != zero_fill {
        patched[tail..tail + 4].copy_from_slice(&zero_fill);
        fix_section_crc(&mut patched, range_idx);
        let err = decode_segment(&patched).expect_err("broken cumulative tally");
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    }

    // A popcount-preserving bit move (rotate one literal WAH word's 31-bit
    // payload), CRCs recomputed: only the exact word-level validation in
    // `attach_range_bitmaps` can reject it — a count-only tally would have
    // silently served wrong query answers. Walk the payload structure
    // (name, bitmap count, then per-bitmap header + words) to be sure we
    // mutate a words array and nothing else.
    let read_u32 = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let mut patched = bytes.clone();
    let base = off as usize;
    let name_len = read_u32(&patched, base) as usize;
    let mut at = base + 4 + name_len;
    let bitmap_count = read_u32(&patched, at);
    at += 4;
    let mut mutated = false;
    'bitmaps: for _ in 0..bitmap_count {
        at += 8; // wah bit length (u64)
        let word_count = read_u32(&patched, at) as usize;
        at += 4;
        for w in 0..word_count {
            let pos = at + w * 4;
            let v = read_u32(&patched, pos);
            // A literal (MSB clear) that stays a proper literal after a
            // 31-bit rotation and actually changes value.
            if v & 0x8000_0000 == 0 && (2..=29).contains(&v.count_ones()) {
                let rotated = ((v << 1) | (v >> 30)) & 0x7FFF_FFFF;
                if rotated != v {
                    patched[pos..pos + 4].copy_from_slice(&rotated.to_le_bytes());
                    mutated = true;
                    break 'bitmaps;
                }
            }
        }
        at += word_count * 4;
    }
    assert!(mutated, "no mutable literal word in the range payload");
    fix_section_crc(&mut patched, range_idx);
    let err = decode_segment(&patched).expect_err("popcount-preserving bit move");
    assert!(
        matches!(err, StoreError::Corrupt(_)),
        "expected Corrupt, got {err:?}"
    );
}

#[test]
fn v2_segments_roundtrip_with_range_encodings_attached() {
    let bytes = segment_bytes_v2();
    let decoded = decode_segment(&bytes).expect("v2 decodes");
    use fastbit::ColumnProvider;
    for name in ["x", "px"] {
        let idx = decoded.index(name).expect("index present");
        assert!(
            idx.has_range_encoding(),
            "range encoding for '{name}' survived the roundtrip"
        );
    }
    // Queries through the reloaded dual-encoding indexes match a fresh one.
    let fresh = sample_dataset_v2();
    for query in ["x > -5 && px < 4", "x >= -12", "px <= -8 || x > 11"] {
        assert_eq!(
            decoded.query_str(query).unwrap().to_rows(),
            fresh.query_str(query).unwrap().to_rows(),
            "{query}"
        );
    }
}

/// A catalog directory holding `sample_dataset`'s timestep 7, with a store
/// attached (so full loads count hits).
fn store_catalog(tag: &str) -> (Catalog, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    catalog
        .write_timestep(
            7,
            sample_dataset().table(),
            Some(&Binning::EqualWidth { bins: 4 }),
        )
        .unwrap();
    catalog.attach_store(Store::open(dir.join("store")).unwrap());
    (catalog, dir)
}

#[test]
fn store_level_corruption_is_typed_and_self_contained() {
    let (catalog, dir) = store_catalog("corrupt_store");
    let path = catalog.entry(7).unwrap().path.clone();

    // Truncate the on-disk file at a few strides (including 0) and at the
    // exact header/table boundaries: every read is a typed error, and none
    // is healed or counted.
    let bytes = std::fs::read(&path).unwrap();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut cuts = vec![0usize, 3, HEADER_LEN, HEADER_LEN + count * TABLE_ENTRY_LEN];
    cuts.extend((0..bytes.len()).step_by(293));
    for cut in cuts {
        let torn = &bytes[..cut.min(bytes.len())];
        std::fs::write(&path, torn).unwrap();
        if cut < bytes.len() {
            for err in [
                catalog.load(7, None, true).map(|_| ()).unwrap_err(),
                catalog.load_id_index(7).map(|_| ()).unwrap_err(),
            ] {
                assert!(matches!(err, DataStoreError::Store(_)), "cut {cut}: {err}");
            }
            assert_eq!(std::fs::read(&path).unwrap(), torn, "cut {cut}: not healed");
        }
    }
    assert_eq!(catalog.store().unwrap().stats(), StoreStats::default());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        encode_segment(&catalog.load(7, None, true).unwrap()),
        bytes,
        "restored file loads again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_tmp_files_are_ignored_and_cleaned() {
    let (catalog, dir) = store_catalog("tmp_sweep");
    let pristine = std::fs::read(&catalog.entry(7).unwrap().path).unwrap();

    // A crashed writer's torn temp files: one garbage, one holding a fully
    // valid segment that simply never got renamed into place.
    let torn = dir.join("timestep_00009.vdx.4242.0.tmp");
    std::fs::write(&torn, b"half a segm").unwrap();
    let unrenamed = dir.join("timestep_00009.vdx.4242.1.tmp");
    let step9 = Dataset::from_table(sample_dataset().table().clone(), 9);
    std::fs::write(&unrenamed, encode_segment(&step9)).unwrap();

    let reopened = Catalog::open(&dir).unwrap();
    assert!(!torn.exists(), "garbage tmp swept");
    assert!(!unrenamed.exists(), "valid-but-unrenamed tmp swept too");
    assert_eq!(reopened.steps(), vec![7], "tmp content is never a timestep");
    assert!(matches!(
        reopened.load(9, None, true),
        Err(DataStoreError::UnknownTimestep(9))
    ));
    assert_eq!(
        encode_segment(&reopened.load(7, None, true).unwrap()),
        pristine,
        "the properly renamed file is untouched"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The byte ranges the identifier-index reader must validate: the header,
/// the section table, and the meta and id-index payloads.
fn id_reader_regions(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let table = section_table(bytes);
    let head = 0..HEADER_LEN + table.len() * TABLE_ENTRY_LEN;
    let read = table
        .into_iter()
        .filter(|&(kind, _, _)| kind == 1 || kind == 4)
        .map(|(_, offset, len)| offset as usize..(offset + len) as usize);
    std::iter::once(head).chain(read).collect()
}

#[test]
fn id_index_reader_rejects_every_truncation() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        for cut in 0..bytes.len() {
            let err = decode_segment_id_index(&bytes[..cut])
                .map(|_| ())
                .expect_err(&format!("prefix of {cut} bytes must not read"));
            assert!(!err.to_string().is_empty());
        }
    }
}

#[test]
fn id_index_reader_checks_what_it_reads_and_ignores_what_it_skips() {
    for bytes in [segment_bytes(), segment_bytes_v2()] {
        let pristine = decode_segment_id_index(&bytes).expect("untouched segment reads");
        let full = decode_segment(&bytes).unwrap();
        assert_eq!(pristine.pairs(), full.id_index().unwrap().pairs());
        assert_eq!(pristine.num_rows(), 48);
        let regions = id_reader_regions(&bytes);
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0xFF;
            let read = decode_segment_id_index(&corrupt);
            if regions.iter().any(|r| r.contains(&at)) {
                assert!(
                    read.is_err(),
                    "flipping byte {at} it reads must be detected"
                );
            } else {
                let idx = read.unwrap_or_else(|e| panic!("byte {at} is skipped: {e}"));
                assert_eq!(idx.pairs(), pristine.pairs(), "byte {at}");
                assert_eq!(idx.num_rows(), pristine.num_rows());
                assert!(
                    decode_segment(&corrupt).is_err(),
                    "full decode of byte {at}"
                );
            }
        }
    }
}

#[test]
fn id_index_reader_shares_the_structural_validators() {
    let bytes = segment_bytes();
    let table = section_table(&bytes);

    // Meta row count contradicting the id index, CRC recomputed.
    let meta_idx = table.iter().position(|&(kind, _, _)| kind == 1).unwrap();
    let mut patched = bytes.clone();
    let rows_at = table[meta_idx].1 as usize + 8;
    patched[rows_at..rows_at + 8].copy_from_slice(&12_345u64.to_le_bytes());
    fix_section_crc(&mut patched, meta_idx);
    match decode_segment_id_index(&patched) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("id index covers"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A column retagged as a second id index: the table's tally is checked
    // before any id-index payload is read.
    let column_idx = table.iter().position(|&(kind, _, _)| kind == 2).unwrap();
    let mut patched = bytes.clone();
    let at = HEADER_LEN + column_idx * TABLE_ENTRY_LEN;
    patched[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
    fix_table_crc(&mut patched);
    for err in [
        decode_segment_id_index(&patched).map(|_| ()).unwrap_err(),
        decode_segment(&patched).map(|_| ()).unwrap_err(),
    ] {
        assert!(
            matches!(
                err,
                StoreError::SectionCount {
                    section: "id index",
                    found: 2,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    // A column retagged as a zone map: a skipped section's count still
    // disagrees with meta's tally.
    let mut patched = bytes.clone();
    patched[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
    fix_table_crc(&mut patched);
    assert!(matches!(
        decode_segment_id_index(&patched),
        Err(StoreError::Corrupt(_))
    ));

    // No id-index section at all (meta flag and table both say so): a
    // typed error, not an empty index.
    let ds = {
        let full = sample_dataset();
        let mut bare = Dataset::from_table(full.table().clone(), 7);
        bare.build_indexes(&Binning::EqualWidth { bins: 4 })
            .unwrap();
        bare
    };
    let bare = encode_segment(&ds);
    decode_segment(&bare).expect("a segment without an id index is valid");
    assert!(matches!(
        decode_segment_id_index(&bare),
        Err(StoreError::SectionCount { found: 0, .. })
    ));
}

#[test]
fn store_id_index_reads_count_hits_and_check_the_step() {
    let (catalog, dir) = store_catalog("id_reader_store");
    let idx = catalog.load_id_index(7).unwrap();
    assert_eq!(idx.pairs(), sample_dataset().id_index().unwrap().pairs());
    assert!(matches!(
        catalog.load_id_index(3),
        Err(DataStoreError::UnknownTimestep(3))
    ));
    let stats = catalog.store().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));

    // Step 7's file under step 8's name holds the wrong step.
    let path = catalog.entry(7).unwrap().path.clone();
    std::fs::copy(&path, dir.join("timestep_00008.vdx")).unwrap();
    let mut reopened = Catalog::open(&dir).unwrap();
    reopened.attach_store(Store::open(dir.join("store")).unwrap());
    assert!(matches!(
        reopened.load_id_index(8),
        Err(DataStoreError::Store(StoreError::Corrupt(_)))
    ));
    assert_eq!(
        reopened.store().unwrap().stats(),
        StoreStats::default(),
        "a rejected read is no hit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A catalog timestep is a segment, read through the store's validators.
/// Two corruptions of `sample_dataset`'s timestep file:
///
/// * the first index bitmap (`px`'s first bin) made to cover 31,000 bits of
///   the 48-row column, with its section and table checksums re-stamped;
/// * one flipped byte, at every offset of the file.
///
/// Every read must be a typed error or exactly the pristine answer, never
/// other rows. The full load and the `px` load with indexes read the
/// overrun bitmap and must fail; every read fails on a flip in the header,
/// the section table or meta, which all of them read; the full load fails
/// on a flip anywhere. The identifier-index read skips the index sections,
/// so the overrun leaves its answer untouched.
#[test]
fn corrupt_catalog_timesteps_are_typed_errors_never_rows() {
    let dir = std::env::temp_dir().join(format!("vdx_catalog_corrupt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let table = sample_dataset().table().clone();
    catalog
        .write_timestep(7, &table, Some(&Binning::EqualWidth { bins: 4 }))
        .unwrap();
    let path = catalog.entry(7).unwrap().path.clone();
    let pristine = std::fs::read(&path).unwrap();
    let full = || catalog.load(7, None, true).map(|ds| encode_segment(&ds));
    let projected = || {
        catalog
            .load(7, Some(&["px"]), true)
            .map(|ds| encode_segment(&ds))
    };
    let ids = || catalog.load_id_index(7).map(|idx| idx.pairs().to_vec());
    let (full_ok, projected_ok, ids_ok) = (full().unwrap(), projected().unwrap(), ids().unwrap());
    assert_eq!(full_ok, pristine, "the file is the dataset's segment");

    // The overrun: `px` sorts first, so the first kind-3 section is its
    // index; its first bitmap's word count sits after the name, the row
    // count, the flag, the boundaries, the bin count and the bit length.
    let sections = section_table(&pristine);
    let (at, &(_, offset, len)) = sections
        .iter()
        .enumerate()
        .find(|(_, (kind, _, _))| *kind == 3)
        .unwrap();
    let (offset, len) = (offset as usize, len as usize);
    let u32_at = |i: usize| u32::from_le_bytes(pristine[i..i + 4].try_into().unwrap()) as usize;
    assert_eq!(&pristine[offset + 4..offset + 4 + u32_at(offset)], b"px");
    let boundaries = offset + 4 + 2 + 8 + 1;
    let first_word = boundaries + 4 + 8 * u32_at(boundaries) + 4 + 8 + 4;
    let mut overrun = pristine.clone();
    overrun[first_word..first_word + 4].copy_from_slice(&(0x8000_0000u32 | 1000).to_le_bytes());
    let crc = crc32(&overrun[offset..offset + len]).to_le_bytes();
    let entry = HEADER_LEN + at * TABLE_ENTRY_LEN;
    overrun[entry + 20..entry + 24].copy_from_slice(&crc);
    fix_table_crc(&mut overrun);
    std::fs::write(&path, &overrun).unwrap();
    for (what, loaded) in [("full", full()), ("projected", projected())] {
        assert!(
            matches!(&loaded, Err(DataStoreError::Store(StoreError::Corrupt(m))) if m.contains("wah words")),
            "overrun, {what}: {loaded:?}"
        );
    }
    assert_eq!(ids().unwrap(), ids_ok, "the id read skips the index");
    let unindexed = catalog.load(7, Some(&["px"]), false).unwrap();
    let px = |t: &ParticleTable| t.float_column("px").unwrap().to_vec();
    assert_eq!(px(unindexed.table()), px(&table));

    // One flipped byte, everywhere.
    let (_, meta_offset, meta_len) = sections[0];
    let head_end = (meta_offset + meta_len) as usize;
    assert_eq!(sections[0].0, 1, "meta comes first");
    for i in 0..pristine.len() {
        let mut flipped = pristine.clone();
        flipped[i] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        let always = i < head_end;
        assert!(full().is_err(), "flip at {i}: full load");
        if let Ok(got) = projected() {
            assert!(!always && got == projected_ok, "flip at {i}: px load");
        }
        if let Ok(got) = ids() {
            assert!(!always && got == ids_ok, "flip at {i}: id read");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
