//! Word-Aligned Hybrid (WAH) compressed bit vectors.
//!
//! WAH is the compression scheme used by FastBit. Bits are grouped into
//! 31-bit groups stored in 32-bit words:
//!
//! * a **literal word** has its most significant bit clear and carries one
//!   31-bit group verbatim;
//! * a **fill word** has its most significant bit set; bit 30 carries the
//!   fill value and the low 30 bits the number of consecutive identical
//!   31-bit groups it represents.
//!
//! Logical operations walk the two operands run-by-run, so a long fill is
//! processed in constant time rather than group-by-group. This is what makes
//! compound Boolean range queries over binned bitmap indexes cheap.

use crate::error::{FastBitError, Result};
use crate::BitVec;

/// Number of payload bits per WAH group.
pub const GROUP_BITS: u64 = 31;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;
const FILL_FLAG: u32 = 0x8000_0000;
const FILL_ONE_FLAG: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;

/// A WAH-compressed bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wah {
    words: Vec<u32>,
    nbits: u64,
}

/// Incremental builder for [`Wah`] vectors.
#[derive(Debug, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    current: u32,
    filled: u64,
    nbits: u64,
}

impl WahBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        if bit {
            self.current |= 1 << self.filled;
        }
        self.filled += 1;
        self.nbits += 1;
        if self.filled == GROUP_BITS {
            let g = self.current;
            self.current = 0;
            self.filled = 0;
            self.append_group(g);
        }
    }

    /// Append `count` copies of `bit`. Runs that span whole groups are
    /// appended as fill words without touching individual bits.
    pub fn push_run(&mut self, bit: bool, mut count: u64) {
        // Finish the partial group bit-by-bit first.
        while self.filled != 0 && count > 0 {
            self.push_bit(bit);
            count -= 1;
        }
        let full_groups = count / GROUP_BITS;
        if full_groups > 0 {
            self.append_fill(bit, full_groups);
            self.nbits += full_groups * GROUP_BITS;
            count -= full_groups * GROUP_BITS;
        }
        for _ in 0..count {
            self.push_bit(bit);
        }
    }

    fn append_fill(&mut self, bit: bool, mut groups: u64) {
        while groups > 0 {
            let chunk = groups.min(FILL_COUNT_MASK as u64) as u32;
            let value_flag = if bit { FILL_ONE_FLAG } else { 0 };
            // Coalesce with an existing trailing fill of the same value.
            if let Some(last) = self.words.last_mut() {
                if *last & FILL_FLAG != 0 && (*last & FILL_ONE_FLAG) == value_flag {
                    let existing = *last & FILL_COUNT_MASK;
                    let room = FILL_COUNT_MASK - existing;
                    let add = chunk.min(room);
                    *last += add;
                    groups -= add as u64;
                    if add == chunk {
                        continue;
                    } else {
                        let rest = chunk - add;
                        self.words.push(FILL_FLAG | value_flag | rest);
                        groups -= rest as u64;
                        continue;
                    }
                }
            }
            self.words.push(FILL_FLAG | value_flag | chunk);
            groups -= chunk as u64;
        }
    }

    fn append_group(&mut self, group: u32) {
        if group == 0 {
            self.append_fill(false, 1);
        } else if group == LITERAL_MASK {
            self.append_fill(true, 1);
        } else {
            self.words.push(group);
        }
    }

    /// Append `combine(w)` for the literal words leading `words`, at most
    /// `limit` of them (the groups the opposing fill has left), and return
    /// how many were consumed.
    fn append_against_fill(
        &mut self,
        words: &[u32],
        limit: u64,
        combine: impl Fn(u32) -> u32,
    ) -> usize {
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        let mut n = 0;
        for &w in words.iter().take(limit) {
            if w & FILL_FLAG != 0 {
                break;
            }
            self.append_group(combine(w) & LITERAL_MASK);
            n += 1;
        }
        n
    }

    /// Finish building. A trailing partial group is stored as a literal with
    /// zero padding bits; the logical length excludes the padding.
    pub fn finish(mut self) -> Wah {
        if self.filled > 0 {
            // The partial group is stored literally even when all-zero so the
            // logical length bookkeeping stays simple; it still compresses
            // fine because it is a single word.
            self.words.push(self.current & LITERAL_MASK);
        }
        Wah {
            words: self.words,
            nbits: self.nbits,
        }
    }
}

/// One decoded run: `groups` consecutive 31-bit groups all equal to `pattern`.
#[derive(Debug, Clone, Copy)]
struct Run {
    pattern: u32,
    groups: u64,
    is_fill: bool,
}

/// Cursor over the runs of a WAH vector.
struct RunCursor<'a> {
    words: &'a [u32],
    pos: usize,
    current: Option<Run>,
}

impl<'a> RunCursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        let mut c = Self {
            words,
            pos: 0,
            current: None,
        };
        c.advance_word();
        c
    }

    fn advance_word(&mut self) {
        if self.pos >= self.words.len() {
            self.current = None;
            return;
        }
        let w = self.words[self.pos];
        self.pos += 1;
        self.current = Some(if w & FILL_FLAG != 0 {
            Run {
                pattern: if w & FILL_ONE_FLAG != 0 {
                    LITERAL_MASK
                } else {
                    0
                },
                groups: (w & FILL_COUNT_MASK) as u64,
                is_fill: true,
            }
        } else {
            Run {
                pattern: w,
                groups: 1,
                is_fill: false,
            }
        });
    }

    /// Consume up to `n` groups from the current run, returning how many were
    /// consumed together with the pattern.
    fn take(&mut self, n: u64) -> Option<(u32, u64, bool)> {
        let run = self.current?;
        let take = run.groups.min(n);
        let result = (run.pattern, take, run.is_fill);
        if take == run.groups {
            self.advance_word();
        } else {
            self.current = Some(Run {
                groups: run.groups - take,
                ..run
            });
        }
        Some(result)
    }

    /// The words from the current run's word on. Only meaningful while a run
    /// is current; the bulk paths use it to walk a literal span as a slice.
    fn words_from_current(&self) -> &'a [u32] {
        &self.words[self.pos - 1..]
    }

    /// Step over `n` literal words, the current run's being the first.
    fn skip_literals(&mut self, n: usize) {
        if n > 0 {
            self.pos += n - 1;
            self.advance_word();
        }
    }
}

impl Wah {
    /// An all-zero vector of `nbits` bits.
    pub fn zeros(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.push_run(false, nbits);
        b.finish()
    }

    /// An all-one vector of `nbits` bits.
    pub fn ones(nbits: u64) -> Self {
        let mut b = WahBuilder::new();
        b.push_run(true, nbits);
        b.finish()
    }

    /// Build from sorted, unique set-bit positions.
    ///
    /// # Panics
    /// Panics when positions are unsorted, repeated, or `>= nbits`.
    pub fn from_sorted_indices(nbits: u64, indices: impl IntoIterator<Item = u64>) -> Self {
        let mut b = WahBuilder::new();
        let mut next = 0u64;
        for i in indices {
            assert!(i >= next, "indices must be strictly increasing");
            assert!(i < nbits, "index {i} out of range {nbits}");
            b.push_run(false, i - next);
            b.push_bit(true);
            next = i + 1;
        }
        b.push_run(false, nbits - next);
        b.finish()
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = WahBuilder::new();
        for &bit in bits {
            b.push_bit(bit);
        }
        b.finish()
    }

    /// Compress an uncompressed [`BitVec`].
    pub fn from_bitvec(bv: &BitVec) -> Self {
        let mut b = WahBuilder::new();
        let mut prev_end = 0usize;
        for i in bv.iter_ones() {
            b.push_run(false, (i - prev_end) as u64);
            b.push_bit(true);
            prev_end = i + 1;
        }
        b.push_run(false, (bv.len() - prev_end) as u64);
        b.finish()
    }

    /// Expand to an uncompressed [`BitVec`].
    pub fn to_bitvec(&self) -> BitVec {
        let mut bv = BitVec::zeros(self.nbits as usize);
        for i in self.iter_ones() {
            bv.set(i as usize, true);
        }
        bv
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.nbits
    }

    /// True when the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Number of 32-bit words in the compressed representation.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Approximate heap size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        let mut cursor = RunCursor::new(&self.words);
        while let Some((pattern, groups, is_fill)) = cursor.take(u64::MAX) {
            if is_fill {
                if pattern != 0 {
                    total += groups * GROUP_BITS;
                }
            } else {
                total += pattern.count_ones() as u64;
            }
        }
        total
    }

    /// Iterate over set-bit positions in increasing order.
    pub fn iter_ones(&self) -> WahOnesIter<'_> {
        WahOnesIter {
            cursor: RunCursor::new(&self.words),
            bit_offset: 0,
            pending: None,
            nbits: self.nbits,
        }
    }

    /// Bitwise AND with `other`.
    pub fn and(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a & b)
    }

    /// Bitwise OR with `other`.
    pub fn or(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a | b)
    }

    /// Bitwise AND-NOT (`self & !other`).
    pub fn and_not(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| a & !b & LITERAL_MASK)
    }

    /// Bitwise XOR with `other`.
    pub fn xor(&self, other: &Wah) -> Result<Wah> {
        self.binary_op(other, |a, b| (a ^ b) & LITERAL_MASK)
    }

    /// Bitwise complement over the logical length. Fills are flipped a run
    /// at a time; only the final partial group is masked.
    pub fn not(&self) -> Wah {
        let total_groups = self.nbits.div_ceil(GROUP_BITS);
        let tail_bits = self.nbits % GROUP_BITS;
        let tail_mask = if tail_bits == 0 {
            LITERAL_MASK
        } else {
            (1u32 << tail_bits) - 1
        };
        let mut builder = WahBuilder::new();
        let mut cursor = RunCursor::new(&self.words);
        let mut groups_done = 0u64;
        while let Some((pattern, groups, _)) = cursor.take(u64::MAX) {
            let flipped = !pattern & LITERAL_MASK;
            groups_done += groups;
            // The run holding the last group gives it up to be masked.
            let ends_here = groups > 0 && groups_done == total_groups;
            let whole = groups - u64::from(ends_here);
            if whole > 0 {
                if flipped == 0 || flipped == LITERAL_MASK {
                    builder.append_fill(flipped != 0, whole);
                } else {
                    // A literal run is one group.
                    builder.append_group(flipped);
                }
            }
            if ends_here {
                builder.append_group(flipped & tail_mask);
            }
        }
        let mut result = builder.finish();
        result.nbits = self.nbits;
        result
    }

    /// Combine two equal-length vectors group by group with the *bitwise*
    /// `op`, emitting through the canonicalizing builder. Spans where both
    /// sides are fills cost one step; spans of literal words (against
    /// literals or against one long fill) are walked as slices, without the
    /// per-group cursor round trip.
    fn binary_op(&self, other: &Wah, op: impl Fn(u32, u32) -> u32) -> Result<Wah> {
        if self.nbits != other.nbits {
            return Err(FastBitError::LengthMismatch {
                left: self.nbits,
                right: other.nbits,
            });
        }
        let mut a = RunCursor::new(&self.words);
        let mut b = RunCursor::new(&other.words);
        let mut builder = WahBuilder::new();
        // Both operands cover the same number of groups, so the cursors run
        // out together; a malformed operand that ends early ends the result.
        while let (Some(ra), Some(rb)) = (a.current, b.current) {
            match (ra.is_fill, rb.is_fill) {
                (true, true) => {
                    let n = ra.groups.min(rb.groups);
                    // A bitwise op of two uniform patterns is uniform.
                    builder.append_fill(op(ra.pattern, rb.pattern) & LITERAL_MASK != 0, n);
                    a.take(n);
                    b.take(n);
                }
                (false, false) => {
                    let mut n = 0;
                    for (&wa, &wb) in a.words_from_current().iter().zip(b.words_from_current()) {
                        if (wa | wb) & FILL_FLAG != 0 {
                            break;
                        }
                        builder.append_group(op(wa, wb) & LITERAL_MASK);
                        n += 1;
                    }
                    a.skip_literals(n);
                    b.skip_literals(n);
                }
                (true, false) => {
                    let n = builder.append_against_fill(b.words_from_current(), ra.groups, |w| {
                        op(ra.pattern, w)
                    });
                    a.take(n as u64);
                    b.skip_literals(n);
                }
                (false, true) => {
                    let n = builder.append_against_fill(a.words_from_current(), rb.groups, |w| {
                        op(w, rb.pattern)
                    });
                    a.skip_literals(n);
                    b.take(n as u64);
                }
            }
        }
        let mut result = builder.finish();
        result.nbits = self.nbits;
        Ok(result)
    }

    /// Whether `self` equals `a.or(b)` word for word, i.e. is the canonical
    /// form of the group-wise OR, without building that OR: canonical form
    /// is a function of the group sequence alone (maximal fills, no literal
    /// that should be a fill), so it is checked on `self`'s words directly
    /// and the three run cursors are then streamed side by side. `a` and `b`
    /// may be in any valid form. Allocation-free.
    pub fn is_or_of(&self, a: &Wah, b: &Wah) -> bool {
        if a.nbits != b.nbits || self.nbits != a.nbits || !self.is_canonical() {
            return false;
        }
        let mut a = RunCursor::new(&a.words);
        let mut b = RunCursor::new(&b.words);
        let mut c = RunCursor::new(&self.words);
        loop {
            let (ra, rb) = match (a.current, b.current) {
                (Some(ra), Some(rb)) => (ra, rb),
                // `or` stops where the shorter operand does.
                _ => return c.current.is_none(),
            };
            let Some(rc) = c.current else {
                return false;
            };
            let n = ra.groups.min(rb.groups).min(rc.groups);
            if n > 0 && ra.pattern | rb.pattern != rc.pattern {
                return false;
            }
            // A zero-group fill in an operand is skipped by `take(0)`.
            a.take(n);
            b.take(n);
            c.take(n);
        }
    }

    /// Whether the words are what the canonicalizing builder emits for this
    /// group sequence: no literal that is all-zero or all-one, no empty
    /// fill, and no fill that could have been merged into the one before.
    fn is_canonical(&self) -> bool {
        // Branch-free per word, so the pass runs at memory speed.
        let mut prev = 0u32;
        let mut bad = false;
        for &w in &self.words {
            let fill = w & FILL_FLAG != 0;
            let bad_literal = !fill & ((w == 0) | (w == LITERAL_MASK));
            let mergeable = (prev & FILL_FLAG != 0)
                & ((prev ^ w) & FILL_ONE_FLAG == 0)
                & (prev & FILL_COUNT_MASK != FILL_COUNT_MASK);
            let bad_fill = fill & ((w & FILL_COUNT_MASK == 0) | mergeable);
            bad |= bad_literal | bad_fill;
            prev = w;
        }
        !bad
    }

    /// Expand into a dense little-endian `u64` word bitmap: bit `i` of the
    /// output (word `i / 64`, bit `i % 64`) is set iff bit `i` of this
    /// vector is. `out` must hold at least `len().div_ceil(64)` words and
    /// should be zeroed; bits beyond the logical length are left untouched.
    ///
    /// Runs are emitted in bulk — a fill of ones becomes whole `!0` words —
    /// so the cost is proportional to the *output* size, not to the number
    /// of set bits.
    pub fn write_dense_words(&self, out: &mut [u64]) {
        fn set_bit_range(out: &mut [u64], start: u64, end: u64) {
            if start >= end {
                return;
            }
            let (first, last) = (start as usize / 64, (end as usize - 1) / 64);
            let head = !0u64 << (start % 64);
            let tail = !0u64 >> (63 - ((end - 1) % 64));
            if first == last {
                out[first] |= head & tail;
                return;
            }
            out[first] |= head;
            for w in &mut out[first + 1..last] {
                *w = !0;
            }
            out[last] |= tail;
        }

        let mut bit = 0u64;
        let mut cursor = RunCursor::new(&self.words);
        while let Some((pattern, groups, is_fill)) = cursor.take(u64::MAX) {
            if is_fill {
                let span = groups * GROUP_BITS;
                if pattern != 0 {
                    set_bit_range(out, bit, (bit + span).min(self.nbits));
                }
                bit += span;
            } else {
                let mut p = pattern;
                while p != 0 {
                    let pos = bit + p.trailing_zeros() as u64;
                    p &= p - 1;
                    if pos < self.nbits {
                        out[pos as usize / 64] |= 1u64 << (pos % 64);
                    }
                }
                bit += GROUP_BITS;
            }
        }
    }

    /// The raw compressed words, for serialization.
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// Reconstruct a vector from serialized parts — words produced by
    /// [`Wah::as_words`] and the original logical length — read from
    /// untrusted bytes: the words must cover exactly `nbits` bits (fill
    /// words with a zero group count are rejected) and the padding bits of a
    /// final partial group must be clear — the invariants every vector
    /// produced by this crate upholds and that the logical operations and
    /// population counts rely on. Returns a description of the violation.
    pub fn checked_from_raw_parts(words: Vec<u32>, nbits: u64) -> std::result::Result<Wah, String> {
        let expected_groups = nbits.div_ceil(GROUP_BITS);
        // One branch-free pass: every persisted bitmap of a segment load
        // comes through here.
        let mut groups = 0u64;
        let mut empty_fill = false;
        for &w in &words {
            let fill = w & FILL_FLAG != 0;
            let count = if fill { w & FILL_COUNT_MASK } else { 1 };
            empty_fill |= count == 0;
            groups = groups.saturating_add(count as u64);
        }
        if empty_fill {
            return Err("fill word with zero group count".to_string());
        }
        if groups != expected_groups {
            return Err(format!(
                "words cover {groups} group(s), expected {expected_groups}"
            ));
        }
        let last_pattern = match words.last() {
            Some(&w) if w & FILL_FLAG == 0 => w,
            Some(&w) if w & FILL_ONE_FLAG != 0 => LITERAL_MASK,
            _ => 0,
        };
        let tail = nbits % GROUP_BITS;
        if tail != 0 && last_pattern & !((1u32 << tail) - 1) != 0 {
            return Err("padding bits beyond the logical length are set".to_string());
        }
        Ok(Self { words, nbits })
    }

    /// Compression ratio relative to the uncompressed representation
    /// (uncompressed bytes divided by compressed bytes).
    pub fn compression_ratio(&self) -> f64 {
        let uncompressed = (self.nbits as f64 / 8.0).max(1.0);
        uncompressed / self.size_in_bytes().max(1) as f64
    }
}

/// Iterator over the set-bit positions of a [`Wah`] vector.
pub struct WahOnesIter<'a> {
    cursor: RunCursor<'a>,
    bit_offset: u64,
    pending: Option<(u32, u64)>,
    nbits: u64,
}

impl<'a> Iterator for WahOnesIter<'a> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some((mut pattern, base)) = self.pending.take() {
                if pattern != 0 {
                    let tz = pattern.trailing_zeros() as u64;
                    pattern &= pattern - 1;
                    self.pending = Some((pattern, base));
                    let pos = base + tz;
                    if pos < self.nbits {
                        return Some(pos);
                    }
                    // Padding bit: keep scanning (there will be none set, but
                    // stay defensive).
                    continue;
                }
            }
            let (pattern, groups, is_fill) = self.cursor.take(1)?;
            debug_assert!(groups == 1 || is_fill);
            if is_fill {
                // take(1) always returns a single group even for fills.
                if pattern != 0 {
                    self.pending = Some((pattern, self.bit_offset));
                }
            } else if pattern != 0 {
                self.pending = Some((pattern, self.bit_offset));
            }
            self.bit_offset += GROUP_BITS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn zeros_and_ones() {
        let z = Wah::zeros(1000);
        assert_eq!(z.len(), 1000);
        assert_eq!(z.count_ones(), 0);
        let o = Wah::ones(1000);
        assert_eq!(o.count_ones(), 1000);
        assert_eq!(o.iter_ones().count(), 1000);
        // Long uniform runs compress to a handful of words.
        assert!(
            z.num_words() <= 2,
            "zeros should compress: {} words",
            z.num_words()
        );
        assert!(
            o.num_words() <= 2,
            "ones should compress: {} words",
            o.num_words()
        );
    }

    #[test]
    fn from_sorted_indices_roundtrip() {
        let idx = vec![0u64, 3, 31, 32, 62, 63, 500, 999];
        let w = Wah::from_sorted_indices(1000, idx.clone());
        assert_eq!(w.count_ones(), idx.len() as u64);
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn bitvec_roundtrip() {
        let bv = BitVec::from_indices(250, [0, 1, 2, 100, 248, 249]);
        let w = Wah::from_bitvec(&bv);
        assert_eq!(w.to_bitvec(), bv);
        assert_eq!(w.count_ones(), bv.count_ones());
    }

    #[test]
    fn and_or_not_small() {
        let a = Wah::from_sorted_indices(100, vec![1, 5, 50, 99]);
        let b = Wah::from_sorted_indices(100, vec![5, 50, 60]);
        assert_eq!(
            a.and(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![5, 50]
        );
        assert_eq!(
            a.or(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![1, 5, 50, 60, 99]
        );
        assert_eq!(
            a.and_not(&b).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![1, 99]
        );
        let n = a.not();
        assert_eq!(n.count_ones(), 96);
        assert_eq!(n.len(), 100);
        assert!(!n.iter_ones().any(|i| i == 5));
        assert!(n.iter_ones().all(|i| i < 100));
    }

    #[test]
    fn not_of_all_ones_is_empty() {
        let o = Wah::ones(310);
        let n = o.not();
        assert_eq!(n.count_ones(), 0);
        assert_eq!(n.len(), 310);
    }

    #[test]
    fn length_mismatch_is_error() {
        let a = Wah::zeros(10);
        let b = Wah::zeros(11);
        assert!(matches!(
            a.and(&b),
            Err(FastBitError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sparse_bitmaps_compress_well() {
        // One set bit per 10_000 rows over a million rows: the compressed
        // form must be dramatically smaller than the 125 kB uncompressed one.
        let n = 1_000_000u64;
        let idx: Vec<u64> = (0..n).step_by(10_000).collect();
        let w = Wah::from_sorted_indices(n, idx);
        assert!(
            w.size_in_bytes() < 4096,
            "compressed size {}",
            w.size_in_bytes()
        );
        assert!(w.compression_ratio() > 30.0);
    }

    #[test]
    fn fill_run_coalescing_survives_builder_boundaries() {
        let mut b = WahBuilder::new();
        b.push_run(false, 31 * 3);
        b.push_run(false, 31 * 5);
        b.push_run(true, 31 * 2);
        let w = b.finish();
        assert_eq!(w.len(), 31 * 10);
        assert_eq!(w.count_ones(), 31 * 2);
        assert_eq!(w.num_words(), 2, "adjacent same-value fills must coalesce");
    }

    fn reference_op(a: &[bool], b: &[bool], op: fn(bool, bool) -> bool) -> Vec<u64> {
        a.iter()
            .zip(b.iter())
            .enumerate()
            .filter(|(_, (&x, &y))| op(x, y))
            .map(|(i, _)| i as u64)
            .collect()
    }

    // Randomized property tests. proptest is not available in the offline
    // build environment, so these drive the same properties from a seeded
    // generator: lengths are drawn to straddle the 31-bit group boundaries
    // and densities sweep from all-zero through literal-dense to all-one.

    /// Densities covering the adversarial regimes: empty, ultra-sparse (long
    /// 0-fills), mixed literal, dense (long 1-fills with holes), and full.
    const DENSITIES: [f64; 5] = [0.0, 0.02, 0.5, 0.98, 1.0];

    fn random_bools(rng: &mut StdRng, len: usize, density: f64) -> Vec<bool> {
        (0..len)
            .map(|_| rng.gen_range(0.0..1.0) < density)
            .collect()
    }

    /// Lengths that straddle the 31-bit WAH group boundary and multi-group
    /// fills, plus a few arbitrary ones.
    fn interesting_length(rng: &mut StdRng, case: usize) -> usize {
        let boundaries = [1, 30, 31, 32, 61, 62, 63, 93, 310, 311, 400];
        if case.is_multiple_of(2) {
            boundaries[case / 2 % boundaries.len()]
        } else {
            rng.gen_range(1..500)
        }
    }

    #[test]
    fn write_dense_words_matches_iter_ones() {
        let mut rng = StdRng::seed_from_u64(0xDE45E);
        for case in 0..200 {
            let len = if case == 0 {
                0
            } else {
                interesting_length(&mut rng, case)
            };
            let bits = random_bools(&mut rng, len, DENSITIES[case % DENSITIES.len()]);
            let w = Wah::from_bools(&bits);
            let mut dense = vec![0u64; len.div_ceil(64)];
            w.write_dense_words(&mut dense);
            for (i, &b) in bits.iter().enumerate() {
                let got = dense[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(got, b, "case {case} len {len} bit {i}");
            }
            // Bits beyond the logical length stay clear.
            if len % 64 != 0 {
                assert_eq!(
                    dense[len / 64] & !((1u64 << (len % 64)) - 1),
                    0,
                    "case {case}"
                );
            }
        }
        // Long fills exercise the whole-word bulk path.
        let ones = Wah::ones(100_000);
        let mut dense = vec![0u64; 100_000usize.div_ceil(64)];
        ones.write_dense_words(&mut dense);
        assert_eq!(
            dense.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
            100_000
        );
    }

    #[test]
    fn randomized_roundtrip_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for case in 0..200 {
            let len = if case == 0 {
                0
            } else {
                interesting_length(&mut rng, case)
            };
            let density = DENSITIES[case % DENSITIES.len()];
            let bits = random_bools(&mut rng, len, density);
            let w = Wah::from_bools(&bits);
            assert_eq!(w.len(), bits.len() as u64);
            let expected: Vec<u64> = bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(
                w.iter_ones().collect::<Vec<_>>(),
                expected,
                "case {case} len {len}"
            );
            assert_eq!(w.count_ones(), expected.len() as u64);
        }
    }

    #[test]
    fn randomized_logical_ops_match_reference() {
        let mut rng = StdRng::seed_from_u64(0xB0B5);
        for case in 0..200 {
            let len = interesting_length(&mut rng, case);
            let da = DENSITIES[case % DENSITIES.len()];
            let db = DENSITIES[(case / DENSITIES.len()) % DENSITIES.len()];
            let a_bits = random_bools(&mut rng, len, da);
            let b_bits = random_bools(&mut rng, len, db);
            let a = Wah::from_bools(&a_bits);
            let b = Wah::from_bools(&b_bits);
            assert_eq!(
                a.and(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x && y),
                "AND case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.or(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x || y),
                "OR case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.and_not(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x && !y),
                "AND-NOT case {case} len {len} densities {da}/{db}"
            );
            assert_eq!(
                a.xor(&b).unwrap().iter_ones().collect::<Vec<_>>(),
                reference_op(&a_bits, &b_bits, |x, y| x ^ y),
                "XOR case {case} len {len} densities {da}/{db}"
            );
        }
    }

    #[test]
    fn randomized_not_is_involution() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for case in 0..200 {
            let len = interesting_length(&mut rng, case);
            let bits = random_bools(&mut rng, len, DENSITIES[case % DENSITIES.len()]);
            let w = Wah::from_bools(&bits);
            let back = w.not().not();
            assert_eq!(
                back.iter_ones().collect::<Vec<_>>(),
                w.iter_ones().collect::<Vec<_>>(),
                "case {case} len {len}"
            );
            assert_eq!(w.count_ones() + w.not().count_ones(), bits.len() as u64);
        }
    }

    /// NOT against the uncompressed oracle, on vectors built from runs (so
    /// long fills, fills ending exactly on and off a group boundary) and on
    /// multi-million-bit single fills, where a per-group walk would crawl.
    #[test]
    fn not_matches_bitvec_and_is_an_involution_on_long_fills() {
        let mut rng = StdRng::seed_from_u64(0x1207);
        let check = |w: &Wah| {
            let mut oracle = w.to_bitvec();
            oracle.not_assign();
            let n = w.not();
            assert_eq!(n.len(), w.len());
            assert_eq!(n.to_bitvec(), oracle, "len {}", w.len());
            // The complement is canonical: it equals its own OR with zeros.
            assert_eq!(Wah::zeros(w.len()).or(&n).unwrap(), n, "len {}", w.len());
            assert_eq!(n.not().to_bitvec(), w.to_bitvec(), "len {}", w.len());
        };
        for case in 0..120 {
            let mut builder = WahBuilder::new();
            for _ in 0..rng.gen_range(1..12usize) {
                let count = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(1..40u64),
                    1 => 31 * rng.gen_range(1..2000u64),
                    2 => 31 * rng.gen_range(1..2000u64) + rng.gen_range(1..31u64),
                    _ => rng.gen_range(1..100_000u64),
                };
                builder.push_run(rng.gen_range(0..2u32) == 1, count);
            }
            let w = builder.finish();
            check(&w);
            // The same bits in non-canonical words: the final partial group
            // of `from_bools` is a literal even when it is all-zero.
            if case % 10 == 0 {
                let bv = w.to_bitvec();
                let bools: Vec<bool> = (0..bv.len()).map(|i| bv.get(i)).collect();
                check(&Wah::from_bools(&bools));
            }
        }
        for nbits in [31 * 100_000, 5_000_000, 5_000_017] {
            for w in [Wah::zeros(nbits), Wah::ones(nbits)] {
                let n = w.not();
                assert!(n.num_words() <= 2, "{} words", n.num_words());
                assert_eq!(n.count_ones() + w.count_ones(), nbits);
                assert_eq!(n.not().count_ones(), w.count_ones());
                check(&w);
            }
        }
    }

    /// Re-express a vector's words non-canonically without changing a bit:
    /// fills of one group become literals, longer fills are split in two,
    /// and empty fills are sprinkled in.
    fn decanonicalize(w: &Wah, rng: &mut StdRng) -> Wah {
        let mut words = Vec::new();
        for &word in w.as_words() {
            if rng.gen_range(0..4u32) == 0 {
                words.push(FILL_FLAG | (rng.gen_range(0..2u32) * FILL_ONE_FLAG));
            }
            let count = word & FILL_COUNT_MASK;
            if word & FILL_FLAG == 0 || rng.gen_range(0..2u32) == 0 {
                words.push(word);
            } else if count == 1 {
                words.push(if word & FILL_ONE_FLAG != 0 {
                    LITERAL_MASK
                } else {
                    0
                });
            } else {
                let head = rng.gen_range(1..count);
                words.push((word & !FILL_COUNT_MASK) | head);
                words.push((word & !FILL_COUNT_MASK) | (count - head));
            }
        }
        Wah {
            words,
            nbits: w.len(),
        }
    }

    #[test]
    fn is_or_of_agrees_with_materialized_or() {
        let mut rng = StdRng::seed_from_u64(0x0F05);
        for case in 0..300 {
            // Lengths on and off the group boundary, some with long fills.
            let len = match case % 3 {
                0 => 31 * rng.gen_range(1..40usize),
                1 => interesting_length(&mut rng, case),
                _ => rng.gen_range(1..3000usize),
            };
            let da = DENSITIES[case % DENSITIES.len()];
            let db = DENSITIES[(case / DENSITIES.len()) % DENSITIES.len()];
            let a = Wah::from_bools(&random_bools(&mut rng, len, da));
            let b = Wah::from_bools(&random_bools(&mut rng, len, db));
            let c = a.or(&b).unwrap();
            let agree = |c: &Wah, a: &Wah, b: &Wah, what: &str| {
                assert_eq!(
                    c.is_or_of(a, b),
                    a.or(b).is_ok_and(|or| or == *c),
                    "case {case} len {len} densities {da}/{db}: {what}"
                );
            };
            assert!(c.is_or_of(&a, &b), "case {case} len {len}");
            agree(&c, &a, &b, "canonical OR");
            // Operands may be in any valid form; the answer does not change.
            let (a2, b2) = (decanonicalize(&a, &mut rng), decanonicalize(&b, &mut rng));
            assert!(c.is_or_of(&a2, &b2), "case {case}: non-canonical operands");
            agree(&c, &a2, &b2, "non-canonical operands");
            // The right bits in the wrong words are not the canonical OR.
            let c2 = decanonicalize(&c, &mut rng);
            agree(&c2, &a, &b, "non-canonical candidate");
            assert_eq!(c2.is_or_of(&a, &b), c2 == c, "case {case}");
            // Every single-bit mutation of the candidate must be rejected.
            let bv = c.to_bitvec();
            let bits: Vec<bool> = (0..len).map(|i| bv.get(i)).collect();
            for _ in 0..4 {
                let mut flipped = bits.clone();
                let at = rng.gen_range(0..len);
                flipped[at] = !flipped[at];
                let wrong = Wah::zeros(len as u64)
                    .or(&Wah::from_bools(&flipped))
                    .unwrap();
                assert!(!wrong.is_or_of(&a, &b), "case {case}: bit {at} flipped");
                agree(&wrong, &a, &b, "single-bit mutation");
            }
            // Length mismatches are a plain no.
            assert!(!c.is_or_of(&a, &Wah::zeros(len as u64 + 1)));
            assert!(!Wah::zeros(len as u64 + 1).is_or_of(&a, &b));
        }
    }

    #[test]
    fn randomized_runs_compress() {
        let mut rng = StdRng::seed_from_u64(0xD00D);
        for case in 0..100 {
            let num_runs = rng.gen_range(1..20usize);
            let mut builder = WahBuilder::new();
            let mut reference: Vec<bool> = Vec::new();
            for _ in 0..num_runs {
                let bit = rng.gen_range(0..2u32) == 1;
                // Run lengths biased toward group-boundary multiples.
                let count = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(1..2000u64),
                    1 => 31 * rng.gen_range(1..64u64),
                    _ => 31 * rng.gen_range(1..64u64) + rng.gen_range(0..31u64),
                };
                builder.push_run(bit, count);
                reference.extend(std::iter::repeat_n(bit, count as usize));
            }
            let w = builder.finish();
            assert_eq!(w.len(), reference.len() as u64, "case {case}");
            let expected: Vec<u64> = reference
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(w.iter_ones().collect::<Vec<_>>(), expected, "case {case}");
        }
    }
}
