//! # utilbp-snapshot
//!
//! The durable snapshot container behind checkpoint/restore: a
//! versioned, checksummed binary framing for the word-level state
//! streams of [`utilbp_core::state`]. The `crates/compat/serde` shims
//! are no-ops, so — like the scenario text format and the telemetry
//! JSONL — the format is hand-rolled and fully specified here.
//!
//! ## Wire format (version 3)
//!
//! Versions 2 and 3 keep version 1's framing. Version 2 marks the sparse
//! waiting ledger (slab length, live count, then `(slot, entry tick)`
//! for live vehicles only). Version 3 marks the scenario engine's META
//! section without its former execution-mode word. Captures of an older
//! version fail as `UnsupportedVersion` instead of being misread.
//!
//! ```text
//! header   := magic "UBPSNAP\0" (8 bytes) · version u32 LE · section_count u32 LE
//! section  := tag u32 LE · payload_len u64 LE · crc32 u32 LE · payload
//! snapshot := header · section^section_count
//! ```
//!
//! - All integers are little-endian; a *word section* is a payload of
//!   `u64` words packed little-endian (length a multiple of 8).
//! - The CRC is CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over the
//!   payload bytes only. Each section is independently verified, so a
//!   torn write corrupts — and is detected in — exactly the sections it
//!   touched.
//! - Sections are identified by caller-chosen tags, appear in write
//!   order, and must be unique; readers address them by tag, so a
//!   future version can append sections without breaking older
//!   readers of the ones they know. The header's section count makes
//!   a write torn *between* sections detectable too — a valid prefix
//!   of sections is still a truncated snapshot.
//!
//! ## Encoding at memory speed
//!
//! [`crc32`] is table-driven *slicing-by-16*: sixteen compile-time
//! 256-entry tables fold sixteen input bytes per step, in safe Rust,
//! giving the same values as the classic bytewise loop at several times
//! its speed. A word section is encoded in place:
//! [`SnapshotWriter::section_state`] reserves the 16-byte section header,
//! lets a [`StateWriter`] append the words straight into the container
//! buffer, then patches in the payload length and checksum — there is no
//! intermediate word vector or payload copy. On the read side
//! [`SnapshotReader::words`] hands out a [`StateReader`] that decodes
//! the words directly from the verified payload slice.
//! [`SnapshotWriter::reusing`] writes into a caller's buffer, so a
//! periodic capture can recycle the allocation of the one it evicts.
//!
//! ## Error contract
//!
//! Parsing never panics on untrusted bytes: truncation, bad magic,
//! version skew, and checksum mismatches all surface as typed
//! [`SnapshotError`] values ([`SnapshotReader::parse`] validates every
//! section's checksum up front). Recovery layers rely on this to
//! reject a corrupted checkpoint and fall back to an older one.
//!
//! ## Example
//!
//! ```
//! use utilbp_snapshot::{SnapshotReader, SnapshotWriter, SnapshotError};
//!
//! let mut w = SnapshotWriter::new();
//! w.section_state(1, |words| {
//!     words.push(7);
//!     words.push_f64(0.5);
//! });
//! w.section_bytes(2, b"spec text");
//! let bytes = w.finish();
//!
//! let reader = SnapshotReader::parse(&bytes).unwrap();
//! let mut words = reader.words(1).unwrap();
//! assert_eq!(words.take().unwrap(), 7);
//! assert_eq!(words.take_f64().unwrap(), 0.5);
//! words.finish().unwrap();
//! assert_eq!(reader.bytes(2).unwrap(), b"spec text");
//!
//! // A flipped payload bit is caught by the section checksum.
//! let mut torn = bytes.clone();
//! *torn.last_mut().unwrap() ^= 0x01;
//! assert!(matches!(
//!     SnapshotReader::parse(&torn),
//!     Err(SnapshotError::ChecksumMismatch { tag: 2 })
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use utilbp_core::state::{StateError, StateReader, StateWriter};

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"UBPSNAP\0";

/// The current wire-format version. Versions 2 and 3 changed no framing:
/// version 2 marks the waiting ledger's sparse word layout, version 3 the
/// engine metadata without its execution-mode word, so an older capture
/// is rejected instead of misread.
pub const FORMAT_VERSION: u32 = 3;

/// Builds the slicing-by-16 CRC-32 (IEEE, reflected polynomial
/// `0xEDB88320`) tables at compile time. `table[0]` is the classic
/// bytewise table; `table[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes.
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

const CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3 / zlib polynomial) of `bytes`, sixteen bytes per
/// step (slicing-by-16), with a bytewise loop for the tail.
///
/// # Examples
///
/// ```
/// // The classic check value for the IEEE polynomial.
/// assert_eq!(utilbp_snapshot::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    // Two 8-byte loads per block, byte lanes by shifting. Only the low
    // four lanes depend on the running CRC: folding the other twelve
    // first keeps the loop-carried chain to one lookup and two XORs.
    let lane = |word: u64, byte: u32| usize::from((word >> (8 * byte)) as u8);
    for block in blocks {
        let [lo, hi] = [&block[..8], &block[8..]]
            .map(|half| u64::from_le_bytes(half.try_into().expect("8 bytes")));
        let ahead = (t[11][lane(lo, 4)] ^ t[10][lane(lo, 5)])
            ^ (t[9][lane(lo, 6)] ^ t[8][lane(lo, 7)])
            ^ (t[7][lane(hi, 0)] ^ t[6][lane(hi, 1)])
            ^ (t[5][lane(hi, 2)] ^ t[4][lane(hi, 3)])
            ^ (t[3][lane(hi, 4)] ^ t[2][lane(hi, 5)])
            ^ (t[1][lane(hi, 6)] ^ t[0][lane(hi, 7)]);
        let lo = lo ^ u64::from(crc);
        crc = ahead
            ^ (t[15][lane(lo, 0)] ^ t[14][lane(lo, 1)])
            ^ (t[13][lane(lo, 2)] ^ t[12][lane(lo, 3)]);
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// A malformed, truncated, or corrupted snapshot.
///
/// Every variant is a recoverable error value — parsing untrusted
/// bytes never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`MAGIC`].
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The bytes end mid-header, mid-section, or before the header's
    /// section count is satisfied.
    Truncated {
        /// Byte offset at which parsing ran out of input.
        at: usize,
    },
    /// Bytes remain after the last section the header promised.
    TrailingBytes {
        /// Offset of the first unexpected byte.
        at: usize,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// The corrupted section's tag.
        tag: u32,
    },
    /// The same tag appears twice.
    DuplicateSection {
        /// The repeated tag.
        tag: u32,
    },
    /// A section required by the reader is absent.
    MissingSection {
        /// The absent tag.
        tag: u32,
    },
    /// A word section's payload length is not a multiple of 8.
    MisalignedSection {
        /// The misaligned section's tag.
        tag: u32,
    },
    /// A section parsed and verified, but its word stream failed a
    /// component's semantic checks.
    State(StateError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (reader speaks {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated { at } => {
                write!(f, "snapshot truncated at byte {at}")
            }
            SnapshotError::TrailingBytes { at } => {
                write!(f, "unexpected bytes after the last section, at byte {at}")
            }
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "section {tag} failed its checksum")
            }
            SnapshotError::DuplicateSection { tag } => {
                write!(f, "section {tag} appears more than once")
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "required section {tag} is absent")
            }
            SnapshotError::MisalignedSection { tag } => {
                write!(f, "section {tag} is not a whole number of words")
            }
            SnapshotError::State(e) => write!(f, "section state stream: {e}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<StateError> for SnapshotError {
    fn from(e: StateError) -> Self {
        SnapshotError::State(e)
    }
}

/// Serializes a snapshot: header first, then checksummed sections in
/// write order.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    count: u32,
}

/// Bytes of a section header: tag, payload length, CRC.
const SECTION_HEADER: usize = 16;

impl SnapshotWriter {
    /// A writer with the header already emitted (the section count is
    /// patched in by [`finish`](Self::finish)).
    pub fn new() -> Self {
        SnapshotWriter::reusing(Vec::new())
    }

    /// A writer over `buf`'s allocation: its content is discarded and
    /// the snapshot written from the start, so a caller can recycle an
    /// old snapshot's buffer for a new one.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        SnapshotWriter { buf, count: 0 }
    }

    /// Appends a raw byte section under `tag`.
    pub fn section_bytes(&mut self, tag: u32, payload: &[u8]) {
        let start = self.open(tag);
        self.buf.extend_from_slice(payload);
        self.close(start);
    }

    /// Appends a word section under `tag`, encoded in place: `write`
    /// pushes its words straight into the snapshot buffer.
    pub fn section_state(&mut self, tag: u32, write: impl FnOnce(&mut StateWriter)) {
        let start = self.open(tag);
        let mut words = StateWriter::appending_to(std::mem::take(&mut self.buf));
        write(&mut words);
        self.buf = words.into_bytes();
        self.close(start);
    }

    /// Reserves a section header for `tag`; returns where it starts.
    fn open(&mut self, tag: u32) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf.extend_from_slice(&[0; SECTION_HEADER - 4]);
        start
    }

    /// Patches the payload length and checksum into the header opened
    /// at `start`.
    fn close(&mut self, start: usize) {
        let (header, payload) = self.buf[start..].split_at_mut(SECTION_HEADER);
        header[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
        self.count += 1;
    }

    /// Finalizes the snapshot, patching the section count into the
    /// header.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.buf;
        buf[12..16].copy_from_slice(&self.count.to_le_bytes());
        buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

/// A parsed, fully checksum-verified snapshot.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and verifies `bytes`: header magic and version, section
    /// framing, tag uniqueness, and every section's checksum.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except `MissingSection` /
    /// `MisalignedSection` / `State` (those belong to per-section
    /// reads).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let prefix = bytes.len().min(MAGIC.len());
        if bytes[..prefix] != MAGIC[..prefix] {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated { at: bytes.len() });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let mut sections: Vec<(u32, &'a [u8])> = Vec::new();
        let mut pos = 16;
        for _ in 0..count {
            if bytes.len() - pos < 16 {
                return Err(SnapshotError::Truncated {
                    at: bytes.len().min(pos + 16),
                });
            }
            let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
            let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
            pos += 16;
            let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated { at: pos })?;
            if bytes.len() - pos < len {
                return Err(SnapshotError::Truncated { at: bytes.len() });
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { tag });
            }
            if sections.iter().any(|&(t, _)| t == tag) {
                return Err(SnapshotError::DuplicateSection { tag });
            }
            sections.push((tag, payload));
        }
        if pos != bytes.len() {
            return Err(SnapshotError::TrailingBytes { at: pos });
        }
        Ok(SnapshotReader { sections })
    }

    /// The section tags, in write order.
    pub fn tags(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|&(t, _)| t)
    }

    /// Whether a section with `tag` exists.
    pub fn has(&self, tag: u32) -> bool {
        self.sections.iter().any(|&(t, _)| t == tag)
    }

    /// The raw payload of section `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn bytes(&self, tag: u32) -> Result<&'a [u8], SnapshotError> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, p)| p)
            .ok_or(SnapshotError::MissingSection { tag })
    }

    /// A reader over the words of section `tag`, decoding them straight
    /// from the verified payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent,
    /// [`SnapshotError::MisalignedSection`] when the payload is not a
    /// whole number of words.
    pub fn words(&self, tag: u32) -> Result<StateReader<'a>, SnapshotError> {
        let payload = self.bytes(tag)?;
        if payload.len() % 8 != 0 {
            return Err(SnapshotError::MisalignedSection { tag });
        }
        Ok(StateReader::new(payload))
    }
}

/// Verifies `bytes` parse as a well-formed snapshot with every section
/// checksum intact (the recovery scan's validity test).
///
/// # Errors
///
/// The first [`SnapshotError`] encountered.
pub fn validate(bytes: &[u8]) -> Result<(), SnapshotError> {
    SnapshotReader::parse(bytes).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_WORDS: [u64; 3] = [1, u64::MAX, 0x0123_4567_89AB_CDEF];

    fn section_words(w: &mut SnapshotWriter, tag: u32, words: &[u64]) {
        w.section_state(tag, |s| words.iter().for_each(|&word| s.push(word)));
    }

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        section_words(&mut w, 10, &SAMPLE_WORDS);
        w.section_bytes(20, b"scenario text\n");
        section_words(&mut w, 30, &[]);
        w.finish()
    }

    fn read_words(r: &SnapshotReader<'_>, tag: u32) -> Vec<u64> {
        let mut words = r.words(tag).unwrap();
        let mut out = Vec::new();
        while let Ok(word) = words.take() {
            out.push(word);
        }
        words.finish().unwrap();
        out
    }

    #[test]
    fn round_trips_sections_by_tag() {
        let bytes = sample();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.tags().collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(read_words(&r, 10), SAMPLE_WORDS);
        assert_eq!(r.bytes(20).unwrap(), b"scenario text\n");
        assert_eq!(read_words(&r, 30), Vec::<u64>::new());
        assert!(r.has(10));
        assert!(!r.has(99));
    }

    #[test]
    fn in_place_sections_match_the_reference_framing() {
        // The reference: words packed to little-endian bytes first, then
        // framed as an opaque byte section.
        let mut reference = SnapshotWriter::new();
        for (tag, words) in [(10, &SAMPLE_WORDS[..]), (30, &[][..])] {
            let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            reference.section_bytes(tag, &payload);
        }
        let mut in_place = SnapshotWriter::new();
        section_words(&mut in_place, 10, &SAMPLE_WORDS);
        section_words(&mut in_place, 30, &[]);
        assert_eq!(in_place.finish(), reference.finish());
    }

    #[test]
    fn a_reused_buffer_writes_the_same_bytes() {
        let fresh = sample();
        let mut w = SnapshotWriter::reusing(vec![0xAB; 4096]);
        section_words(&mut w, 10, &SAMPLE_WORDS);
        w.section_bytes(20, b"scenario text\n");
        section_words(&mut w, 30, &[]);
        let reused = w.finish();
        assert_eq!(reused, fresh);
        assert!(reused.capacity() >= 4096, "the allocation is kept");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::parse(b"not a snapshot at all").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = sample();
        for found in [2u32, 99] {
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                SnapshotReader::parse(&bytes).unwrap_err(),
                SnapshotError::UnsupportedVersion { found }
            );
        }
    }

    #[test]
    fn every_truncation_point_is_an_error_not_a_panic() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: {err}"
            );
        }
        assert!(SnapshotReader::parse(&bytes).is_ok());
    }

    #[test]
    fn every_single_bit_flip_in_a_payload_is_detected() {
        let bytes = sample();
        // Section 20's payload: find it and flip each bit in turn.
        let r = SnapshotReader::parse(&bytes).unwrap();
        let payload = r.bytes(20).unwrap();
        // From the tail: the final section is a bare 16-byte header with
        // an empty payload, preceded by section 20's header + payload.
        let start = bytes.len() - 16 - payload.len();
        drop(r);
        for bit in 0..payload.len() * 8 {
            let mut torn = bytes.clone();
            torn[start + bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                SnapshotReader::parse(&torn).unwrap_err(),
                SnapshotError::ChecksumMismatch { tag: 20 },
                "flipped bit {bit}"
            );
        }
    }

    #[test]
    fn duplicate_and_missing_sections_are_typed_errors() {
        let mut w = SnapshotWriter::new();
        section_words(&mut w, 5, &[1]);
        section_words(&mut w, 5, &[2]);
        assert_eq!(
            SnapshotReader::parse(&w.finish()).unwrap_err(),
            SnapshotError::DuplicateSection { tag: 5 }
        );

        let r_bytes = sample();
        let r = SnapshotReader::parse(&r_bytes).unwrap();
        assert_eq!(
            r.words(99).unwrap_err(),
            SnapshotError::MissingSection { tag: 99 }
        );
        assert_eq!(
            r.bytes(99).unwrap_err(),
            SnapshotError::MissingSection { tag: 99 }
        );
    }

    #[test]
    fn misaligned_word_sections_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.section_bytes(7, b"12345");
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(
            r.words(7).unwrap_err(),
            SnapshotError::MisalignedSection { tag: 7 }
        );
    }

    #[test]
    fn crc_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The classic one-table bytewise CRC-32.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        // A seeded pseudo-random buffer (SplitMix64), long enough for
        // every length 0..=1100 at each of 16 start offsets, so every
        // block/tail split and alignment is covered.
        let mut state = 0x5EED_u64;
        let buf: Vec<u8> = (0..1100 + 16)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=1100 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn validate_matches_parse() {
        let bytes = sample();
        assert!(validate(&bytes).is_ok());
        let mut torn = bytes.clone();
        torn.truncate(torn.len() - 1);
        assert!(validate(&torn).is_err());
    }
}
