//! Word-level state serialization for checkpoint/restore.
//!
//! Every stateful component in this workspace — controllers and their
//! fault/watchdog decorators, the simulation substrates, the demand
//! generator, the flight recorder — exposes its dynamic state as a flat
//! sequence of `u64` words through a [`StateWriter`], and rebuilds it
//! from a [`StateReader`]. The word stream is the *logical* encoding and
//! is stored packed little-endian, eight bytes per word; the on-disk
//! container (format version, section framing, checksums) lives in
//! `utilbp-snapshot`, which has the writer append straight into its
//! output buffer and hands readers the verified payload slices.
//!
//! ## Contract
//!
//! - **Determinism.** `save_state` must emit an identical word sequence
//!   for identical logical state: collections are written in index
//!   order, unordered sets are sorted before writing, and floats are
//!   written bit-exactly via [`f64::to_bits`] (so a restored
//!   accumulator continues *bit-identically*, not approximately).
//! - **Round-trip.** `load_state(save_state(x))` must reproduce `x`'s
//!   observable behavior exactly; `save_state` after a restore must
//!   emit the same words again (canonicalization happens on save, so
//!   save→load→save is a fixed point).
//! - **No panics on bad input.** Readers return [`StateError`]; a
//!   corrupted or truncated stream must surface as an error, never as
//!   an index-out-of-bounds panic. Values are range-checked as they
//!   are read ([`StateReader::take_u32`], [`StateReader::take_bool`]),
//!   and a length that sizes an allocation is checked against the words
//!   left in the stream first ([`StateReader::take_len`]), so a crafted
//!   length cannot abort the process.

use std::error::Error;
use std::fmt;

/// A growable sink of `u64` state words, packed little-endian into a
/// byte buffer.
///
/// # Examples
///
/// ```
/// use utilbp_core::state::{StateReader, StateWriter};
///
/// let mut w = StateWriter::new();
/// w.push(7);
/// w.push_f64(0.25);
/// w.push_bool(true);
///
/// let mut r = StateReader::new(w.bytes());
/// assert_eq!(r.take().unwrap(), 7);
/// assert_eq!(r.take_f64().unwrap(), 0.25);
/// assert!(r.take_bool().unwrap());
/// r.finish().unwrap();
/// ```
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    bytes: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter { bytes: Vec::new() }
    }

    /// A writer appending to `bytes` after its existing content, so a
    /// container can have the words encoded in place.
    pub fn appending_to(bytes: Vec<u8>) -> Self {
        StateWriter { bytes }
    }

    /// The buffer: any content it was created over, then the words
    /// written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one raw word.
    pub fn push(&mut self, word: u64) {
        self.bytes.extend_from_slice(&word.to_le_bytes());
    }

    /// Appends a `u32`, widened.
    pub fn push_u32(&mut self, value: u32) {
        self.push(u64::from(value));
    }

    /// Appends a `usize`, widened.
    pub fn push_usize(&mut self, value: usize) {
        self.push(value as u64);
    }

    /// Appends a boolean as 0/1.
    pub fn push_bool(&mut self, value: bool) {
        self.push(u64::from(value));
    }

    /// Appends an `f64` bit-exactly.
    pub fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    /// Appends a UTF-8 string: its byte length, then its bytes packed
    /// little-endian into words (the final word zero-padded).
    pub fn push_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.push_usize(bytes.len());
        self.bytes.extend_from_slice(bytes);
        let pad = bytes.len().next_multiple_of(8) - bytes.len();
        self.bytes.extend_from_slice(&[0; 8][..pad]);
    }
}

/// The largest event counter a word stream may restore (2⁵³, the range
/// in which an `f64` holds every integer). No run gets near it — a
/// million events per tick for 285 years of one-second ticks — so a
/// restored counter has room for every increment the step path makes.
pub(crate) const MAX_COUNT: u64 = 1 << 53;

/// A cursor over a word stream produced by [`StateWriter`], decoding
/// the little-endian words straight from the byte slice.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    rest: &'a [u8],
    /// Words consumed so far.
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over the packed words in `bytes`, positioned at the
    /// start. A partial word at the end is never decoded: reads reach
    /// [`StateError::Exhausted`] before it and [`finish`](Self::finish)
    /// reports it as trailing.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader {
            rest: bytes,
            pos: 0,
        }
    }

    /// Whole words not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len() / 8
    }

    /// Takes the next raw word.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] if the stream has run out.
    pub fn take(&mut self) -> Result<u64, StateError> {
        let (word, rest) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or(StateError::Exhausted { at: self.pos })?;
        self.rest = rest;
        self.pos += 1;
        Ok(u64::from_le_bytes(*word))
    }

    /// Takes a word that must fit in `u32`.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] or [`StateError::Invalid`] when the
    /// word exceeds `u32::MAX`.
    pub fn take_u32(&mut self) -> Result<u32, StateError> {
        let word = self.take()?;
        u32::try_from(word).map_err(|_| StateError::Invalid { what: "u32", word })
    }

    /// Takes a word no larger than `max`: a count or a tick the restored
    /// state cannot have passed.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`], or [`StateError::Invalid`] naming
    /// `what` when the word exceeds `max`.
    pub fn take_at_most(&mut self, max: u64, what: &'static str) -> Result<u64, StateError> {
        match self.take()? {
            word if word > max => Err(StateError::Invalid { what, word }),
            word => Ok(word),
        }
    }

    /// Takes a word below `bound`: an id the restored state has not
    /// issued, or a tick its clock has not reached.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`], or [`StateError::Invalid`] naming
    /// `what` when the word is `bound` or more.
    pub fn take_below(&mut self, bound: u64, what: &'static str) -> Result<u64, StateError> {
        match self.take()? {
            word if word >= bound => Err(StateError::Invalid { what, word }),
            word => Ok(word),
        }
    }

    /// Takes an event counter: at most 2^53, so the step path can keep
    /// adding to it without overflow.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`], or [`StateError::Invalid`] naming
    /// `what` above 2^53.
    pub fn take_count(&mut self, what: &'static str) -> Result<u64, StateError> {
        self.take_at_most(MAX_COUNT, what)
    }

    /// Takes a word as a `usize`.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] or [`StateError::Invalid`] when the
    /// word does not fit (32-bit targets).
    pub fn take_usize(&mut self) -> Result<usize, StateError> {
        let word = self.take()?;
        usize::try_from(word).map_err(|_| StateError::Invalid {
            what: "usize",
            word,
        })
    }

    /// Takes the length of a collection whose items each occupy at least
    /// `words_each` of the words still in the stream. Readers take the
    /// lengths they allocate for through here, so a crafted length fails
    /// as an error before any allocation.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`], or [`StateError::Invalid`] naming
    /// `what` when that many items cannot fit in the remaining words.
    pub fn take_len(&mut self, words_each: usize, what: &'static str) -> Result<usize, StateError> {
        let word = self.take()?;
        let remaining = self.remaining();
        usize::try_from(word)
            .ok()
            .filter(|len| len.checked_mul(words_each).is_some_and(|w| w <= remaining))
            .ok_or(StateError::Invalid { what, word })
    }

    /// Takes a 0/1 word as a boolean.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] or [`StateError::Invalid`] on any
    /// other value.
    pub fn take_bool(&mut self) -> Result<bool, StateError> {
        match self.take()? {
            0 => Ok(false),
            1 => Ok(true),
            word => Err(StateError::Invalid { what: "bool", word }),
        }
    }

    /// Takes a bit-exact `f64`.
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] if the stream has run out.
    pub fn take_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.take()?))
    }

    /// Takes a string written by [`StateWriter::push_str`].
    ///
    /// # Errors
    ///
    /// [`StateError::Exhausted`] on truncation, [`StateError::Invalid`]
    /// when the bytes are not UTF-8.
    pub fn take_string(&mut self) -> Result<String, StateError> {
        let len = self.take_usize()?;
        let words = len.div_ceil(8);
        if words > self.remaining() {
            return Err(StateError::Exhausted {
                at: self.pos + self.remaining(),
            });
        }
        let (padded, rest) = self.rest.split_at(words * 8);
        self.rest = rest;
        self.pos += words;
        String::from_utf8(padded[..len].to_vec()).map_err(|_| StateError::Invalid {
            what: "utf-8 string",
            word: len as u64,
        })
    }

    /// Asserts the stream was fully consumed.
    ///
    /// # Errors
    ///
    /// [`StateError::Trailing`] if words remain.
    pub fn finish(self) -> Result<(), StateError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(StateError::Trailing {
                remaining: self.rest.len().div_ceil(8),
            })
        }
    }
}

/// A malformed or truncated state stream.
///
/// Always an error value, never a panic: restore paths surface these to
/// the caller so recovery can fall back to an older checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The stream ended before the component finished reading.
    Exhausted {
        /// Word index at which the read failed.
        at: usize,
    },
    /// A word failed a range or encoding check.
    Invalid {
        /// What the word was expected to encode.
        what: &'static str,
        /// The offending word.
        word: u64,
    },
    /// The component finished but unread words remain.
    Trailing {
        /// How many words were left over.
        remaining: usize,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Exhausted { at } => {
                write!(f, "state stream exhausted at word {at}")
            }
            StateError::Invalid { what, word } => {
                write!(f, "state word {word:#x} is not a valid {what}")
            }
            StateError::Trailing { remaining } => {
                write!(f, "state stream has {remaining} unread trailing words")
            }
        }
    }
}

impl Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_kind() {
        let mut w = StateWriter::new();
        w.push(u64::MAX);
        w.push_u32(42);
        w.push_usize(7);
        w.push_bool(true);
        w.push_bool(false);
        w.push_f64(-0.0);
        w.push_f64(f64::NEG_INFINITY);
        w.push_str("hello, snapshot");
        w.push_str("");

        let mut r = StateReader::new(w.bytes());
        assert_eq!(r.take().unwrap(), u64::MAX);
        assert_eq!(r.take_u32().unwrap(), 42);
        assert_eq!(r.take_usize().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.take_string().unwrap(), "hello, snapshot");
        assert_eq!(r.take_string().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut r = StateReader::new(&[]);
        assert_eq!(r.take(), Err(StateError::Exhausted { at: 0 }));
        assert!(r.take_f64().is_err());
    }

    #[test]
    fn invalid_words_are_rejected() {
        let mut w = StateWriter::new();
        w.push(2);
        w.push(u64::MAX);
        let mut r = StateReader::new(w.bytes());
        assert!(matches!(
            r.take_bool(),
            Err(StateError::Invalid { what: "bool", .. })
        ));
        assert!(matches!(
            r.take_u32(),
            Err(StateError::Invalid { what: "u32", .. })
        ));
    }

    #[test]
    fn trailing_words_are_detected() {
        let mut w = StateWriter::new();
        w.push(1);
        w.push(2);
        let mut r = StateReader::new(w.bytes());
        r.take().unwrap();
        assert_eq!(r.finish(), Err(StateError::Trailing { remaining: 1 }));
        // A partial word is trailing too, never decoded.
        let mut r = StateReader::new(&w.bytes()[..12]);
        r.take().unwrap();
        assert_eq!(r.take(), Err(StateError::Exhausted { at: 1 }));
        assert_eq!(r.finish(), Err(StateError::Trailing { remaining: 1 }));
    }

    #[test]
    fn lengths_that_cannot_fit_are_invalid() {
        let mut w = StateWriter::new();
        w.push(2);
        w.push(10);
        w.push(20);
        let mut r = StateReader::new(w.bytes());
        assert_eq!(r.take_len(1, "items"), Ok(2));
        let mut r = StateReader::new(w.bytes());
        assert_eq!(
            r.take_len(2, "pairs"),
            Err(StateError::Invalid {
                what: "pairs",
                word: 2
            })
        );
        let mut w = StateWriter::new();
        w.push(u64::MAX);
        let mut r = StateReader::new(w.bytes());
        assert!(matches!(
            r.take_len(1, "items"),
            Err(StateError::Invalid { what: "items", .. })
        ));
    }

    #[test]
    fn truncated_string_is_exhausted() {
        let mut w = StateWriter::new();
        w.push_str("a longer string than one word");
        let mut r = StateReader::new(&w.bytes()[..16]);
        assert!(matches!(r.take_string(), Err(StateError::Exhausted { .. })));
    }

    #[test]
    fn bounded_takes_reject_words_past_their_bound() {
        let mut w = StateWriter::new();
        [7, 8, MAX_COUNT, MAX_COUNT + 1]
            .into_iter()
            .for_each(|word| w.push(word));
        let mut r = StateReader::new(w.bytes());
        assert_eq!(r.take_at_most(7, "tick"), Ok(7));
        let past = |word| Err(StateError::Invalid { what: "tick", word });
        assert_eq!(r.take_at_most(7, "tick"), past(8));
        assert_eq!(r.take_count("count"), Ok(MAX_COUNT));
        assert!(r.take_count("count").is_err());
    }
}
