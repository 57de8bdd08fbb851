//! A tiny deterministic binary codec for checkpoint images.
//!
//! The soak/restore path (ROADMAP item 4) serializes the full dynamic
//! state of a persist domain — counters, histograms, caches, queues,
//! tree nodes — into one versioned byte image.  This module is the
//! shared primitive layer: little-endian, length-prefixed, offset-
//! tracking.  It lives in `secpb-sim` (the dependency root) so every
//! model crate can give its private state an `encode_into`/`decode_from`
//! pair without cycles in the crate graph.
//!
//! Determinism contract: encoders must visit unordered containers
//! (hash maps, heaps) in a canonical order (sorted keys, `(due, seq)`
//! order), so the same logical state always produces the same bytes.
//!
//! # Example
//!
//! ```
//! use secpb_sim::wire::{WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! w.u64(7);
//! w.str("hello");
//! let bytes = w.into_bytes();
//! let mut r = WireReader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 7);
//! assert_eq!(r.str().unwrap(), "hello");
//! assert!(r.is_empty());
//! ```

use std::fmt;

/// A decode failure, carrying the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before `needed` more bytes could be read.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
    },
    /// The bytes at `offset` decoded to something invalid.
    Malformed {
        /// Byte offset of the offending field.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { offset, needed } => {
                write!(
                    f,
                    "truncated at byte {offset}: {needed} more byte(s) needed"
                )
            }
            WireError::Malformed { offset, what } => {
                write!(f, "malformed at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (checked at decode).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` via its exact bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix (fixed-size fields).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed byte blob.
    #[inline]
    pub fn blob(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }
}

/// Cursor-based little-endian decoder over a byte image.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole image has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`WireError::Malformed`] at the current offset — for callers
    /// whose field-level validation fails after a successful read.
    pub fn malformed(&self, what: impl Into<String>) -> WireError {
        WireError::Malformed {
            offset: self.pos,
            what: what.into(),
        }
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a fixed-size byte array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `N` bytes remain.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// Truncated input or a byte other than 0/1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed {
                offset: at,
                what: format!("boolean byte must be 0 or 1, got {b}"),
            }),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not
    /// fit the host or would exceed the remaining input when used as a
    /// length (callers of [`Self::take`] get exact bounds anyway; this
    /// check keeps huge lengths from attempting giant allocations).
    ///
    /// # Errors
    ///
    /// Truncated input or an out-of-range value.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed {
            offset: at,
            what: format!("length {v} exceeds the host usize"),
        })
    }

    /// Reads a list length that will gate per-element reads of at least
    /// `min_elem_bytes` bytes each, rejecting lengths the remaining
    /// input cannot possibly satisfy (so a corrupt length fails fast
    /// instead of looping or over-allocating).
    ///
    /// # Errors
    ///
    /// Truncated input or an impossible length.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let at = self.pos;
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Malformed {
                offset: at,
                what: format!(
                    "sequence length {n} impossible with {} byte(s) left",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Truncated input or an impossible length.
    #[inline]
    pub fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncated input, an impossible length, or invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let at = self.pos;
        let bytes = self.blob()?;
        std::str::from_utf8(bytes).map_err(|e| WireError::Malformed {
            offset: at,
            what: format!("invalid UTF-8 string: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX - 9);
        w.usize(12345);
        w.f64(-0.5);
        w.f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX - 9);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.f64().unwrap().is_nan(), "NaN bit pattern preserved");
        assert!(r.is_empty());
    }

    #[test]
    fn blobs_and_strings_round_trip() {
        let mut w = WireWriter::new();
        w.blob(b"");
        w.blob(&[1, 2, 3]);
        w.str("caf\u{e9}");
        w.raw(&[9, 9]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.blob().unwrap(), b"");
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "caf\u{e9}");
        assert_eq!(r.take(2).unwrap(), &[9, 9]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_reports_offset_and_need() {
        let mut r = WireReader::new(&[1, 2, 3]);
        r.take(2).unwrap();
        let err = r.u64().unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                offset: 2,
                needed: 7
            }
        );
        assert!(err.to_string().contains("byte 2"));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut r = WireReader::new(&[7]);
        assert!(matches!(
            r.bool(),
            Err(WireError::Malformed { offset: 0, .. })
        ));
        let mut w = WireWriter::new();
        w.blob(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn impossible_lengths_fail_fast() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            WireReader::new(&bytes).blob(),
            Err(WireError::Malformed { offset: 0, .. })
        ));
        let mut w = WireWriter::new();
        w.usize(1_000_000);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.seq_len(8).is_err(), "8 MB of elements in 0 bytes");
    }
}
