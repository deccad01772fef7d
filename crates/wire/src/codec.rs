//! Byte-level encoding primitives: a growable [`Writer`] and a borrowing
//! [`Reader`], with fixed-width big-endian integers, LEB128 varints, and
//! length-prefixed byte strings.
//!
//! These are the building blocks for every PDU in the suite, and are also
//! exported so higher layers (directory, routing, enrollment) can encode
//! their object values inside CDAP messages.

use crate::error::WireError;
use bytes::Bytes;

/// Append-only encoder.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Writer { buf: Vec::with_capacity(n) }
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }
    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }
    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }
    /// Append a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }
    /// Append an unsigned LEB128 varint (1..=10 bytes).
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let mut b = (v & 0x7F) as u8;
            v >>= 7;
            if v != 0 {
                b |= 0x80;
            }
            self.buf.push(b);
            if v == 0 {
                break;
            }
        }
        self
    }
    /// Append raw bytes with a varint length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }
    /// Append a UTF-8 string with a varint length prefix.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
    /// Append raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }
    /// Append a boolean as one byte.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }
    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
    /// View of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
    /// Finish, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
    /// Finish with a trailing CRC-32 of everything written.
    pub fn finish_with_crc(mut self) -> Bytes {
        let c = crate::crc::crc32(&self.buf);
        self.buf.extend_from_slice(&c.to_be_bytes());
        Bytes::from(self.buf)
    }
    /// Finish with a caller-supplied CRC-32 trailer. For callers that
    /// derived the sum incrementally (e.g. [`crate::crc::crc32_combine`]);
    /// the value must equal `crc32` of everything written or the frame
    /// will not verify.
    pub fn finish_with_crc_value(mut self, c: u32) -> Bytes {
        self.buf.extend_from_slice(&c.to_be_bytes());
        Bytes::from(self.buf)
    }
}

/// Borrowing decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Decode from `buf` after verifying and stripping a trailing CRC-32.
    pub fn new_checked(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let want = u32::from_be_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crate::crc::crc32(body) != want {
            return Err(WireError::BadChecksum);
        }
        Ok(Reader { buf: body, pos: 0 })
    }

    /// Bytes remaining to be read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Whether the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
    /// Error unless the reader is exhausted.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }
    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }
    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes(s.try_into().expect("len 8")))
    }
    /// Read an unsigned LEB128 varint in its one canonical form, the
    /// shortest: a multi-byte varint whose last group is zero is
    /// rejected, so every value has exactly one accepted encoding and a
    /// decoded object re-encodes to the bytes it was read from.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(WireError::Invalid("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }
    /// Read a varint-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(WireError::Truncated);
        }
        self.take(n as usize)
    }
    /// Read a varint-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::Invalid("utf-8 string"))
    }
    /// Read all remaining bytes.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    /// Read a boolean byte (must be 0 or 1).
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("boolean")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_fixed_widths() {
        let mut w = Writer::new();
        w.u8(7).u16(0xBEEF).u32(0xDEAD_BEEF).u64(u64::MAX).boolean(true);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.boolean().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_edge_cases() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.varint(v);
            let b = w.finish();
            let mut r = Reader::new(&b);
            assert_eq!(r.varint().unwrap(), v, "value {v}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can encode > 64 bits.
        let bad = [0xFFu8; 10];
        let mut r = Reader::new(&bad);
        assert!(matches!(r.varint(), Err(WireError::VarintOverflow) | Err(WireError::Truncated)));
    }

    #[test]
    fn overlong_varints_rejected() {
        for bad in [&[0x80, 0x00][..], &[0xFF, 0x80, 0x00], &[0x81, 0x80, 0x80, 0x00]] {
            let mut r = Reader::new(bad);
            assert_eq!(r.varint(), Err(WireError::Invalid("overlong varint")), "{bad:02x?}");
        }
        // The tenth byte of u64::MAX's encoding is 0x01; a zero there is
        // overlong too.
        let mut tenth_zero = [0xFFu8; 10];
        tenth_zero[9] = 0x00;
        assert_eq!(Reader::new(&tenth_zero).varint(), Err(WireError::Invalid("overlong varint")));
        // A lone zero byte is 0, the one canonical encoding of it.
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
    }

    #[test]
    fn string_and_bytes() {
        let mut w = Writer::new();
        w.string("rina").bytes(&[1, 2, 3]).raw(&[9]);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.string().unwrap(), "rina");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.rest(), &[9]);
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.string(), Err(WireError::Invalid("utf-8 string")));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u32(5);
        let b = w.finish();
        let mut r = Reader::new(&b[..2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
    }

    #[test]
    fn crc_frame_roundtrip_and_tamper() {
        let mut w = Writer::new();
        w.string("payload");
        let b = w.finish_with_crc();
        assert!(Reader::new_checked(&b).is_ok());
        let mut tampered = b.to_vec();
        tampered[1] ^= 0x40;
        assert_eq!(Reader::new_checked(&tampered).err(), Some(WireError::BadChecksum));
        assert_eq!(Reader::new_checked(&b[..3]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn boolean_strict() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.boolean(), Err(WireError::Invalid("boolean")));
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut w = Writer::new();
            w.varint(v);
            let b = w.finish();
            let mut r = Reader::new(&b);
            prop_assert_eq!(r.varint().unwrap(), v);
            prop_assert!(r.is_empty());
        }

        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut w = Writer::new();
            w.bytes(&data);
            let b = w.finish_with_crc();
            let mut r = Reader::new_checked(&b).unwrap();
            prop_assert_eq!(r.bytes().unwrap(), &data[..]);
        }

        #[test]
        fn prop_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Whatever the bytes, reading must fail cleanly, not panic.
            let mut r = Reader::new(&data);
            let _ = r.varint();
            let mut r = Reader::new(&data);
            let _ = r.string();
            let _ = Reader::new_checked(&data);
        }
    }
}
