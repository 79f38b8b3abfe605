//! Little-endian byte codec: an appending writer and a bounds-checked
//! cursor reader. Every read is guarded — the reader returns
//! [`SnapError`] instead of slicing out of range, so arbitrary garbage
//! can never make the decoder panic.

use crate::error::SnapError;

/// Appending little-endian writer. Field order is the wire format:
/// encode and decode must visit fields in exactly the same sequence.
///
/// A *counting* writer ([`Writer::counter`]) keeps no bytes: it only
/// sums what a real writer would append, so running an encoder through
/// it first measures the exact length of the bytes it writes.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
    len: usize,
    counting: bool,
}

impl Writer {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A writer that appends into a buffer of `capacity` bytes up front.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// A writer that only counts bytes.
    pub(crate) fn counter() -> Self {
        Self {
            counting: true,
            ..Self::default()
        }
    }

    /// Bytes written (or counted) so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn put_raw(&mut self, v: &[u8]) {
        self.len += v.len();
        if !self.counting {
            self.buf.extend_from_slice(v);
        }
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Count-prefixed `u64` sequence.
    pub(crate) fn put_u64_vec(&mut self, v: &[u64]) {
        self.put_u64(len_u64(v.len()));
        if self.counting {
            self.len += 8 * v.len();
            return;
        }
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Count-prefixed raw byte sequence.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(len_u64(v.len()));
        self.put_raw(v);
    }

    /// Count-prefixed UTF-8 string (encoded as its bytes).
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// `usize` length → wire `u64` (lossless on every supported target).
pub(crate) fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Bounds-checked cursor over an untrusted byte slice.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapError> {
        let s = self.take(4)?;
        let arr: [u8; 4] = s.try_into().map_err(|_| SnapError::Corrupt {
            reason: "u32 slice length",
        })?;
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapError> {
        let s = self.take(8)?;
        let arr: [u8; 8] = s.try_into().map_err(|_| SnapError::Corrupt {
            reason: "u64 slice length",
        })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a count prefix for items of `item_bytes` each, refusing
    /// counts the remaining buffer cannot possibly hold (so a flipped
    /// length bit cannot trigger a giant allocation).
    pub(crate) fn count(&mut self, item_bytes: usize) -> Result<usize, SnapError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw).map_err(|_| SnapError::Corrupt {
            reason: "count overflows usize",
        })?;
        let needed = n.checked_mul(item_bytes).ok_or(SnapError::Corrupt {
            reason: "count overflows usize",
        })?;
        if needed > self.remaining() {
            return Err(SnapError::Truncated {
                needed,
                got: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Count-prefixed `u64` sequence.
    pub(crate) fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Count-prefixed raw byte sequence.
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Count-prefixed UTF-8 string; invalid UTF-8 fails closed.
    pub(crate) fn str_utf8(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt {
            reason: "string is not UTF-8",
        })
    }
}

/// Fixed frame header size: magic + version + payload length.
pub(crate) const HEADER_LEN: usize = 16;

/// Trailing frame checksum size.
pub(crate) const CHECKSUM_LEN: usize = 8;

/// Frame the payload `write_payload` produces: magic, version, length,
/// payload, FNV-1a-64 checksum over everything before the checksum.
/// Every blob family in this crate (`DSNP` engine snapshots, `DTNP`
/// tenant checkpoints) uses this exact envelope.
///
/// A counting pass of `write_payload` sizes the blob first, so the
/// header, payload and checksum are written into one buffer allocated
/// at its final size.
pub(crate) fn frame(magic: [u8; 4], version: u32, write_payload: impl Fn(&mut Writer)) -> Vec<u8> {
    let payload_len = payload_len(&write_payload);
    let mut w = Writer::with_capacity(HEADER_LEN + payload_len + CHECKSUM_LEN);
    for b in magic {
        w.put_u8(b);
    }
    w.put_u32(version);
    w.put_u64(len_u64(payload_len));
    write_payload(&mut w);
    debug_assert_eq!(w.len(), HEADER_LEN + payload_len, "counted payload length");
    let sum = fnv1a64(&w.buf);
    w.put_u64(sum);
    w.into_bytes()
}

/// Length of the blob [`frame`] writes for `write_payload`, from a
/// counting pass alone.
pub(crate) fn framed_len(write_payload: impl Fn(&mut Writer)) -> usize {
    HEADER_LEN + payload_len(&write_payload) + CHECKSUM_LEN
}

fn payload_len(write_payload: &impl Fn(&mut Writer)) -> usize {
    let mut counter = Writer::counter();
    write_payload(&mut counter);
    counter.len()
}

/// Validate the frame envelope (magic, version, length, checksum,
/// no trailing bytes) and return the payload slice. Fails closed on
/// every corruption class; see [`crate::EngineSnapshot::decode`] for
/// the error contract.
pub(crate) fn unframe(bytes: &[u8], magic: [u8; 4], supported: u32) -> Result<&[u8], SnapError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..4] != magic {
        return Err(SnapError::BadMagic);
    }
    let mut header = Reader::new(&bytes[4..HEADER_LEN]);
    let version = header.u32()?;
    if version != supported {
        return Err(SnapError::UnsupportedVersion {
            got: version,
            supported,
        });
    }
    let payload_len = usize::try_from(header.u64()?).map_err(|_| SnapError::Corrupt {
        reason: "payload length overflows usize",
    })?;
    let framed_len = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or(SnapError::Corrupt {
            reason: "payload length overflows usize",
        })?;
    if bytes.len() < framed_len {
        return Err(SnapError::Truncated {
            needed: framed_len,
            got: bytes.len(),
        });
    }
    if bytes.len() > framed_len {
        return Err(SnapError::Corrupt {
            reason: "trailing bytes after checksum",
        });
    }
    let body_end = HEADER_LEN + payload_len;
    let mut sum_reader = Reader::new(&bytes[body_end..]);
    let stored_sum = sum_reader.u64()?;
    if fnv1a64(&bytes[..body_end]) != stored_sum {
        return Err(SnapError::Corrupt {
            reason: "checksum mismatch",
        });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Not cryptographic;
/// it exists to turn accidental corruption (truncation survivors, bit
/// flips) into a typed decode error.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_vecs() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u64_vec(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn reads_past_the_end_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(SnapError::Truncated { needed: 8, got: 3 })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // count claiming ~2^64 entries
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u64_vec().is_err());
    }

    #[test]
    fn counting_writer_measures_what_a_writer_writes() {
        let fill = |w: &mut Writer| {
            w.put_u8(1);
            w.put_u32(2);
            w.put_u64_vec(&[3, 4, 5]);
            w.put_str("tenant");
        };
        let mut counter = Writer::counter();
        fill(&mut counter);
        let mut w = Writer::new();
        fill(&mut w);
        assert_eq!(counter.len(), w.len());
        assert!(counter.into_bytes().is_empty(), "a counter keeps no bytes");
        assert_eq!(w.into_bytes().len(), 1 + 4 + 32 + 14);
        let framed = frame(*b"TEST", 1, fill);
        assert_eq!(framed.len(), framed_len(fill));
        assert_eq!(unframe(&framed, *b"TEST", 1).unwrap().len(), 51);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
