//! Length-prefixed wire frames and the payload codec.
//!
//! Every byte stream built on this crate (the `colord` client
//! protocol) is a sequence of *frames*: a little-endian `u32`
//! length followed by that many payload bytes. Payloads are built and
//! parsed with [`FramePayload`] / [`FrameReader`] — fixed-width
//! little-endian scalars plus length-prefixed byte strings, no
//! self-description, no reflection — and protocol message types opt in
//! by implementing [`WireMessage`].

use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload size. Nothing on the `colord`
/// wire comes near 1 MiB; anything larger is a corrupt or hostile
/// stream and is rejected before allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_FRAME}", payload.len()),
        ));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// *before* the length prefix (the peer closed between frames); EOF
/// mid-frame is an error.
///
/// # Errors
/// Propagates I/O errors; rejects lengths over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let k = r.read(&mut len_buf[filled..])?;
        if k == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame length prefix",
            ));
        }
        filled += k;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What went wrong while decoding a frame payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated,
    /// The payload had bytes left after the message was fully decoded.
    Trailing,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame payload truncated"),
            FrameError::Trailing => write!(f, "trailing bytes after message"),
            FrameError::BadTag(t) => write!(f, "unknown message tag {t}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// An append-only payload builder: fixed-width little-endian scalars
/// and length-prefixed byte strings.
#[derive(Clone, Debug, Default)]
pub struct FramePayload {
    buf: Vec<u8>,
}

impl FramePayload {
    /// An empty payload.
    pub fn new() -> Self {
        FramePayload::default()
    }

    /// Appends one byte (typically a message tag).
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// The finished payload bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes built so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// A cursor over a received payload, mirroring [`FramePayload`].
#[derive(Clone, Copy, Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its little-endian IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Fails with [`FrameError::Trailing`] unless the payload is fully
    /// consumed — decoders call this last so extra bytes never pass
    /// silently.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Trailing)
        }
    }
}

/// A message type with a canonical byte encoding, so it can cross a
/// byte stream (`colord`'s requests and responses).
///
/// The codec must round-trip exactly: `decode(encode(m)) == m`. No
/// versioning or self-description — both ends of a connection run the
/// same build.
pub trait WireMessage: Sized {
    /// Appends the message's encoding to `out`.
    fn encode(&self, out: &mut FramePayload);

    /// Decodes one message; implementations must call
    /// [`FrameReader::finish`] when they consume the whole payload
    /// themselves, or leave that to the caller when nested.
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, FrameError>;

    /// Encodes into a standalone payload vector.
    fn to_payload(&self) -> Vec<u8> {
        let mut p = FramePayload::new();
        self.encode(&mut p);
        p.into_vec()
    }

    /// Decodes from a standalone payload, rejecting trailing bytes.
    fn from_payload(buf: &[u8]) -> Result<Self, FrameError> {
        let mut r = FrameReader::new(buf);
        let m = Self::decode(&mut r)?;
        r.finish()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 300]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // length prefix + 2 payload bytes
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the length prefix too.
        let mut r = io::Cursor::new(vec![1u8, 0]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &big).is_err());
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 16]);
        assert!(read_frame(&mut io::Cursor::new(bad)).is_err());
    }

    #[test]
    fn payload_scalars_round_trip() {
        let mut p = FramePayload::new();
        p.put_u8(9)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX - 1)
            .put_i64(-42)
            .put_f64(0.125)
            .put_bytes(b"xyz");
        let bytes = p.into_vec();
        let mut r = FrameReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 9);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap(), 0.125);
        assert_eq!(r.take_bytes().unwrap(), b"xyz");
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_reports_truncation_and_trailing() {
        let bytes = [1u8, 2, 3];
        let mut r = FrameReader::new(&bytes);
        assert_eq!(r.take_u32(), Err(FrameError::Truncated));
        let mut r = FrameReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(FrameError::Trailing));
    }

    /// A one-field message, to exercise the provided methods.
    #[derive(Debug, PartialEq)]
    struct Word(u64);

    impl WireMessage for Word {
        fn encode(&self, out: &mut FramePayload) {
            out.put_u64(self.0);
        }

        fn decode(r: &mut FrameReader<'_>) -> Result<Self, FrameError> {
            r.take_u64().map(Word)
        }
    }

    #[test]
    fn wire_message_blanket_helpers() {
        let v = Word(0x0123_4567_89AB_CDEF);
        let p = v.to_payload();
        assert_eq!(Word::from_payload(&p), Ok(v));
        let mut with_junk = p.clone();
        with_junk.push(0);
        assert_eq!(Word::from_payload(&with_junk), Err(FrameError::Trailing));
    }
}
