//! Wire format for the real runtime.
//!
//! A frame is a 4-byte little-endian length prefix followed by that many
//! bytes of JSON encoding the `(from, msg)` pair. JSON over the vendored
//! `serde_json` keeps the format dependency-free and debuggable with `nc`;
//! the length prefix makes frame boundaries explicit so a reader never has
//! to scan for delimiters inside message bodies.
//!
//! The real runtime encodes with [`encode_frame_into`] and decodes with
//! [`read_frame_into`], each through one buffer it keeps per replica or per
//! connection: a warm frame costs no block of its own size, only the
//! `serde` value tree in between. [`encode_frame`] and [`read_frame`] are
//! the same codec with a fresh buffer per call.
//!
//! [`WireMsg`] is the bound the real runtime places on a node's message
//! type. It is deliberately *not* part of the [`crate::Node`] trait:
//! simulation-only message types (e.g. test nodes exchanging closures or
//! counters) stay unconstrained, and a substrate opts into real deployment
//! simply by deriving `Serialize`/`Deserialize` on its message enum.

use crate::node::NodeId;
use std::io::{self, Read};

/// Marker bound for messages that can cross a real socket. Blanket-implemented
/// for every serializable, sendable type — never implement it by hand.
pub trait WireMsg: serde::Serialize + serde::de::DeserializeOwned + Send + 'static {}

impl<T: serde::Serialize + serde::de::DeserializeOwned + Send + 'static> WireMsg for T {}

/// Upper bound on a single frame body. A corrupt or malicious length prefix
/// must not make the reader allocate unbounded memory.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Most body bytes reserved before any arrive. A length prefix is only the
/// peer's word: a larger body grows the buffer as its bytes come in, so a
/// sender that claims 64 MiB and stops costs this much, not the claim.
const BODY_RESERVE_BYTES: u32 = 64 * 1024;

/// Serialize one `(from, msg)` frame into a byte vector (length prefix included).
pub fn encode_frame<M: WireMsg>(from: NodeId, msg: &M) -> io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, from, msg)?;
    Ok(frame)
}

/// Serialize one `(from, msg)` frame (length prefix included) into `frame`,
/// replacing what it held and keeping its capacity. After an error its
/// contents are not a frame and must not be sent.
pub fn encode_frame_into<M: WireMsg>(frame: &mut Vec<u8>, from: NodeId, msg: &M) -> io::Result<()> {
    frame.clear();
    // A placeholder prefix, patched once the body's length is known.
    frame.extend_from_slice(&[0; 4]);
    serde_json::to_writer(&mut *frame, &(from, msg))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
    let body = frame.len() - 4;
    if body as u64 > MAX_FRAME_BYTES as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body} bytes exceeds MAX_FRAME_BYTES"),
        ));
    }
    frame[..4].copy_from_slice(&(body as u32).to_le_bytes());
    Ok(())
}

/// Read one `(from, msg)` frame. An EOF *between* frames surfaces as
/// `ErrorKind::UnexpectedEof` with an empty prefix read — the normal
/// peer-disconnected signal; EOF inside a frame is a protocol error either way.
pub fn read_frame<M: WireMsg, R: Read>(r: &mut R) -> io::Result<(NodeId, M)> {
    read_frame_into(r, &mut Vec::new())
}

/// [`read_frame`] through a caller-kept body buffer: `body` is overwritten
/// with the frame's body bytes, and once its capacity covers the frames a
/// connection carries, reading one allocates nothing for them.
pub fn read_frame_into<M: WireMsg, R: Read>(
    r: &mut R,
    body: &mut Vec<u8>,
) -> io::Result<(NodeId, M)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    body.clear();
    body.reserve(len.min(BODY_RESERVE_BYTES) as usize);
    r.by_ref().take(u64::from(len)).read_to_end(body)?;
    if body.len() < len as usize {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    serde_json::from_slice(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum TestMsg {
        Ping { round: u64 },
        Blob(Vec<u8>),
    }

    #[test]
    fn frame_round_trips_through_a_byte_stream() {
        let mut buf = encode_frame(3, &TestMsg::Ping { round: 17 }).unwrap();
        buf.extend(encode_frame(1, &TestMsg::Blob(vec![0, 255, 128])).unwrap());
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame::<TestMsg, _>(&mut r).unwrap(),
            (3, TestMsg::Ping { round: 17 })
        );
        assert_eq!(
            read_frame::<TestMsg, _>(&mut r).unwrap(),
            (1, TestMsg::Blob(vec![0, 255, 128]))
        );
        let eof = read_frame::<TestMsg, _>(&mut r).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn length_prefix_matches_body() {
        let frame = encode_frame(0, &TestMsg::Ping { round: 1 }).unwrap();
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
    }

    #[test]
    fn encoding_into_a_dirty_buffer_gives_encode_frames_bytes() {
        let mut frame = vec![0xAB; 1000];
        for msg in [TestMsg::Blob(vec![9; 300]), TestMsg::Ping { round: 5 }] {
            encode_frame_into(&mut frame, 4, &msg).unwrap();
            assert_eq!(frame, encode_frame(4, &msg).unwrap());
        }
    }

    #[test]
    fn one_body_buffer_reads_a_large_frame_then_a_small_one() {
        let (large, small) = (TestMsg::Blob(vec![7; 100_000]), TestMsg::Ping { round: 9 });
        let mut stream = encode_frame(1, &large).unwrap();
        stream.extend(encode_frame(2, &small).unwrap());
        let (mut r, mut body) = (io::Cursor::new(stream), Vec::new());
        assert_eq!(read_frame_into(&mut r, &mut body).unwrap(), (1, large));
        assert_eq!(read_frame_into(&mut r, &mut body).unwrap(), (2, small));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame::<TestMsg, _>(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn body_cut_short_is_unexpected_eof() {
        let frame = encode_frame(2, &TestMsg::Blob(vec![7; 100_000])).unwrap();
        for cut in [5, 1000, frame.len() - 1] {
            let err = read_frame::<TestMsg, _>(&mut io::Cursor::new(&frame[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // The same frame whole, larger than the up-front reservation.
        assert_eq!(
            read_frame::<TestMsg, _>(&mut io::Cursor::new(&frame)).unwrap(),
            (2, TestMsg::Blob(vec![7; 100_000]))
        );
    }

    #[test]
    fn corrupt_body_is_invalid_data() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(b"{{{");
        let err = read_frame::<TestMsg, _>(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
