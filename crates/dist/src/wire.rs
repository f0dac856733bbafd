//! Frame codec: length-prefixed, CRC-checked messages over a byte stream.
//!
//! Every message on a [`LocalProcs`](crate::LocalProcs) connection is one
//! *frame*:
//!
//! ```text
//! offset  size  field
//! 0       8     frame length `L` (little-endian, bytes that follow)
//! 8       L     an `ls3df-ckpt` snapshot container with two sections:
//!               `COMMHDR`  — src rank, dst rank, kind, tag (u64,u64,u32,u32)
//!               `COMMBODY` — the opaque payload bytes
//! ```
//!
//! Reusing the [`Snapshot`] container means the wire format inherits the
//! checkpoint layer's versioning (magic + format version) and per-section
//! CRC32 — a flipped bit in a density block is caught at the receiving
//! rank and reported as a typed protocol error, never patched into
//! physics. The `kind` field separates point-to-point data from the
//! broadcast and handshake messages, so a broadcast can never consume a
//! density message with the same tag.

use crate::CommError;
use ls3df_ckpt::{ByteReader, ByteWriter, SectionId, Snapshot};
use ls3df_obs::{counter_add, Counter};
use std::io::{Error, ErrorKind, Read, Write};

/// Point-to-point user data (`Communicator::send`/`recv`).
pub(crate) const KIND_DATA: u32 = 0;
/// Broadcast messages (rank 0 → every worker).
pub(crate) const KIND_BCAST: u32 = 1;
/// Connection handshake (worker announces its rank to the hub).
pub(crate) const KIND_HELLO: u32 = 2;

const SEC_HDR: SectionId = SectionId::new("COMMHDR");
const SEC_BODY: SectionId = SectionId::new("COMMBODY");

/// Hard cap on one frame (1 GiB) — guards the reader against allocating
/// off a corrupt length prefix.
const MAX_FRAME_LEN: u64 = 1 << 30;

/// One decoded message.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Originating rank.
    pub(crate) src: usize,
    /// Destination rank.
    pub(crate) dst: usize,
    /// One of the `KIND_*` constants.
    pub(crate) kind: u32,
    /// Caller-chosen matching tag (broadcasts use a sequence number).
    pub(crate) tag: u32,
    /// Opaque payload.
    pub(crate) payload: Vec<u8>,
}

/// Serializes a frame body (everything after the length prefix).
pub(crate) fn encode_frame(
    src: usize,
    dst: usize,
    kind: u32,
    tag: u32,
    payload: &[u8],
) -> Result<Vec<u8>, CommError> {
    let mut hdr = ByteWriter::with_capacity(24);
    hdr.put_u64(src as u64)
        .put_u64(dst as u64)
        .put_u32(kind)
        .put_u32(tag);
    let mut snap = Snapshot::new();
    snap.push(SEC_HDR, hdr.into_bytes());
    snap.push(SEC_BODY, payload.to_vec());
    snap.encode().map_err(|e| CommError::Protocol {
        detail: format!("frame encode: {e}"),
    })
}

/// Parses and CRC-verifies a frame body.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<Frame, CommError> {
    let snap = Snapshot::decode(bytes).map_err(|e| CommError::Protocol {
        detail: format!("frame decode: {e}"),
    })?;
    let hdr = snap.require(SEC_HDR).map_err(|e| CommError::Protocol {
        detail: e.to_string(),
    })?;
    let mut r = ByteReader::new(hdr);
    let read_err = |e: ls3df_ckpt::CkptError| CommError::Protocol {
        detail: e.to_string(),
    };
    let src = r.get_u64("frame src rank").map_err(read_err)? as usize;
    let dst = r.get_u64("frame dst rank").map_err(read_err)? as usize;
    let kind = r.get_u32("frame kind").map_err(read_err)?;
    let tag = r.get_u32("frame tag").map_err(read_err)?;
    let payload = snap
        .require(SEC_BODY)
        .map_err(|e| CommError::Protocol {
            detail: e.to_string(),
        })?
        .to_vec();
    Ok(Frame {
        src,
        dst,
        kind,
        tag,
        payload,
    })
}

/// Writes one length-prefixed frame and flushes the stream.
pub(crate) fn write_frame(stream: &mut dyn Write, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(bytes.len() as u64).to_le_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()?;
    counter_add(Counter::CommBytesSent, 8 + bytes.len() as u64);
    Ok(())
}

/// Reads one length-prefixed frame body.
pub(crate) fn read_frame(stream: &mut dyn Read) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 8];
    stream.read_exact(&mut len_buf)?;
    let len = u64::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    counter_add(Counter::CommBytesReceived, 8 + len);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_preserves_every_field() {
        let bytes = encode_frame(3, 0, KIND_DATA, 42, b"density block").unwrap();
        let f = decode_frame(&bytes).unwrap();
        assert_eq!((f.src, f.dst, f.kind, f.tag), (3, 0, KIND_DATA, 42));
        assert_eq!(f.payload, b"density block");
    }

    #[test]
    fn corrupt_frame_is_a_typed_protocol_error() {
        let mut bytes = encode_frame(1, 0, KIND_DATA, 7, &[0xAA; 64]).unwrap();
        // Flip a payload bit: the section CRC must catch it.
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        match decode_frame(&bytes) {
            Err(CommError::Protocol { detail }) => {
                assert!(
                    detail.contains("CRC") || detail.contains("checksum"),
                    "{detail}"
                );
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn stream_roundtrip_through_a_buffer() {
        let body = encode_frame(2, 1, KIND_BCAST, 9, &[1, 2, 3]).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = wire.as_slice();
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(back, body);
        assert!(cursor.is_empty());
    }

    /// Arbitrary and damaged frames, as a peer rank might send them: a
    /// typed protocol error or a frame that fits in the bytes it came
    /// from — never a panic.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// Container header, two section headers and the 24-byte frame
        /// header: the least a frame can carry besides its payload.
        const FRAME_OVERHEAD: usize = 16 + 2 * 20 + 24;

        fn decode(bytes: &[u8]) -> Result<(), TestCaseError> {
            if let Ok(frame) = decode_frame(bytes) {
                prop_assert!(FRAME_OVERHEAD + frame.payload.len() <= bytes.len());
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in prop::collection::vec(0u32..256, 0..400),
            ) {
                let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode(&payload)?;
            }

            #[test]
            fn damaged_genuine_frames_never_panic(
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a rank, a kind, a length, a
                // checksum or payload) with anything, then maybe truncate.
                let mut bytes = encode_frame(3, 0, KIND_DATA, 9, &[0x3f; 16]).unwrap();
                let at = at % bytes.len().saturating_sub(7).max(1);
                let end = (at + 8).min(bytes.len());
                bytes[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode(&bytes)?;
                bytes.truncate(cut % (bytes.len() + 1));
                decode(&bytes)?;
            }
        }
    }
}
