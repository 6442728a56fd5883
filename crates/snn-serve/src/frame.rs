//! Proto 2 binary framing (`DESIGN.md` §13).
//!
//! A frame is a length-prefixed binary envelope around exactly one
//! protocol line, with the line's bulky `data=<hex>` payload carried as
//! **raw bytes** instead of hex text — halving the wire size of every
//! checkpoint, shadow, and migration blob while reusing the proto 1
//! grammar (and every parser, dispatcher, and relay rule built on it)
//! unchanged for the small textual head.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic[2]="S2"  version=u8(2)  flags=u8  verb=u8  tag=u32
//! head_len=u32   payload_len=u32
//! head[head_len]       UTF-8 line text, data hex elided
//! payload[payload_len] raw bytes of the elided data= field
//! checksum=u32         FNV-1a over everything above
//! ```
//!
//! The `tag` names one in-flight request on a multiplexed connection:
//! responses carry the request's tag, and server-initiated frames (the
//! `subscribe` push stream) carry [`FLAG_PUSH`] plus the subscription's
//! tag. Length caps are enforced **before** any allocation, mirroring
//! the session-spec caps, so a hostile 4 GiB declared length costs
//! nothing.
//!
//! [`line_to_frame`]/[`Frame::to_line`] form a bijection over protocol
//! lines: the head is the original line with the first top-level
//! `data=<hex>` value textually elided (the `data=` marker itself stays
//! in place), so reconstruction re-inserts the re-hexed payload at the
//! exact original position — byte-identical lines, trailing
//! `rid=` field and all (`DESIGN.md` §10's last-token rule keeps
//! working).

use crate::protocol::{hex_decode, hex_encode, MAX_LINE_BYTES};
use std::io::{self, Read, Write};

/// Frame magic: `"S2"`.
pub const MAGIC: [u8; 2] = *b"S2";

/// Frame-format version carried in every frame header.
pub const FRAME_VERSION: u8 = 2;

/// Flag bit: server-initiated frame (subscription push), not a response
/// to a tagged request.
pub const FLAG_PUSH: u8 = 0b0000_0001;

/// Flag bit: the head had a `data=` field whose value rides in the
/// binary payload section. Distinguishes "no data field" from "data
/// field with an empty value".
pub const FLAG_DATA: u8 = 0b0000_0010;

/// Cap on the textual head of a frame. Heads are protocol lines minus
/// their bulk payload, so 1 MiB is already generous.
pub const MAX_FRAME_HEAD: u32 = 1024 * 1024;

/// Cap on the binary payload of a frame: the raw-byte analogue of
/// [`MAX_LINE_BYTES`] (which bounds *hex* payloads, i.e. 2 bytes of
/// line per payload byte).
pub const MAX_FRAME_PAYLOAD: u32 = (MAX_LINE_BYTES / 2) as u32;

/// Fixed header size in bytes (magic through `payload_len`).
pub const HEADER_BYTES: usize = 17;

/// Verb code for lines whose verb has no registered code; the receiver
/// parses the verb from the head text as always.
pub const VERB_RAW: u8 = 0;

/// Registered verb codes, used for dispatch-free observability (per-verb
/// frame accounting without parsing the head). The head text remains
/// authoritative: a frame whose nonzero code disagrees with its head is
/// rejected as `bad-frame`. Codes 20 and 21 are retired (they named the
/// removed `cluster-grow` and `cluster-drain` verbs) and are never reused.
pub const VERB_CODES: &[(u8, &str)] = &[
    (1, "hello"),
    (2, "ping"),
    (3, "stats"),
    (4, "metrics"),
    (5, "journal"),
    (6, "subscribe"),
    (7, "open"),
    (8, "ingest"),
    (9, "report"),
    (10, "energy"),
    (11, "checkpoint"),
    (12, "restore"),
    (13, "swap"),
    (14, "shadow"),
    (15, "evict"),
    (16, "close"),
    (17, "cluster-stats"),
    (18, "cluster-metrics"),
    (19, "cluster-journal"),
    (32, "ok"),
    (33, "err"),
    (34, "push"),
];

/// The registered code for a verb, or [`VERB_RAW`] when it has none.
pub fn verb_code(verb: &str) -> u8 {
    VERB_CODES
        .iter()
        .find(|(_, v)| *v == verb)
        .map_or(VERB_RAW, |(c, _)| *c)
}

/// The verb a registered code names.
pub fn verb_name(code: u8) -> Option<&'static str> {
    VERB_CODES.iter().find(|(c, _)| *c == code).map(|(_, v)| *v)
}

/// Why a frame failed to decode. The variants split along the only
/// operational line that matters: whether the byte stream can still be
/// trusted after the failure (per-frame errors) or not (stream errors —
/// the connection must close).
#[derive(Debug)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`] — the peer is not speaking
    /// proto 2 (or the stream desynced). Fatal for the connection.
    BadMagic([u8; 2]),
    /// Unsupported frame-format version. Fatal for the connection.
    BadVersion(u8),
    /// Declared head length exceeds [`MAX_FRAME_HEAD`]. Rejected before
    /// allocation; fatal (the lengths can't be trusted to skip by).
    HeadTooBig(u32),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`]. Rejected
    /// before allocation; fatal.
    PayloadTooBig(u32),
    /// Checksum mismatch: the frame arrived corrupted. Fatal.
    BadChecksum {
        /// Checksum carried in the frame.
        want: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
    /// The head was not valid UTF-8. Per-frame: framing stayed intact.
    BadUtf8,
    /// [`FLAG_DATA`] is set but the head has no empty top-level `data=`
    /// slot to re-insert the payload into. Per-frame.
    BadData,
    /// The frame's verb code is nonzero but unregistered, or disagrees
    /// with the head's verb. Per-frame: framing stayed intact.
    BadVerb(u8),
    /// The stream ended inside a frame.
    Truncated,
    /// Socket failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::HeadTooBig(n) => {
                write!(f, "declared head of {n} bytes exceeds {MAX_FRAME_HEAD}")
            }
            FrameError::PayloadTooBig(n) => {
                write!(
                    f,
                    "declared payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}"
                )
            }
            FrameError::BadChecksum { want, got } => {
                write!(
                    f,
                    "frame checksum mismatch (want {want:08x}, got {got:08x})"
                )
            }
            FrameError::BadUtf8 => write!(f, "frame head is not valid utf-8"),
            FrameError::BadData => write!(f, "frame head has no data= slot for its payload"),
            FrameError::BadVerb(c) => write!(f, "unknown or mismatched verb code {c}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

impl FrameError {
    /// Whether the byte stream is still frame-aligned after this error
    /// (the connection may answer `err` and keep serving) or must close.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FrameError::BadUtf8 | FrameError::BadVerb(_) | FrameError::BadData
        )
    }
}

/// One decoded proto 2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Flag bits ([`FLAG_PUSH`], [`FLAG_DATA`]).
    pub flags: u8,
    /// Registered verb code, or [`VERB_RAW`].
    pub verb: u8,
    /// Multiplexing tag: names the in-flight request this frame belongs
    /// to. Responses and push frames echo their request's tag.
    pub tag: u32,
    /// The protocol line (no trailing newline) with its first top-level
    /// `data=<hex>` value elided when [`FLAG_DATA`] is set.
    pub head: String,
    /// Raw bytes of the elided `data=` value (empty unless
    /// [`FLAG_DATA`]).
    pub payload: Vec<u8>,
}

/// FNV-1a over a byte slice, the integrity check of every frame: cheap,
/// dependency-free, and plenty for catching desync/truncation (the
/// transport below already guarantees bit integrity).
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Frame {
    /// Encodes the frame into its wire bytes (header, head, payload,
    /// checksum).
    pub fn encode(&self) -> Vec<u8> {
        let head = self.head.as_bytes();
        let mut out = Vec::with_capacity(HEADER_BYTES + head.len() + self.payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.push(FRAME_VERSION);
        out.push(self.flags);
        out.push(self.verb);
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&(head.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(head);
        out.extend_from_slice(&self.payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Reads one frame from a blocking reader. Returns `Ok(None)` on a
    /// clean end of stream (EOF exactly at a frame boundary).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`]; see its variants for which failures leave
    /// the stream usable.
    pub fn read_from(reader: &mut impl Read) -> Result<Option<Frame>, FrameError> {
        let mut header = [0u8; HEADER_BYTES];
        // Distinguish clean EOF (no bytes at all) from truncation.
        let mut got = 0usize;
        while got < header.len() {
            match reader.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if header[0..2] != MAGIC {
            return Err(FrameError::BadMagic([header[0], header[1]]));
        }
        if header[2] != FRAME_VERSION {
            return Err(FrameError::BadVersion(header[2]));
        }
        let flags = header[3];
        let verb = header[4];
        let tag = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
        let head_len = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[13..17].try_into().expect("4 bytes"));
        // The caps gate *before* the allocations below: a hostile header
        // declaring 4 GiB is refused for the price of 17 bytes.
        if head_len > MAX_FRAME_HEAD {
            return Err(FrameError::HeadTooBig(head_len));
        }
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::PayloadTooBig(payload_len));
        }
        let mut head = vec![0u8; head_len as usize];
        reader.read_exact(&mut head)?;
        let mut payload = vec![0u8; payload_len as usize];
        reader.read_exact(&mut payload)?;
        let mut sum_bytes = [0u8; 4];
        reader.read_exact(&mut sum_bytes)?;
        let want = u32::from_le_bytes(sum_bytes);
        let mut h = fnv1a(&header);
        for &b in head.iter().chain(payload.iter()) {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        if h != want {
            return Err(FrameError::BadChecksum { want, got: h });
        }
        let head = String::from_utf8(head).map_err(|_| FrameError::BadUtf8)?;
        Ok(Some(Frame {
            flags,
            verb,
            tag,
            head,
            payload,
        }))
    }

    /// Writes the encoded frame to a blocking writer and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        writer.write_all(&self.encode())?;
        writer.flush()
    }

    /// Reconstructs the exact protocol line this frame carries,
    /// re-hex-encoding the payload into the elided `data=` slot.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadVerb`] when the frame's nonzero verb
    /// code disagrees with the head's verb, and [`FrameError::BadData`]
    /// when [`FLAG_DATA`] is set but the head has no empty top-level
    /// `data=` marker to fill.
    pub fn to_line(&self) -> Result<String, FrameError> {
        if self.verb != VERB_RAW {
            let head_verb = self.head.split(' ').next().unwrap_or("");
            if verb_name(self.verb) != Some(head_verb) {
                return Err(FrameError::BadVerb(self.verb));
            }
        }
        if self.flags & FLAG_DATA == 0 {
            return Ok(self.head.clone());
        }
        let at = match find_data_value(&self.head) {
            // The slot must be empty: a crafted frame carrying both a
            // literal hex value and a binary payload is ambiguous.
            Some((start, end)) if start == end => start,
            _ => return Err(FrameError::BadData),
        };
        let hex = hex_encode(&self.payload);
        let mut line = String::with_capacity(self.head.len() + hex.len());
        line.push_str(&self.head[..at]);
        line.push_str(&hex);
        line.push_str(&self.head[at..]);
        Ok(line)
    }
}

/// Byte range of the first top-level `data=` field's **value** in a
/// line, honouring the tokenizer's quoting rules so a `data=` inside a
/// quoted `msg="…"` never matches. Returns `None` when there is no
/// top-level `data=` field or its value is quoted.
fn find_data_value(line: &str) -> Option<(usize, usize)> {
    let line = line.trim_end_matches(['\r', '\n']);
    let bytes = line.as_bytes();
    // Skip the verb token.
    let mut pos = line.find(' ')?;
    while pos < bytes.len() {
        while pos < bytes.len() && bytes[pos] == b' ' {
            pos += 1;
        }
        if pos >= bytes.len() {
            break;
        }
        let start = pos;
        // One token: key=value, where a value starting with '"' runs to
        // the closing quote (no escapes — the tokenizer has none).
        let eq = match line[pos..].find(['=', ' ']) {
            Some(o) if bytes[pos + o] == b'=' => pos + o,
            _ => {
                // Keyless token (e.g. a malformed field): skip it.
                pos = line[pos..].find(' ').map_or(line.len(), |o| pos + o);
                continue;
            }
        };
        let key = &line[start..eq];
        pos = eq + 1;
        if bytes.get(pos) == Some(&b'"') {
            // Quoted value: never a payload slot.
            let close = line[pos + 1..].find('"')?;
            pos = pos + 1 + close + 1;
            continue;
        }
        let end = line[pos..].find(' ').map_or(line.len(), |o| pos + o);
        if key == "data" {
            return Some((pos, end));
        }
        pos = end;
    }
    None
}

/// Converts one protocol line into a frame, lifting the first top-level
/// `data=<hex>` value (when present and decodable) into the raw binary
/// payload. Lines without a liftable payload travel whole in the head.
/// Total: every protocol line has a frame, and [`Frame::to_line`]
/// inverts this exactly.
pub fn line_to_frame(line: &str, tag: u32, flags: u8) -> Frame {
    let line = line.trim_end_matches(['\r', '\n']);
    let verb = verb_code(line.split(' ').next().unwrap_or(""));
    if let Some((start, end)) = find_data_value(line) {
        let hex = &line[start..end];
        if !hex.is_empty() {
            if let Ok(payload) = hex_decode(hex) {
                let mut head = String::with_capacity(line.len() - hex.len());
                head.push_str(&line[..start]);
                head.push_str(&line[end..]);
                return Frame {
                    flags: flags | FLAG_DATA,
                    verb,
                    tag,
                    head,
                    payload,
                };
            }
        }
    }
    Frame {
        flags,
        verb,
        tag,
        head: line.to_string(),
        payload: Vec::new(),
    }
}

/// Byte length of the first top-level `data=` value **as it appears in
/// the line text** (i.e. hex characters). This is what a proto 1
/// transport moves for the line's payload; a proto 2 frame moves half
/// that (the decoded raw bytes). Relay tiers feed this into their
/// per-protocol `payload_bytes` counters.
pub fn line_payload_len(line: &str) -> u64 {
    find_data_value(line).map_or(0, |(start, end)| (end - start) as u64)
}

/// Re-exported for hardening tests: decodes a full frame from a byte
/// slice (must consume it exactly).
///
/// # Errors
///
/// Fails as [`Frame::read_from`] does, plus [`FrameError::Truncated`]
/// when trailing bytes remain.
pub fn decode_exact(bytes: &[u8]) -> Result<Frame, FrameError> {
    let mut cursor = bytes;
    let frame = Frame::read_from(&mut cursor)?.ok_or(FrameError::Truncated)?;
    if !cursor.is_empty() {
        return Err(FrameError::Truncated);
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_line_halves_on_the_wire() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let line = format!("ok id=sess data={} rid=s0-12", hex_encode(&payload));
        let frame = line_to_frame(&line, 42, 0);
        assert_eq!(frame.flags & FLAG_DATA, FLAG_DATA);
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.head, "ok id=sess data= rid=s0-12");
        assert!(frame.encode().len() < line.len() / 2 + 128);
        assert_eq!(frame.to_line().unwrap(), line);
    }

    #[test]
    fn data_inside_quoted_msg_is_not_lifted() {
        let line = "err code=bad msg=\"rejected data=deadbeef here\" rid=s0-1";
        let frame = line_to_frame(line, 1, 0);
        assert_eq!(frame.flags & FLAG_DATA, 0);
        assert_eq!(frame.to_line().unwrap(), line);
    }

    #[test]
    fn empty_and_non_hex_data_values_travel_in_the_head() {
        for line in ["restore id=x data=", "open id=x data=zz", "ping"] {
            let frame = line_to_frame(line, 9, 0);
            assert_eq!(frame.flags & FLAG_DATA, 0, "{line}");
            assert_eq!(frame.to_line().unwrap(), line, "{line}");
        }
    }

    #[test]
    fn rid_stays_the_final_token_after_reconstruction() {
        let line = format!("restore id=a data={} rid=c0-7", hex_encode(b"snapshot"));
        let rebuilt = line_to_frame(&line, 3, 0).to_line().unwrap();
        assert_eq!(crate::protocol::extract_rid(&rebuilt), Some("c0-7"));
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn encode_decode_is_an_identity() {
        let frame = Frame {
            flags: FLAG_PUSH | FLAG_DATA,
            verb: verb_code("push"),
            tag: 0xDEAD_BEEF,
            head: "push seq=4 data= journal=ab".to_string(),
            payload: vec![0, 1, 2, 255],
        };
        let decoded = decode_exact(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn corrupted_bytes_fail_the_checksum() {
        let mut bytes = line_to_frame("ping", 1, 0).encode();
        // Flip a bit in the head text: the structural fields still parse,
        // so only the trailing checksum can catch it.
        bytes[HEADER_BYTES] ^= 0x40;
        assert!(matches!(
            decode_exact(&bytes),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn oversized_declared_lengths_reject_before_allocation() {
        let mut bytes = line_to_frame("ping", 1, 0).encode();
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_exact(&bytes),
            Err(FrameError::HeadTooBig(_))
        ));
        let mut bytes = line_to_frame("ping", 1, 0).encode();
        bytes[13..17].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_exact(&bytes),
            Err(FrameError::PayloadTooBig(_))
        ));
    }

    #[test]
    fn mismatched_verb_code_is_rejected() {
        let mut frame = line_to_frame("ping", 1, 0);
        frame.verb = verb_code("close");
        let decoded = decode_exact(&frame.encode()).unwrap();
        assert!(matches!(decoded.to_line(), Err(FrameError::BadVerb(_))));
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_is_truncated() {
        let bytes = line_to_frame("ping", 1, 0).encode();
        let mut empty: &[u8] = &[];
        assert!(Frame::read_from(&mut empty).unwrap().is_none());
        let mut cut = &bytes[..bytes.len() - 2];
        assert!(matches!(
            Frame::read_from(&mut cut),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn verb_codes_are_unique_and_invertible() {
        for (code, verb) in VERB_CODES {
            assert_eq!(verb_code(verb), *code);
            assert_eq!(verb_name(*code), Some(*verb));
            assert_ne!(*code, VERB_RAW);
        }
        let mut codes: Vec<u8> = VERB_CODES.iter().map(|(c, _)| *c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), VERB_CODES.len());
        // Retired codes stay unassigned.
        assert_eq!(verb_name(20), None);
        assert_eq!(verb_name(21), None);
    }
}
