//! Newline-delimited JSON framing, shared by every socket protocol in the
//! workspace.
//!
//! The sweep service (`numadag-serve`) proved this framing: every message is
//! one compact JSON value on one line (compact serialization never emits raw
//! newlines — string contents are escaped), so reading frames is reading
//! lines. This module hoists that layer out of the service so the
//! multi-process executor (`numadag-proc`) speaks the same wire format, and
//! hardens it against hostile or truncated input:
//!
//! * lines longer than an explicit limit are rejected as
//!   [`FrameError::Oversized`] instead of buffering without bound,
//! * EOF in the middle of a line is [`FrameError::Truncated`], distinct from
//!   the clean EOF between frames (`Ok(None)`),
//! * invalid UTF-8 is [`FrameError::InvalidUtf8`] instead of a panic or a
//!   lossy re-decode.
//!
//! Messages themselves are `#[derive(Serialize, Deserialize)]` enums in
//! serde's externally-tagged encoding (`"Stats"`, `{"Status": {"job": 1}}`);
//! integers, including u64 fingerprints and u128 counters, travel as exact
//! JSON integers. [`untag`] splits an envelope for callers that inspect the
//! tag before decoding the payload.

use std::io::{BufRead, Read, Write};

use serde::{Serialize, Value};

/// Default per-frame size limit: generous enough for a full-scale report or
/// trace payload embedded in one line, small enough to bound a hostile
/// connection's memory.
pub const DEFAULT_FRAME_LIMIT: usize = 64 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` io errors).
    Io(std::io::Error),
    /// The line exceeded the frame limit. The rest of the line is still in
    /// the stream, so the connection is unrecoverable — callers must close
    /// it after replying.
    Oversized {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The stream ended in the middle of a line (no terminating newline):
    /// the peer died mid-message.
    Truncated {
        /// Bytes of the incomplete line that were received.
        bytes: usize,
    },
    /// The line is not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Truncated { bytes } => {
                write!(f, "stream ended mid-frame after {bytes} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error means the peer's connection is gone or poisoned
    /// (as opposed to a single malformed-but-framed message).
    pub fn is_fatal(&self) -> bool {
        // Every frame error poisons the stream: Io and Truncated mean the
        // connection died, Oversized leaves unread line bytes in the stream,
        // and InvalidUtf8 means the peer does not speak the protocol.
        true
    }
}

/// Serializes a message to its one-line wire form (no trailing newline).
pub fn to_line(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("message values are always encodable")
}

/// Writes one frame: the compact one-line serialization plus the newline.
pub fn write_frame(writer: &mut impl Write, value: &impl Serialize) -> std::io::Result<()> {
    let mut line = to_line(value);
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Reads one frame with the [`DEFAULT_FRAME_LIMIT`]. `Ok(None)` is clean
/// EOF between frames; the returned line has its terminating newline (and
/// any `\r` before it) stripped.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<String>, FrameError> {
    read_frame_with_limit(reader, DEFAULT_FRAME_LIMIT)
}

/// [`read_frame`] with an explicit per-line byte limit (newline excluded).
pub fn read_frame_with_limit(
    reader: &mut impl BufRead,
    limit: usize,
) -> Result<Option<String>, FrameError> {
    let mut buf = Vec::new();
    // Read at most limit+1 bytes: a line of exactly `limit` content bytes
    // plus its newline fits; anything longer trips the limit before the
    // buffer can grow unboundedly.
    let take_limit = (limit as u64).saturating_add(1);
    let n = reader
        .by_ref()
        .take(take_limit)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > limit {
        return Err(FrameError::Oversized { limit });
    } else {
        return Err(FrameError::Truncated { bytes: buf.len() });
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| FrameError::InvalidUtf8)
}

/// Splits an externally-tagged envelope into `(variant, payload)`. Unit
/// variants arrive as bare strings and yield `Value::Null` payloads.
pub fn untag(value: &Value) -> Result<(String, &Value), String> {
    serde::variant(value).map(|(tag, payload)| (tag.to_string(), payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], limit: usize) -> Vec<Result<Option<String>, FrameError>> {
        let mut reader = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let result = read_frame_with_limit(&mut reader, limit);
            let stop = !matches!(result, Ok(Some(_)));
            out.push(result);
            if stop {
                break;
            }
        }
        out
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &"Stats".to_string()).unwrap();
        write_frame(&mut wire, &42u64).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Some("\"Stats\"".to_string())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Some("42".to_string()));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn crlf_line_endings_are_stripped() {
        let mut reader = BufReader::new(&b"\"ok\"\r\n"[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), Some("\"ok\"".to_string()));
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered() {
        let line = vec![b'x'; 100];
        let mut wire = line.clone();
        wire.push(b'\n');
        // Limit below the line length: rejected.
        let results = read_all(&wire, 10);
        assert!(
            matches!(results[0], Err(FrameError::Oversized { limit: 10 })),
            "{results:?}"
        );
        // Limit exactly the line length: accepted.
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame_with_limit(&mut reader, 100)
                .unwrap()
                .unwrap()
                .len(),
            100
        );
    }

    #[test]
    fn eof_mid_message_is_truncated_not_a_frame() {
        let results = read_all(b"{\"half\":", 1024);
        assert!(
            matches!(results[0], Err(FrameError::Truncated { bytes: 8 })),
            "{results:?}"
        );
        // Clean EOF after a complete frame is Ok(None), not an error.
        let results = read_all(b"\"done\"\n", 1024);
        assert!(matches!(results[0], Ok(Some(_))));
        assert!(matches!(results[1], Ok(None)));
    }

    #[test]
    fn invalid_utf8_is_a_structured_error() {
        let results = read_all(b"\xff\xfe\xfd\n", 1024);
        assert!(
            matches!(results[0], Err(FrameError::InvalidUtf8)),
            "{results:?}"
        );
    }

    #[test]
    fn every_frame_error_is_fatal_and_displays() {
        for err in [
            FrameError::Io(std::io::Error::other("boom")),
            FrameError::Oversized { limit: 7 },
            FrameError::Truncated { bytes: 3 },
            FrameError::InvalidUtf8,
        ] {
            assert!(err.is_fatal());
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn untag_handles_unit_and_data_envelopes() {
        let unit: Value = serde_json::from_str("\"Stats\"").unwrap();
        assert_eq!(untag(&unit).unwrap().0, "Stats");
        let data: Value = serde_json::from_str(r#"{"Status": {"job": 1}}"#).unwrap();
        let (tag, payload) = untag(&data).unwrap();
        assert_eq!(tag, "Status");
        assert_eq!(payload.get("job").and_then(Value::as_u64), Some(1));
        // Unknown envelope shapes are structured errors, never panics.
        let multi: Value = serde_json::from_str(r#"{"a": 1, "b": 2}"#).unwrap();
        assert!(untag(&multi).is_err());
        let number: Value = serde_json::from_str("17").unwrap();
        assert!(untag(&number).is_err());
    }
}
