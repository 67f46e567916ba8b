//! The length-prefixed binary protocol and per-connection framing.
//!
//! JSON-lines is the readable default; this module adds a binary option
//! carrying the *same* [`Request`]/[`Response`] model with u64-exact
//! integers (values travel as little-endian words, never through decimal
//! text) and cheap, allocation-light parsing.
//!
//! ## Negotiation
//!
//! The protocol is chosen per connection by its very first bytes. A
//! binary client opens with the 4-byte magic `"REB1"`; anything else —
//! in particular `{`, the first byte of every JSON-lines request — keeps
//! the connection on JSON-lines. A prefix of the magic with no newline
//! yet is ambiguous ("RE" could become "REB1"), so negotiation reports
//! [`Negotiation::NeedMore`] until either the magic completes, a byte
//! diverges, or a newline proves the line was meant for the JSON parser.
//!
//! ## Framing
//!
//! After the magic, both directions speak frames: a little-endian `u32`
//! payload length followed by the payload (one encoded request or
//! response). Lengths above [`MAX_FRAME_LEN`] are rejected before any
//! allocation — a corrupt or hostile length prefix cannot balloon
//! memory, and since framing cannot resync after a bad prefix the
//! connection is torn down with a final error frame. JSON-lines framing
//! is held to the same cap: a request line longer than [`MAX_FRAME_LEN`]
//! ends the connection the same way, whether or not its newline ever
//! comes, so a peer cannot make the server buffer without bound.
//!
//! Payload encoding is a `u8` tag plus the fields each message visits
//! (`write` / `read` in `crate::protocol`), positionally: integers
//! little-endian, strings and rows length-prefixed with `u32` counts, an
//! optional integer as a presence byte plus the word. Encode/decode are
//! exact inverses for every variant (see the round-trip tests here, the
//! golden bytes in `tests/wire_golden.rs` and the property fuzz in
//! `tests/transport_equivalence.rs`).

use crate::protocol::{Kinds, Request, Response, Sink, Source};
use re_obs::CounterField;
use re_storage::Tuple;

/// First bytes of a binary-protocol connection.
pub const BINARY_MAGIC: [u8; 4] = *b"REB1";

/// Hard cap on one frame's payload (64 MiB): big enough for any page or
/// metrics body the server produces, small enough that a corrupt length
/// prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The wire protocol one connection speaks, fixed at negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireProtocol {
    /// One JSON object per `\n`-terminated line.
    Json,
    /// Length-prefixed binary frames (after the `"REB1"` magic).
    Binary,
}

/// Outcome of inspecting a connection's first bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Negotiation {
    /// Too few bytes to decide (a strict prefix of the magic).
    NeedMore,
    /// JSON-lines — the bytes are not the binary magic.
    Json,
    /// The binary magic arrived; the caller must consume its 4 bytes.
    Binary,
}

/// Decide the protocol from the first buffered bytes.
pub fn negotiate(pending: &[u8]) -> Negotiation {
    if pending.is_empty() {
        return Negotiation::NeedMore;
    }
    let probe = pending.len().min(BINARY_MAGIC.len());
    if pending[..probe] != BINARY_MAGIC[..probe] {
        return Negotiation::Json;
    }
    if pending.len() >= BINARY_MAGIC.len() {
        return Negotiation::Binary;
    }
    // A strict prefix of the magic. A newline proves it was a (malformed)
    // JSON line after all — don't stall a line-oriented client forever.
    if pending.contains(&b'\n') {
        Negotiation::Json
    } else {
        Negotiation::NeedMore
    }
}

/// Split one complete binary frame's payload off the front of `pending`.
///
/// `Ok(None)` means more bytes are needed; `Err` is unrecoverable (the
/// length prefix exceeded [`MAX_FRAME_LEN`], after which no frame
/// boundary can be trusted).
pub fn split_frame(pending: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    if pending.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ));
    }
    if pending.len() < 4 + len {
        return Ok(None);
    }
    let payload = pending[4..4 + len].to_vec();
    pending.drain(..4 + len);
    Ok(Some(payload))
}

/// Append `payload` to `out` as one length-prefixed frame.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------
// Payload encoding: the binary field visitors.
// ---------------------------------------------------------------------

/// The binary [`Sink`]: a tag byte, then the visited fields positionally.
#[derive(Default)]
struct BinarySink(Vec<u8>);

impl BinarySink {
    fn u32(&mut self, v: usize) {
        self.0.extend_from_slice(&(v as u32).to_le_bytes());
    }

    fn word(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn words(&mut self, values: &[u64]) {
        self.0.reserve(8 * values.len());
        for &v in values {
            self.word(v);
        }
    }
}

impl Sink for BinarySink {
    fn kind(&mut self, kinds: &Kinds, name: &str) {
        // Every variant is in its family's table; a name that were not
        // would go out as tag 0, which every reader rejects as unknown.
        let position = kinds.names.iter().position(|&n| n == name);
        self.0.push(position.map_or(0, |p| p as u8 + 1));
    }

    fn u64(&mut self, _key: &str, value: u64) {
        self.word(value);
    }

    fn bool(&mut self, _key: &str, value: bool) {
        self.0.push(value as u8);
    }

    fn str(&mut self, _key: &str, value: &str) {
        self.u32(value.len());
        self.0.extend_from_slice(value.as_bytes());
    }

    fn opt_str(&mut self, key: &str, value: &str) {
        self.str(key, value);
    }

    fn opt_u64(&mut self, key: &str, value: Option<u64>) {
        self.bool(key, value.is_some());
        self.word(value.unwrap_or(0));
    }

    fn strings(&mut self, key: &str, value: &[String]) {
        self.u32(value.len());
        for s in value {
            self.str(key, s);
        }
    }

    fn rows(&mut self, _key: &str, value: &[Tuple]) {
        self.u32(value.len());
        for row in value {
            self.u32(row.len());
            self.words(row);
        }
    }

    fn counters(&mut self, _fields: &[CounterField], values: &[u64]) {
        self.words(values);
    }

    fn counter_rows<const N: usize>(&mut self, _key: &str, rows: &[[u64; N]]) {
        self.u32(rows.len());
        for row in rows {
            self.words(row);
        }
    }
}

/// The binary [`Source`]: a bounds-checked cursor over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("truncated payload".to_string());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// A `u32` element count, sanity-bounded by the bytes actually
    /// present (each element needs at least `min_elem_bytes`), so a
    /// corrupt count cannot pre-allocate gigabytes.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let b = self.take(4)?;
        let n = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        let available = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > available {
            return Err(format!("element count {n} exceeds the payload"));
        }
        Ok(n)
    }

    /// The next `n` little-endian words, bounds-checked once.
    fn words(
        &mut self,
        n: usize,
    ) -> Result<impl Iterator<Item = Result<u64, String>> + 'a, String> {
        let word = |bytes: &[u8]| match <[u8; 8]>::try_from(bytes) {
            Ok(bytes) => Ok(u64::from_le_bytes(bytes)),
            Err(_) => Err("truncated payload".to_string()),
        };
        Ok(self.take(8 * n)?.chunks_exact(8).map(word))
    }

    fn word_array<const N: usize>(&mut self) -> Result<[u64; N], String> {
        let mut array = [0; N];
        for (slot, word) in array.iter_mut().zip(self.words(N)?) {
            *slot = word?;
        }
        Ok(array)
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

impl Source for Reader<'_> {
    fn kind(&mut self, kinds: &Kinds) -> Result<&'static str, String> {
        let tag = self.take(1)?[0];
        let name = kinds.names.get((tag as usize).wrapping_sub(1));
        name.copied()
            .ok_or_else(|| format!("unknown `{}` tag {tag}", kinds.key))
    }

    fn u64(&mut self, _key: &str) -> Result<u64, String> {
        Ok(self.word_array::<1>()?[0])
    }

    fn bool(&mut self, _key: &str) -> Result<bool, String> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid boolean byte {other}")),
        }
    }

    fn str(&mut self, _key: &str) -> Result<String, String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn opt_str(&mut self, key: &str) -> Result<String, String> {
        self.str(key)
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        let present = self.bool(key)?;
        let value = self.u64(key)?;
        Ok(present.then_some(value))
    }

    fn strings(&mut self, key: &str) -> Result<Vec<String>, String> {
        let n = self.count(4)?;
        (0..n).map(|_| self.str(key)).collect()
    }

    fn rows(&mut self, _key: &str) -> Result<Vec<Tuple>, String> {
        let n = self.count(4)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let width = self.count(8)?;
            // Sized up front: a `Result` collect would not know the length.
            let mut row = Vec::with_capacity(width);
            for word in self.words(width)? {
                row.push(word?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn counters<const N: usize>(
        &mut self,
        _fields: &[CounterField; N],
        _required: bool,
    ) -> Result<[u64; N], String> {
        self.word_array()
    }

    fn counter_rows<const N: usize>(&mut self, _key: &str) -> Result<Vec<[u64; N]>, String> {
        let n = self.count(8 * N)?;
        (0..n).map(|_| self.word_array()).collect()
    }
}

/// Encode one request as a binary payload (no frame prefix).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut sink = BinarySink::default();
    request.write(&mut sink);
    sink.0
}

/// Decode one request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut reader = Reader::new(payload);
    let request = Request::read(&mut reader)?;
    reader.finish()?;
    Ok(request)
}

/// Encode one response as a binary payload (no frame prefix).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut sink = BinarySink::default();
    response.write(&mut sink);
    sink.0
}

/// Decode one response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut reader = Reader::new(payload);
    let response = Response::read(&mut reader)?;
    reader.finish()?;
    Ok(response)
}

/// Append one encoded response to `out` in the connection's protocol:
/// a JSON line (with its `\n`) or a binary frame.
pub fn append_response(protocol: WireProtocol, response: &Response, out: &mut Vec<u8>) {
    match protocol {
        WireProtocol::Json => {
            out.extend_from_slice(response.encode().as_bytes());
            out.push(b'\n');
        }
        WireProtocol::Binary => append_frame(out, &encode_response(response)),
    }
}

/// One parsed inbound item, protocol-independent.
#[derive(Debug, PartialEq)]
pub enum InboundItem {
    /// A well-formed request, ready for dispatch.
    Request(Request),
    /// A malformed request that still left framing intact (bad JSON on a
    /// complete line, a bad payload inside a complete frame): answer with
    /// this error and keep the connection.
    Malformed(String),
}

/// Extract the next complete inbound item from `pending`, or `Ok(None)`
/// when more bytes are needed. `Err` means framing itself is broken (a
/// binary length prefix or a JSON line above [`MAX_FRAME_LEN`]): answer
/// with a final error and close.
pub fn next_inbound(
    protocol: WireProtocol,
    pending: &mut Vec<u8>,
) -> Result<Option<InboundItem>, String> {
    next_inbound_resuming(protocol, pending, &mut 0)
}

/// [`next_inbound`] for a buffer that fills over many calls. `scanned`
/// belongs to `pending` — start it at zero and pass the same one every
/// time: it counts the leading bytes already known to hold no newline, so
/// a JSON line that trickles in is searched once per byte, not once per
/// call. Binary framing reads its length prefix and has nothing to resume.
pub fn next_inbound_resuming(
    protocol: WireProtocol,
    pending: &mut Vec<u8>,
    scanned: &mut usize,
) -> Result<Option<InboundItem>, String> {
    match protocol {
        WireProtocol::Json => loop {
            let newline = pending[*scanned..].iter().position(|&b| b == b'\n');
            let line_len = newline.map_or(pending.len(), |at| *scanned + at);
            if line_len > MAX_FRAME_LEN {
                return Err(format!("request line exceeds the {MAX_FRAME_LEN}-byte cap"));
            }
            if newline.is_none() {
                *scanned = pending.len();
                return Ok(None);
            }
            *scanned = 0;
            let line_bytes: Vec<u8> = pending.drain(..=line_len).collect();
            let Ok(line) = std::str::from_utf8(&line_bytes) else {
                return Ok(Some(InboundItem::Malformed(
                    "request line is not valid UTF-8".to_string(),
                )));
            };
            let line = line.trim();
            if line.is_empty() {
                continue; // blank keep-alive line
            }
            return Ok(Some(match Request::decode(line) {
                Ok(request) => InboundItem::Request(request),
                Err(message) => InboundItem::Malformed(message),
            }));
        },
        WireProtocol::Binary => match split_frame(pending)? {
            None => Ok(None),
            Some(payload) => Ok(Some(match decode_request(&payload) {
                Ok(request) => InboundItem::Request(request),
                Err(message) => InboundItem::Malformed(message),
            })),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::{sample_report, sample_requests, sample_responses};
    use crate::protocol::{StatsReport, TransportCounters, WorkerCounters};
    use rankedenum_core::StatsSnapshot;

    #[test]
    fn requests_roundtrip_binary() {
        for req in sample_requests() {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_binary() {
        for resp in sample_responses() {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn every_declared_counter_is_in_the_stats_frame_at_its_position() {
        let report = sample_report();
        // The frame, written out independently: tag, then the tables'
        // values in declaration order around the one string.
        let mut expected = vec![7u8];
        let word = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        report.values().iter().for_each(|&v| word(&mut expected, v));
        expected.extend_from_slice(&(report.ghd_last_plan.len() as u32).to_le_bytes());
        expected.extend_from_slice(report.ghd_last_plan.as_bytes());
        let (enumeration, transport) = (report.enumeration.values(), report.transport.values());
        (enumeration.iter().chain(&transport)).for_each(|&v| word(&mut expected, v));
        expected.extend_from_slice(&(report.per_worker.len() as u32).to_le_bytes());
        for worker in &report.per_worker {
            worker.values().iter().for_each(|&v| word(&mut expected, v));
        }
        let words = StatsReport::N + StatsSnapshot::N + TransportCounters::N;
        assert_eq!(
            expected.len(),
            1 + 8 * (words + 2 * WorkerCounters::N) + 8 + report.ghd_last_plan.len()
        );
        let response = Response::Stats(Box::new(report));
        assert_eq!(encode_response(&response), expected);
        assert_eq!(decode_response(&expected).unwrap(), response);
    }

    #[test]
    fn negotiation_decides_from_first_bytes() {
        assert_eq!(negotiate(b""), Negotiation::NeedMore);
        assert_eq!(negotiate(b"R"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"RE"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"REB"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"REB1"), Negotiation::Binary);
        assert_eq!(negotiate(b"REB1\x05\x00\x00\x00"), Negotiation::Binary);
        assert_eq!(negotiate(b"{\"cmd\":\"ping\"}"), Negotiation::Json);
        assert_eq!(negotiate(b" "), Negotiation::Json);
        assert_eq!(negotiate(b"REX"), Negotiation::Json, "diverged from magic");
        // A newline resolves a stalled magic prefix to JSON: a line
        // client that sent "RE\n" gets an error line, not a hang.
        assert_eq!(negotiate(b"RE\n"), Negotiation::Json);
    }

    #[test]
    fn frames_split_and_reassemble() {
        let mut wire = Vec::new();
        append_frame(&mut wire, b"abc");
        append_frame(&mut wire, b"");
        append_frame(&mut wire, b"defg");
        let mut pending = Vec::new();
        let mut got = Vec::new();
        // Feed one byte at a time: frames must reassemble across
        // arbitrarily split reads.
        for byte in wire {
            pending.push(byte);
            while let Some(p) = split_frame(&mut pending).unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"".to_vec(), b"defg".to_vec()]);
        assert!(pending.is_empty());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut pending = (u32::MAX).to_le_bytes().to_vec();
        pending.extend_from_slice(b"junk");
        assert!(split_frame(&mut pending).is_err());
        let mut pending = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        assert!(split_frame(&mut pending).is_err());
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        for req in sample_requests() {
            let full = encode_request(&req);
            for cut in 0..full.len() {
                assert!(
                    decode_request(&full[..cut]).is_err(),
                    "truncated {req:?} at {cut} must not decode"
                );
            }
        }
        for resp in sample_responses() {
            let full = encode_response(&resp);
            for cut in 0..full.len() {
                assert!(
                    decode_response(&full[..cut]).is_err(),
                    "truncated response at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Request::Ping);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn corrupt_element_counts_do_not_balloon() {
        // A "columns" count of ~4 billion with a 10-byte payload must be
        // rejected by the count bound, not attempted.
        let mut payload = vec![1]; // `opened`
        payload.extend_from_slice(&1u64.to_le_bytes()); // session
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // columns count
        assert!(decode_response(&payload).is_err());
        // Same for a per-worker row count in a `stats` frame.
        let mut stats = encode_response(&Response::Stats(Box::default()));
        let count_at = stats.len() - 4;
        stats[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&stats).is_err());
    }

    #[test]
    fn json_inbound_skips_blanks_and_flags_bad_lines() {
        let mut pending = b"\n  \n{\"cmd\":\"ping\"}\nnot json\n".to_vec();
        assert_eq!(
            next_inbound(WireProtocol::Json, &mut pending).unwrap(),
            Some(InboundItem::Request(Request::Ping))
        );
        match next_inbound(WireProtocol::Json, &mut pending).unwrap() {
            Some(InboundItem::Malformed(_)) => {}
            other => panic!("expected a malformed item, got {other:?}"),
        }
        assert_eq!(
            next_inbound(WireProtocol::Json, &mut pending).unwrap(),
            None
        );
    }

    #[test]
    fn json_lines_are_capped_like_frames() {
        // One byte past the cap with no newline in sight: framing is
        // broken, as for an oversized length prefix.
        let mut pending = vec![b' '; MAX_FRAME_LEN + 1];
        assert!(next_inbound(WireProtocol::Json, &mut pending).is_err());
        // The newline arriving with the excess does not redeem the line.
        pending.push(b'\n');
        assert!(next_inbound(WireProtocol::Json, &mut pending).is_err());
        // A line of exactly the cap is a request like any other.
        let ping = b"{\"cmd\":\"ping\"}";
        let mut pending = vec![b' '; MAX_FRAME_LEN - ping.len()];
        pending.extend_from_slice(ping);
        assert_eq!(
            next_inbound(WireProtocol::Json, &mut pending).unwrap(),
            None
        );
        pending.extend_from_slice(b"\n{\"cmd\":\"ping\"}\n");
        for _ in 0..2 {
            assert_eq!(
                next_inbound(WireProtocol::Json, &mut pending).unwrap(),
                Some(InboundItem::Request(Request::Ping))
            );
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn a_dripped_json_line_is_scanned_once() {
        let wire = b"{\"cmd\":\"ping\"}\n{\"cmd\":\"ping\"}\n";
        let (mut pending, mut scanned) = (Vec::new(), 0);
        let mut decoded = 0;
        for &byte in wire {
            pending.push(byte);
            let before = scanned;
            match next_inbound_resuming(WireProtocol::Json, &mut pending, &mut scanned).unwrap() {
                // Nothing behind `scanned` is looked at again: each call
                // advances it by the one byte that arrived.
                None => assert_eq!((before + 1, scanned), (pending.len(), pending.len())),
                Some(item) => {
                    assert_eq!(item, InboundItem::Request(Request::Ping));
                    assert_eq!(byte, b'\n');
                    assert!(pending.is_empty() && scanned == 0);
                    decoded += 1;
                }
            }
        }
        assert_eq!(decoded, 2);
    }

    #[test]
    fn binary_inbound_flags_bad_payloads_but_keeps_framing() {
        let mut pending = Vec::new();
        append_frame(&mut pending, &[200]); // unknown tag
        append_frame(&mut pending, &encode_request(&Request::Ping));
        match next_inbound(WireProtocol::Binary, &mut pending).unwrap() {
            Some(InboundItem::Malformed(_)) => {}
            other => panic!("expected a malformed item, got {other:?}"),
        }
        assert_eq!(
            next_inbound(WireProtocol::Binary, &mut pending).unwrap(),
            Some(InboundItem::Request(Request::Ping))
        );
    }
}
