//! One connection's reactor side as a machine that does no I/O.
//!
//! [`Conn`] holds what only the reactor thread knows about a connection:
//! the negotiated protocol, the bytes read but not yet parsed, the parsed
//! items not yet dispatched, the FETCH sessions of the batch in flight,
//! whether framing broke and whether WRITE interest is registered. The
//! driver (the parent module) feeds it what its syscalls returned — the
//! bytes one `read` returned, a flush outcome, whether the connection is
//! idle — and performs what it answers: dispatch this batch, re-arm the
//! poller, close.
//!
//! ## Ordering and sessions
//!
//! Each connection has at most one batch *in flight* at a time: the
//! machine drains the complete requests a read brought into a queue,
//! hands the queue over as one batch, and hands over the next only once
//! the driver reports the connection idle again. "Idle" is shared state
//! (`ConnShared::inflight`), not a message. The worker publishes it
//! after appending its buffer but *before* the flush syscall: the
//! client's next request can arrive the instant the bytes land, and the
//! reactor must find the connection idle then (published after the write,
//! every request-response exchange would lose that race and take the
//! poke detour). Responses still come back in request order — the
//! pipelining contract — because a later batch's worker has to take the
//! same output lock, behind bytes already queued. Two pipelined FETCHes
//! on the same session can never race each other's cursor checkout, and
//! different connections' batches run truly in parallel across the pool.
//!
//! ## The pipeline cap
//!
//! The per-connection cap is applied per read drain: requests beyond
//! `max_pipeline` in one drain are answered — in order — with typed
//! `overloaded` errors without ever being dispatched.
//!
//! ## Broken framing
//!
//! An oversized length prefix or request line is unrecoverable: the
//! machine queues one final error behind what is already queued, drops
//! its read buffer and every byte that arrives later, and marks the batch
//! that carries the error as the connection's last. Once that batch is
//! done the machine asks to close, which the driver does as soon as the
//! outbound queue is drained.

use super::Flush;
use crate::protocol::Request;
use crate::wire::{self, InboundItem, Negotiation, WireProtocol};
use re_net::Interest;

/// One parsed inbound item, queued on its connection until dispatch.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(super) enum WorkItem {
    /// A well-formed request.
    Request(Request),
    /// A malformed request on intact framing: answered with this error.
    Malformed(String),
    /// Shed by the per-drain pipeline cap: answered with `overloaded`.
    Shed,
}

/// The queued items, handed to the pool as one job.
pub(super) struct Batch {
    pub(super) protocol: WireProtocol,
    pub(super) items: Vec<WorkItem>,
    /// It answers a framing error: the connection's last batch.
    pub(super) last: bool,
}

/// The connection's next step, once the driver has said whether it is idle.
pub(super) enum Next {
    /// Nothing to do until more bytes, a poke or a writable socket.
    Wait,
    /// Hand this batch to the pool.
    Dispatch(Batch),
    /// The last batch is done: close once the outbound queue is drained.
    CloseWhenDrained,
}

/// What a flush outcome asks of the poller.
pub(super) enum Rearm {
    /// The registered interest is the one wanted.
    Keep,
    /// Register this interest instead.
    To(Interest),
    /// The socket is dead: close.
    Close,
}

/// One connection's reactor-side state.
#[derive(Default)]
pub(super) struct Conn {
    /// Negotiated from the first bytes; `None` until decided.
    protocol: Option<WireProtocol>,
    /// Raw bytes read but not yet parsed into complete requests.
    inbuf: Vec<u8>,
    /// Leading bytes of `inbuf` already searched for a line end
    /// ([`wire::next_inbound_resuming`]).
    inbuf_scanned: usize,
    /// Parsed items not yet dispatched.
    queued: Vec<WorkItem>,
    /// Session ids of the last dispatched batch's FETCHes — the sessions
    /// to cancel if the connection closes before that batch ends.
    inflight_fetches: Vec<u64>,
    /// Framing broke: the last batch answers it, then the connection
    /// closes; bytes still arriving are dropped.
    framing_broken: bool,
    /// WRITE interest is registered: the last flush left bytes behind.
    write_wanted: bool,
}

impl Conn {
    /// Take the bytes one `read` returned (dropped once framing broke).
    pub(super) fn received(&mut self, bytes: &[u8]) {
        if !self.framing_broken {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    /// End of a read drain: negotiate the protocol if still undecided and
    /// parse every complete item into the queue, shedding those past
    /// `max_pipeline`.
    pub(super) fn parse(&mut self, max_pipeline: usize) {
        let protocol = match self.protocol {
            Some(protocol) => protocol,
            None => match wire::negotiate(&self.inbuf) {
                Negotiation::NeedMore => return,
                Negotiation::Json => WireProtocol::Json,
                Negotiation::Binary => {
                    self.inbuf.drain(..wire::BINARY_MAGIC.len());
                    WireProtocol::Binary
                }
            },
        };
        self.protocol = Some(protocol);
        let mut drained = 0usize;
        while !self.framing_broken {
            match wire::next_inbound_resuming(protocol, &mut self.inbuf, &mut self.inbuf_scanned) {
                Ok(None) => break,
                Ok(Some(item)) => {
                    self.queued.push(match item {
                        _ if drained >= max_pipeline => WorkItem::Shed,
                        InboundItem::Request(request) => WorkItem::Request(request),
                        InboundItem::Malformed(message) => WorkItem::Malformed(message),
                    });
                    drained += 1;
                }
                Err(message) => {
                    self.queued.push(WorkItem::Malformed(message));
                    self.framing_broken = true;
                    // Nothing parses this connection again: give the
                    // buffer (up to the frame cap) back now.
                    self.inbuf = Vec::new();
                }
            }
        }
    }

    /// Whether the next step depends on the connection being idle: items
    /// are queued, or the connection waits to close.
    pub(super) fn awaits_idle(&self) -> bool {
        self.framing_broken || !self.queued.is_empty()
    }

    /// The next step: the queue as a batch if the connection is `idle`,
    /// or the close of a broken connection whose last batch is done.
    pub(super) fn next(&mut self, idle: bool) -> Next {
        match self.protocol {
            _ if !idle => Next::Wait,
            // Only a negotiated connection parses, so only it has a queue.
            Some(protocol) if !self.queued.is_empty() => {
                let items = std::mem::take(&mut self.queued);
                self.inflight_fetches.clear();
                self.inflight_fetches
                    .extend(items.iter().filter_map(|item| match item {
                        WorkItem::Request(Request::Fetch { session, .. }) => Some(*session),
                        _ => None,
                    }));
                Next::Dispatch(Batch {
                    protocol,
                    items,
                    last: self.framing_broken,
                })
            }
            _ if self.framing_broken => Next::CloseWhenDrained,
            _ => Next::Wait,
        }
    }

    /// A flush outcome: hold WRITE interest exactly while bytes remain.
    pub(super) fn flushed(&mut self, outcome: Flush) -> Rearm {
        let wanted = match outcome {
            Flush::Drained => Interest::READ,
            Flush::Blocked => Interest::READ_WRITE,
            Flush::Dead => return Rearm::Close,
        };
        if wanted.writable == self.write_wanted {
            return Rearm::Keep;
        }
        self.write_wanted = wanted.writable;
        Rearm::To(wanted)
    }

    /// The FETCH sessions a close must cancel: the batch in flight's, if
    /// the connection is not `idle`.
    pub(super) fn cancels(&self, idle: bool) -> &[u64] {
        let in_flight = if idle { 0 } else { self.inflight_fetches.len() };
        &self.inflight_fetches[..in_flight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{append_frame, encode_request, next_inbound, BINARY_MAGIC, MAX_FRAME_LEN};
    use WireProtocol::{Binary, Json};

    /// SplitMix64: a seeded stream of `0..n` draws.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    fn fetch(session: u64, k: u64) -> Request {
        Request::Fetch { session, k }
    }

    /// Append `request` as a client writes it on `protocol`.
    fn put(protocol: WireProtocol, request: &Request, bytes: &mut Vec<u8>) {
        match protocol {
            Json => bytes.extend_from_slice(format!("{}\n", request.encode()).as_bytes()),
            Binary => append_frame(bytes, &encode_request(request)),
        }
    }

    /// The connection's first bytes: the binary magic, or nothing.
    fn opening(protocol: WireProtocol) -> Vec<u8> {
        match protocol {
            Json => Vec::new(),
            Binary => BINARY_MAGIC.to_vec(),
        }
    }

    /// A seeded request script: FETCHes, PINGs, malformed lines or
    /// payloads and blank keep-alives, sometimes followed by an over-cap
    /// length prefix and a PING that must never be answered. (An over-cap
    /// JSON line takes the same path through the machine, but 64 MiB of
    /// it costs a debug build a quarter second per scan.)
    fn script(rng: &mut Rng, protocol: WireProtocol) -> Vec<u8> {
        let mut bytes = opening(protocol);
        for _ in 0..1 + rng.below(8) {
            let junk: &[u8] =
                [&b"  \r\n"[..], b"{not json}\n", b"RE\n", b"\xff\xfe\n"][rng.below(4) as usize];
            match (protocol, rng.below(3)) {
                (Json, 0) => bytes.extend_from_slice(junk),
                (Binary, 0) => append_frame(&mut bytes, &junk[..rng.below(4) as usize]),
                (_, 1) => put(protocol, &Request::Ping, &mut bytes),
                (_, _) => put(
                    protocol,
                    &fetch(1 + rng.below(4), 1 + rng.below(9)),
                    &mut bytes,
                ),
            }
        }
        if protocol == Json || rng.below(3) > 0 {
            return bytes;
        }
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        put(protocol, &Request::Ping, &mut bytes);
        bytes
    }

    /// The FETCH sessions among `items`.
    fn fetches(items: &[WorkItem]) -> Vec<u64> {
        let sessions = items.iter().filter_map(|item| match item {
            WorkItem::Request(Request::Fetch { session, .. }) => Some(*session),
            _ => None,
        });
        sessions.collect()
    }

    /// The reference model of one connection, fed the same events as the
    /// machine. Its parse is [`wire::next_inbound`] over every byte the
    /// connection has read, shedding per chunk; its driver half is what
    /// the reactor and the pool do around the machine, reduced to the
    /// values the machine reads.
    struct Model {
        conn: Conn,
        cap: usize,
        /// Bytes read and not yet parsed by the reference.
        pending: Vec<u8>,
        protocol: Option<WireProtocol>,
        /// Every item the reference parsed, in order.
        expected: Vec<WorkItem>,
        /// The reference met a framing error.
        broken: bool,
        /// Every item the machine dispatched, in order.
        dispatched: Vec<WorkItem>,
        /// The FETCH sessions of the batch on the pool, if one is.
        inflight: Option<Vec<u64>>,
        /// The batch that answers the framing error went out.
        last_sent: bool,
        /// Nothing is left in the outbound queue.
        drained: bool,
        /// The interest the poller holds, and whether the last flush blocked.
        interest: Interest,
        blocked: bool,
        closed: bool,
    }

    impl Model {
        fn new(cap: usize) -> Model {
            Model {
                conn: Conn::default(),
                cap,
                pending: Vec::new(),
                protocol: None,
                expected: Vec::new(),
                broken: false,
                dispatched: Vec::new(),
                inflight: None,
                last_sent: false,
                drained: true,
                interest: Interest::READ,
                blocked: false,
                closed: false,
            }
        }

        /// One `read`'s bytes, then the end of the drain.
        fn read(&mut self, chunk: &[u8], at: &str) {
            self.conn.received(chunk);
            self.conn.parse(self.cap);
            if !self.broken {
                self.pending.extend_from_slice(chunk);
                self.parse_reference();
            }
            self.drive(at);
        }

        fn parse_reference(&mut self) {
            let protocol = match (self.protocol, wire::negotiate(&self.pending)) {
                (Some(protocol), _) => protocol,
                (None, Negotiation::NeedMore) => return,
                (None, Negotiation::Json) => Json,
                (None, Negotiation::Binary) => {
                    self.pending.drain(..BINARY_MAGIC.len());
                    Binary
                }
            };
            self.protocol = Some(protocol);
            let mut drained = 0;
            loop {
                let item = match next_inbound(protocol, &mut self.pending) {
                    Ok(None) => return,
                    Ok(Some(_)) if drained >= self.cap => WorkItem::Shed,
                    Ok(Some(InboundItem::Request(request))) => WorkItem::Request(request),
                    Ok(Some(InboundItem::Malformed(message))) => WorkItem::Malformed(message),
                    Err(message) => {
                        self.expected.push(WorkItem::Malformed(message));
                        self.broken = true;
                        return;
                    }
                };
                self.expected.push(item);
                drained += 1;
            }
        }

        /// The in-flight batch ends; its worker's flush `drained` the
        /// queue or left bytes for the reactor. Then the poke.
        fn complete(&mut self, drained: bool, at: &str) {
            if self.inflight.take().is_some() {
                self.drained = drained;
            }
            self.drive(at);
        }

        /// The reactor's flush ends in `outcome`.
        fn flush(&mut self, outcome: Flush, at: &str) {
            let blocked = outcome == Flush::Blocked;
            match self.conn.flushed(outcome) {
                Rearm::Close => {
                    assert_eq!(outcome, Flush::Dead, "{at}: closed on a live socket");
                    return self.close(at);
                }
                Rearm::Keep => {}
                Rearm::To(interest) => {
                    assert_ne!(
                        interest, self.interest,
                        "{at}: re-registered the same interest"
                    );
                    self.interest = interest;
                }
            }
            self.blocked = blocked;
            self.drained = outcome == Flush::Drained;
            self.drive(at);
        }

        /// The driver's dispatch step: is the machine ready, is the
        /// connection idle, and what does the machine do next?
        fn drive(&mut self, at: &str) {
            if self.closed || !self.conn.awaits_idle() {
                return;
            }
            let idle = self.inflight.is_none();
            match self.conn.next(idle) {
                Next::Wait => {}
                Next::Dispatch(batch) => {
                    assert!(idle, "{at}: a second batch in flight");
                    assert!(!self.last_sent, "{at}: a batch after the last");
                    assert!(!batch.items.is_empty(), "{at}: an empty batch");
                    assert_eq!(Some(batch.protocol), self.protocol, "{at}: protocol");
                    assert_eq!(batch.last, self.broken, "{at}: the last batch");
                    self.inflight = Some(fetches(&batch.items));
                    self.last_sent = batch.last;
                    self.dispatched.extend(batch.items);
                }
                Next::CloseWhenDrained => {
                    assert!(
                        idle && self.last_sent,
                        "{at}: closing before the last batch ended"
                    );
                    if self.drained {
                        self.close(at);
                    }
                }
            }
        }

        /// Teardown: the machine names the sessions to cancel.
        fn close(&mut self, at: &str) {
            let idle = self.inflight.is_none();
            let inflight = self.inflight.take().unwrap_or_default();
            assert_eq!(
                self.conn.cancels(idle),
                inflight,
                "{at}: sessions cancelled"
            );
            self.closed = true;
        }

        /// Everything observable about the machine, against the model.
        fn check(&self, at: &str) {
            if self.closed {
                return;
            }
            let parsed: Vec<&WorkItem> = self.dispatched.iter().chain(&self.conn.queued).collect();
            let expected: Vec<&WorkItem> = self.expected.iter().collect();
            assert_eq!(parsed, expected, "{at}: dispatched and queued items");
            if self.inflight.is_none() {
                assert!(self.conn.queued.is_empty(), "{at}: idle with items queued");
            }
            let write = self.interest == Interest::READ_WRITE;
            assert_eq!(
                write, self.blocked,
                "{at}: WRITE interest without a blocked flush"
            );
            let done = self.last_sent && self.inflight.is_none() && self.drained;
            assert!(!done, "{at}: the last batch is done and drained, yet open");
        }
    }

    /// 1 000 seeded sequences of up to 40 steps — a script's next chunk,
    /// the batch in flight ending, a reactor flush, the peer closing —
    /// each step checked against [`Model`].
    #[test]
    fn the_machine_matches_its_reference_model() {
        for seed in 0..1000u64 {
            let mut rng = Rng(seed);
            let protocol = [Json, Binary][(seed % 2) as usize];
            let bytes = script(&mut rng, protocol);
            let mut model = Model::new(1 + rng.below(4) as usize);
            let mut read = 0;
            for step in 0..1 + rng.below(40) {
                let at = format!("seed {seed} step {step}");
                let left = (bytes.len() - read) as u64;
                match rng.below(16) {
                    0..=7 if left > 0 => {
                        let n = match rng.below(2) {
                            0 => 1 + rng.below(left.min(8)),
                            _ => 1 + rng.below(left),
                        } as usize;
                        model.read(&bytes[read..read + n], &at);
                        read += n;
                    }
                    0..=11 => model.complete(rng.below(2) == 0, &at),
                    12..=14 => {
                        let outcomes = [Flush::Drained, Flush::Blocked, Flush::Dead];
                        let outcome = match model.drained {
                            true => Flush::Drained,
                            false => outcomes[rng.below(3) as usize],
                        };
                        model.flush(outcome, &at);
                    }
                    _ => model.close(&at),
                }
                model.check(&at);
                if model.closed {
                    break;
                }
            }
        }
    }

    /// A fixed script of three requests, read in up to three chunks cut at
    /// every pair of offsets, on both protocols, with each batch ending
    /// at once or only after the last chunk.
    #[test]
    fn every_cut_of_a_three_request_script_parses_alike() {
        let requests = [fetch(1, 2), Request::Ping, fetch(3, 4)];
        for protocol in [Json, Binary] {
            let mut bytes = opening(protocol);
            for request in &requests {
                put(protocol, request, &mut bytes);
            }
            for i in 0..=bytes.len() {
                for j in i..=bytes.len() {
                    for at_once in [false, true] {
                        let at = format!("{protocol:?} cut at {i} and {j}, at once {at_once}");
                        let mut model = Model::new(2);
                        for chunk in [&bytes[..i], &bytes[i..j], &bytes[j..]] {
                            if !chunk.is_empty() {
                                model.read(chunk, &at);
                            }
                            if at_once {
                                model.complete(true, &at);
                            }
                            model.check(&at);
                        }
                        model.complete(true, &at);
                        model.check(&at);
                        assert_eq!(model.dispatched.len(), 3, "{at}: every request answered");
                    }
                }
            }
        }
    }
}
