//! The open-loop generator.
//!
//! A closed loop sends its next request when the last reply is in, so a
//! server that stalls is simply offered less load and the stall shows as
//! *one* slow request. Independent users do not wait for each other: here
//! one non-blocking thread sends request `i` when it is *due*, at
//! `start + i / rate`, whatever has or has not come back, and times each
//! reply from its due time — a stall is then paid by every request that
//! was due during it. How late the generator itself ran is reported beside
//! the latencies, so a slow generator cannot pass for a slow server.

use crate::harness::stats::{self, P99};
use re_server::{wire, Request, Response};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Due-time p99 a rate must stay under to count as sustained. On two
/// cores the generator, the reactor and two workers take turns, and the
/// p99 of the lowest rate already sits between 1 and 2 ms.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(5);

/// One connection the generator multiplexes. Neither call may block.
pub trait Link {
    /// Queue request `id` and start sending it.
    fn send(&mut self, id: u64);
    /// Move bytes both ways; push `(id, ok)` for every reply that
    /// completed, in the order requests were sent.
    fn poll(&mut self, done: &mut Vec<(u64, bool)>);
}

/// What one rate step observed.
#[derive(Clone, Debug, Default)]
pub struct Step {
    pub sent: u64,
    /// Replies that arrived wrong, or not at all before the drain ended.
    pub failed: u64,
    /// Due → reply, ascending, for every reply that arrived.
    pub latency_ns: Vec<u64>,
    /// Due → actually sent, ascending.
    pub late_ns: Vec<u64>,
    /// Requests unanswered halfway through and at the end of the schedule.
    pub outstanding_half: u64,
    pub outstanding_end: u64,
}

impl Step {
    pub fn due_p99_us(&self) -> f64 {
        stats::percentile(&self.latency_ns, P99) as f64 / 1e3
    }

    pub fn late_p99_us(&self) -> f64 {
        stats::percentile(&self.late_ns, P99) as f64 / 1e3
    }

    /// Whether the backlog kept growing through the step: a server that
    /// keeps up holds `rate × latency` requests in flight, a constant; one
    /// that falls behind holds twice as many at the end as halfway.
    pub fn backlog_growing(&self) -> bool {
        2 * self.outstanding_end > 3 * self.outstanding_half + 16
    }

    /// Met the latency limit with no failure and no growing backlog.
    pub fn sustained(&self) -> bool {
        self.failed == 0
            && !self.backlog_growing()
            && self.latency_ns.len() as u64 == self.sent
            && self.due_p99_us() <= LATENCY_LIMIT.as_secs_f64() * 1e6
    }
}

/// Offer `rate` requests a second for `length`, spread round-robin over
/// `links`; then wait up to `drain` for the stragglers.
pub fn run_rate(links: &mut [&mut dyn Link], rate: f64, length: Duration, drain: Duration) -> Step {
    let total = (rate * length.as_secs_f64()).floor() as u64;
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let due = |i: u64| start + period.mul_f64(i as f64);
    let mut step = Step::default();
    let mut done = Vec::new();
    let mut next = 0u64;
    let mut answered = 0u64;
    loop {
        let now = Instant::now();
        while next < total && due(next) <= now {
            links[(next % links.len() as u64) as usize].send(next);
            step.late_ns.push(nanos(now - due(next)));
            next += 1;
            if next == total / 2 {
                step.outstanding_half = next - answered;
            }
            if next == total {
                step.outstanding_end = next - answered;
            }
        }
        for link in links.iter_mut() {
            link.poll(&mut done);
        }
        let arrived = Instant::now();
        for (id, ok) in done.drain(..) {
            answered += 1;
            step.latency_ns
                .push(nanos(arrived.saturating_duration_since(due(id))));
            step.failed += u64::from(!ok);
        }
        if next == total && (answered == total || now > due(total) + drain) {
            break;
        }
        // Nothing in flight and nothing due soon: sleep most of the gap.
        // Otherwise stay on the sockets, yielding so the server's threads
        // get the core when they have work.
        let gap = due(next.min(total)).saturating_duration_since(now);
        if answered == next && next < total && gap > Duration::from_micros(200) {
            std::thread::sleep(gap - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
    step.sent = next;
    step.failed += total - answered;
    step.latency_ns.sort_unstable();
    step.late_ns.sort_unstable();
    step
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A non-blocking binary-protocol connection issuing `FETCH k` over a
/// rotation of already open sessions.
pub struct TcpLink {
    stream: TcpStream,
    sessions: Vec<u64>,
    k: u64,
    sent: u64,
    /// Bytes queued but not yet accepted by the socket.
    outbuf: Vec<u8>,
    inbuf: Vec<u8>,
    /// Ids awaiting replies, oldest first; replies come back in order.
    in_flight: VecDeque<u64>,
    dead: bool,
}

impl TcpLink {
    pub fn connect(addr: SocketAddr, sessions: Vec<u64>, k: u64) -> std::io::Result<TcpLink> {
        assert!(!sessions.is_empty());
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpLink {
            stream,
            sessions,
            k,
            sent: 0,
            outbuf: wire::BINARY_MAGIC.to_vec(),
            inbuf: Vec::new(),
            in_flight: VecDeque::new(),
            dead: false,
        })
    }

    fn flush(&mut self) {
        while !self.outbuf.is_empty() && !self.dead {
            match self.stream.write(&self.outbuf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }
}

/// A full page in rank order (weights are the values, the order is `SUM`).
fn page_ok(response: &Response, k: u64) -> bool {
    match response {
        Response::Page { rows, .. } => {
            rows.len() as u64 == k
                && rows
                    .windows(2)
                    .all(|w| w[0].iter().sum::<u64>() <= w[1].iter().sum::<u64>())
        }
        _ => false,
    }
}

impl Link for TcpLink {
    fn send(&mut self, id: u64) {
        let session = self.sessions[(self.sent % self.sessions.len() as u64) as usize];
        self.sent += 1;
        let request = Request::Fetch { session, k: self.k };
        wire::append_frame(&mut self.outbuf, &wire::encode_request(&request));
        self.in_flight.push_back(id);
        self.flush();
    }

    fn poll(&mut self, done: &mut Vec<(u64, bool)>) {
        self.flush();
        let mut chunk = [0u8; 16 * 1024];
        while !self.dead {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.dead = true,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        loop {
            match wire::split_frame(&mut self.inbuf) {
                Ok(Some(payload)) => {
                    let ok = wire::decode_response(&payload).is_ok_and(|r| page_ok(&r, self.k));
                    if let Some(id) = self.in_flight.pop_front() {
                        done.push((id, ok));
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.dead {
            done.extend(self.in_flight.drain(..).map(|id| (id, false)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-server queue with a fixed service time that freezes once.
    struct Stub {
        service: Duration,
        stall_from: Instant,
        stall: Duration,
        free_at: Instant,
        queue: VecDeque<(u64, Instant)>,
    }

    impl Link for Stub {
        fn send(&mut self, id: u64) {
            let mut begin = Instant::now().max(self.free_at);
            if begin >= self.stall_from && begin < self.stall_from + self.stall {
                begin = self.stall_from + self.stall;
            }
            self.free_at = begin + self.service;
            self.queue.push_back((id, self.free_at));
        }

        fn poll(&mut self, done: &mut Vec<(u64, bool)>) {
            let now = Instant::now();
            while self.queue.front().is_some_and(|(_, ready)| *ready <= now) {
                let (id, _) = self.queue.pop_front().expect("front was just seen");
                done.push((id, true));
            }
        }
    }

    /// The server freezes for 50 ms. A coordinated generator would send
    /// nothing meanwhile and report one slow request; this one must keep
    /// its schedule — small lateness — and charge the stall to every
    /// request that fell due during it.
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let rate = 2000.0;
        let stall = Duration::from_millis(50);
        let mut stub = Stub {
            service: Duration::from_micros(50),
            stall_from: Instant::now() + Duration::from_millis(100),
            stall,
            free_at: Instant::now(),
            queue: VecDeque::new(),
        };
        let step = run_rate(
            &mut [&mut stub],
            rate,
            Duration::from_millis(400),
            Duration::from_secs(1),
        );
        assert_eq!(step.sent, 800);
        assert_eq!(step.failed, 0);
        assert_eq!(step.latency_ns.len(), 800);
        let worst = Duration::from_nanos(*step.latency_ns.last().unwrap());
        assert!(worst >= stall - Duration::from_millis(2), "worst {worst:?}");
        // 100 requests fell due during the stall; those due in its first
        // 40 ms waited at least 10 ms each.
        let slow = step
            .latency_ns
            .iter()
            .filter(|&&ns| ns >= 10_000_000)
            .count();
        assert!(slow >= 60, "only {slow} requests saw the stall");
        // The generator never waited for the stub: one that did would send
        // an eighth of its requests up to 50 ms late, a tenth of them over
        // 10 ms. (Not the p99: this test thread shares two CPUs with the
        // others and can lose one for 10 ms.)
        let late_p90 = Duration::from_nanos(stats::percentile(&step.late_ns, stats::P90));
        assert!(late_p90 < Duration::from_millis(5), "late {late_p90:?}");
        assert!(!step.sustained(), "p99 far over the limit");
    }

    #[test]
    fn a_level_backlog_is_not_a_growing_one() {
        // Whether this test thread is descheduled while a schedule ends
        // must not decide a verdict, so the rule is checked on its inputs.
        let backlog = |half, end| Step {
            outstanding_half: half,
            outstanding_end: end,
            ..Step::default()
        };
        assert!(!backlog(1, 1).backlog_growing());
        assert!(!backlog(1, 9).backlog_growing(), "a burst, not a trend");
        assert!(!backlog(100, 110).backlog_growing());
        assert!(backlog(100, 200).backlog_growing());
    }

    #[test]
    fn overload_shows_as_a_growing_backlog() {
        // 4000 requests a second into a server that completes 1000.
        let mut stub = Stub {
            service: Duration::from_millis(1),
            stall_from: Instant::now() + Duration::from_secs(3600),
            stall: Duration::ZERO,
            free_at: Instant::now(),
            queue: VecDeque::new(),
        };
        let step = run_rate(
            &mut [&mut stub],
            4000.0,
            Duration::from_millis(200),
            Duration::from_millis(1),
        );
        assert!(
            step.backlog_growing(),
            "outstanding {} halfway, {} at the end",
            step.outstanding_half,
            step.outstanding_end
        );
        assert!(step.failed > 0, "the drain was cut short");
        assert!(!step.sustained());
    }
}
