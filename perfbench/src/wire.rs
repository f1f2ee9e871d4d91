//! The load generator's side of the wire: a pipelined connection speaking
//! `spmv_net::protocol`, and the open-loop send schedule.
//!
//! `NetClient` can pipeline spmv/spmm but blocks in `recv` and has no
//! pipelined solver submit, so an open-loop generator that must send on time
//! while replies arrive uses the protocol's public codec directly: the bytes
//! on the wire are the ones `NetClient` sends.

use crate::trace::Spans;
use spmv_net::protocol::{self, Op, Request, Response};
use spmv_net::NetError;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest idle sleep of a nonblocking generator loop.
pub const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// One client connection with its own request ids.
#[derive(Debug)]
pub struct Wire {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_id: u64,
    nonblocking: bool,
}

impl Wire {
    /// Connect with Nagle off, blocking, with a read timeout so a lost reply
    /// fails the run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Wire {
            stream,
            rbuf: Vec::new(),
            next_id: 0,
            nonblocking: false,
        })
    }

    /// Switch between the open-loop (nonblocking) and closed-loop modes.
    pub fn set_nonblocking(&mut self, on: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(on)?;
        self.nonblocking = on;
        Ok(())
    }

    /// The id the next [`Wire::send`] will use.
    pub fn next_id(&self) -> u64 {
        self.next_id + 1
    }

    /// Encode and send one request; returns its id. In nonblocking mode a
    /// full socket buffer is waited out while replies are drained into the
    /// read buffer, so the server is never blocked on us.
    pub fn send(
        &mut self,
        matrix: &str,
        op: Op,
        spans: &mut Spans,
        parent: Option<usize>,
    ) -> Result<u64, NetError> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = spans.time("client.encode", parent, id, || {
            let body = protocol::encode_request(&Request::new(id, matrix, op));
            let mut frame = Vec::with_capacity(4 + body.len());
            protocol::write_frame(&mut frame, &body);
            frame
        });
        let start = Instant::now();
        let mut off = 0;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => return Err(NetError::ConnectionClosed),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.fill()?;
                    std::thread::sleep(IDLE_SLEEP);
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        spans.record("client.write", start, Instant::now(), parent, id);
        Ok(id)
    }

    /// Read what the socket has into the buffer. Returns whether bytes came;
    /// in blocking mode this waits for at least one byte.
    fn fill(&mut self) -> Result<bool, NetError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::ConnectionClosed),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock && self.nonblocking => {
                    return Ok(false)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    fn take(&mut self, spans: &mut Spans) -> Result<Option<Response>, NetError> {
        let start = Instant::now();
        let Some((body, used)) = protocol::take_frame(&self.rbuf, protocol::MAX_FRAME)? else {
            return Ok(None);
        };
        let resp = protocol::decode_response(body)?;
        self.rbuf.drain(..used);
        spans.record("client.decode", start, Instant::now(), None, resp.id());
        Ok(Some(resp))
    }

    /// A complete reply if one is buffered or readable now (nonblocking mode).
    pub fn try_recv(&mut self, spans: &mut Spans) -> Result<Option<Response>, NetError> {
        if let Some(resp) = self.take(spans)? {
            return Ok(Some(resp));
        }
        while self.fill()? {
            if let Some(resp) = self.take(spans)? {
                return Ok(Some(resp));
            }
        }
        Ok(None)
    }

    /// Wait for the next complete reply (blocking mode).
    pub fn recv(&mut self, spans: &mut Spans) -> Result<Response, NetError> {
        loop {
            if let Some(resp) = self.take(spans)? {
                return Ok(resp);
            }
            self.fill()?;
        }
    }

    /// One blocking round trip.
    pub fn call(&mut self, matrix: &str, op: Op, spans: &mut Spans) -> Result<Response, NetError> {
        let id = self.send(matrix, op, spans, None)?;
        let resp = self.recv(spans)?;
        if resp.id() != id {
            return Err(NetError::Malformed(format!(
                "reply {} while waiting for {id}",
                resp.id()
            )));
        }
        Ok(resp)
    }
}

/// Evenly spaced send times from `start` until `end`. Every scheduled request
/// is handed out even when the generator falls behind, and each carries its
/// due time, so latency is timed from when the request should have left:
/// a stalled generator shows up as latency, never as missing load.
#[derive(Debug, Clone)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
    end: Instant,
    next: u64,
}

impl Schedule {
    /// Requests every `interval` from `start`, the last one due before `end`.
    pub fn new(start: Instant, interval: Duration, end: Instant) -> Schedule {
        Schedule {
            start,
            interval,
            end,
            next: 0,
        }
    }

    fn due(&self, seq: u64) -> Instant {
        self.start + self.interval.mul_f64(seq as f64)
    }

    /// Due time of the next request, or `None` when the schedule is spent.
    pub fn next_due(&self) -> Option<Instant> {
        let due = self.due(self.next);
        (due < self.end).then_some(due)
    }

    /// The next request if it is due at `now`: its sequence number and due time.
    pub fn take_due(&mut self, now: Instant) -> Option<(u64, Instant)> {
        let due = self.next_due()?;
        if due > now {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_generator_inflates_latency_instead_of_hiding_it() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut s = Schedule::new(t0, ms(1), t0 + ms(10));
        assert_eq!(s.take_due(t0), Some((0, t0)));
        assert_eq!(s.take_due(t0), None, "request 1 is not due yet");
        // The generator stalls for 5 ms: every request that fell due meanwhile
        // is still issued, each with its original due time.
        let late = t0 + ms(6);
        let mut overdue = Vec::new();
        while let Some((seq, due)) = s.take_due(late) {
            overdue.push((seq, due));
        }
        assert_eq!(overdue.len(), 6);
        assert_eq!(overdue[0], (1, t0 + ms(1)));
        // A reply that lands 100 µs after the late send is charged the stall.
        let done = late + Duration::from_micros(100);
        let latency = done - overdue[0].1;
        assert_eq!(latency, ms(5) + Duration::from_micros(100));
        assert!(overdue
            .iter()
            .all(|&(_, due)| done - due >= Duration::from_micros(100)));
    }

    #[test]
    fn schedule_ends_before_its_end_time() {
        let t0 = Instant::now();
        let mut s = Schedule::new(t0, Duration::from_millis(2), t0 + Duration::from_millis(5));
        let far = t0 + Duration::from_secs(1);
        let mut n = 0;
        while s.take_due(far).is_some() {
            n += 1;
        }
        assert_eq!(n, 3); // due at 0, 2 and 4 ms
        assert_eq!(s.next_due(), None);
    }
}
