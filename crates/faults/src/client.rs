//! A TCP client that commits fault scenarios against a live server.
//!
//! Each [`FaultKind`] maps to one concrete
//! misbehavior on a real socket. The client then *classifies* what it
//! observed into a [`FaultOutcome`] and checks it against the kind's
//! documented guarantee. Crucially the client itself never panics on
//! I/O: a server that closes, resets, or refuses is an outcome to
//! classify, not a test-harness crash.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use hms_stats::rng::Rng;

use crate::plan::{FaultCase, FaultKind};

/// What the server observably did in response to a committed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A complete HTTP response with this status code.
    Status(u16),
    /// The connection was closed (EOF / reset) without a response —
    /// legitimate for faults where no response is owed.
    ConnectionClosed,
    /// The client abandoned the connection mid-fault by design
    /// (e.g. [`FaultKind::ResetMidRequest`]); nothing was read.
    Dropped,
    /// The server neither answered nor hung up within the client's
    /// read timeout. This is the hung-worker signature and satisfies
    /// no guarantee.
    TimedOut,
}

impl FaultOutcome {
    /// Does this outcome satisfy `kind`'s documented guarantee?
    /// (Process-level guarantees — no panic, no leaked worker — are
    /// checked by the caller probing `/healthz` afterwards.)
    pub fn satisfies(self, kind: FaultKind) -> bool {
        match kind {
            // The request-read deadline must end the trickle: either a
            // 408 made it out or the server just hung up.
            FaultKind::SlowlorisTrickle => {
                matches!(
                    self,
                    FaultOutcome::Status(408) | FaultOutcome::ConnectionClosed
                )
            }
            // A truncated body is a malformed request: 400, or a close
            // if the response raced our half-close.
            FaultKind::TruncateBody => matches!(
                self,
                FaultOutcome::Status(400 | 408) | FaultOutcome::ConnectionClosed
            ),
            FaultKind::ResetMidRequest => matches!(self, FaultOutcome::Dropped),
            FaultKind::OversizedBody => matches!(self, FaultOutcome::Status(413)),
            // Hostile JSON is a client error; semantically-wrong-shape
            // corpus documents may also legitimately earn a 404
            // (unknown kernel).
            FaultKind::MalformedJson => {
                matches!(self, FaultOutcome::Status(s) if (400..500).contains(&s))
            }
        }
    }
}

/// Fault-committing client. One instance per target server.
#[derive(Debug, Clone)]
pub struct FaultClient {
    addr: SocketAddr,
    /// How long to wait for a response before declaring
    /// [`FaultOutcome::TimedOut`]. Must comfortably exceed the server's
    /// request-read deadline.
    pub read_timeout: Duration,
    /// Delay between slowloris trickle chunks. Pick it so the server's
    /// read deadline fires a few chunks in.
    pub trickle_delay: Duration,
}

impl FaultClient {
    pub fn new(addr: SocketAddr) -> FaultClient {
        FaultClient {
            addr,
            read_timeout: Duration::from_secs(10),
            trickle_delay: Duration::from_millis(50),
        }
    }

    /// Commit one fault case against `path` (the well-formed request
    /// body the fault corrupts is `good_body`) and classify the result.
    pub fn commit(&self, case: FaultCase, path: &str, good_body: &[u8]) -> FaultOutcome {
        let mut rng = Rng::seed_from_u64(case.seed);
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return FaultOutcome::ConnectionClosed;
        };
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        let _ = stream.set_nodelay(true);
        match case.kind {
            FaultKind::SlowlorisTrickle => self.slowloris(stream, &mut rng, path, good_body),
            FaultKind::TruncateBody => self.truncate_body(stream, &mut rng, path, good_body),
            FaultKind::ResetMidRequest => {
                // Send the headers promising a body, then vanish. The
                // explicit shutdown makes the disappearance immediate
                // rather than waiting on the OS to flush on drop.
                let mut s = stream;
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
                    good_body.len().max(1)
                );
                let _ = s.flush();
                let _ = s.shutdown(Shutdown::Both);
                FaultOutcome::Dropped
            }
            FaultKind::OversizedBody => {
                let mut s = stream;
                // Promise far more than any sane cap; send nothing. A
                // correct server rejects on the declared length alone.
                let declared = 2 * 1024 * 1024 + rng.gen_range(0u64..4096);
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {declared}\r\n\r\n"
                );
                let _ = s.flush();
                read_outcome(s)
            }
            FaultKind::MalformedJson => {
                let mut s = stream;
                let corpus = crate::corpus::adversarial_json(case.seed, 8);
                let body = &corpus[rng.gen_range(0usize..corpus.len())];
                let _ = write!(
                    s,
                    "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                );
                let _ = s.write_all(body);
                let _ = s.flush();
                read_outcome(s)
            }
        }
    }

    /// Drip the request a few bytes at a time until the server gives up
    /// (or, pathologically, until the whole request has dripped).
    fn slowloris(
        &self,
        mut stream: TcpStream,
        rng: &mut Rng,
        path: &str,
        good_body: &[u8],
    ) -> FaultOutcome {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
            good_body.len()
        )
        .into_bytes();
        request.extend_from_slice(good_body);
        let mut sent = 0;
        while sent < request.len() {
            let chunk = rng.gen_range(1usize..4).min(request.len() - sent);
            if stream.write_all(&request[sent..sent + chunk]).is_err() {
                // Server already gave up on us mid-trickle; see what it
                // said (a 408 may be buffered) or confirm the close.
                break;
            }
            let _ = stream.flush();
            sent += chunk;
            std::thread::sleep(self.trickle_delay);
        }
        read_outcome(stream)
    }

    /// Declare the full body length, send a strict prefix, half-close.
    fn truncate_body(
        &self,
        mut stream: TcpStream,
        rng: &mut Rng,
        path: &str,
        good_body: &[u8],
    ) -> FaultOutcome {
        let keep = rng.gen_range(0usize..good_body.len().max(1));
        let _ = write!(
            stream,
            "POST {path} HTTP/1.1\r\nhost: f\r\ncontent-length: {}\r\n\r\n",
            good_body.len().max(1)
        );
        let _ = stream.write_all(&good_body[..keep.min(good_body.len())]);
        let _ = stream.flush();
        // Half-close: the server sees EOF where body bytes were owed,
        // while our read side stays open for its 400.
        let _ = stream.shutdown(Shutdown::Write);
        read_outcome(stream)
    }
}

/// Read and classify whatever the server sends next on `stream`.
fn read_outcome(stream: TcpStream) -> FaultOutcome {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    match reader.read_line(&mut status_line) {
        Ok(0) => return FaultOutcome::ConnectionClosed,
        Ok(_) => {}
        Err(e) => {
            return match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    FaultOutcome::TimedOut
                }
                _ => FaultOutcome::ConnectionClosed,
            }
        }
    }
    let Some(status) = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
    else {
        return FaultOutcome::ConnectionClosed;
    };
    // Drain headers and any content-length body so keep-alive state is
    // observable by the caller if it reuses the address.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line
                    .to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                {
                    content_length = v.parse().unwrap_or(0);
                }
            }
        }
    }
    let mut body = vec![0u8; content_length.min(1 << 20)];
    let _ = reader.read_exact(&mut body);
    FaultOutcome::Status(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantees_match_the_documented_matrix() {
        use FaultKind::*;
        use FaultOutcome::*;
        assert!(Status(408).satisfies(SlowlorisTrickle));
        assert!(ConnectionClosed.satisfies(SlowlorisTrickle));
        assert!(!TimedOut.satisfies(SlowlorisTrickle));
        assert!(Status(400).satisfies(TruncateBody));
        assert!(!Status(200).satisfies(TruncateBody));
        assert!(Dropped.satisfies(ResetMidRequest));
        assert!(Status(413).satisfies(OversizedBody));
        assert!(!Status(400).satisfies(OversizedBody));
        assert!(Status(404).satisfies(MalformedJson));
        assert!(!Status(500).satisfies(MalformedJson));
        assert!(!TimedOut.satisfies(MalformedJson));
    }

    #[test]
    fn client_classifies_a_dead_server_as_closed() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = FaultClient::new(addr);
        let case = FaultCase {
            kind: FaultKind::MalformedJson,
            seed: 1,
        };
        assert_eq!(
            client.commit(case, "/v1/predict", b"{}"),
            FaultOutcome::ConnectionClosed
        );
    }
}
