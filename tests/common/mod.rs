//! Shared helpers for the integration suites that talk to a live
//! `hms-serve` listener.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Minimal keep-alive HTTP/1.1 test client: one connection, requests
/// answered in order, every body framed by `content-length`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One response: status code and UTF-8 body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Client {
    /// Connect to `addr`; a read blocked longer than `read_timeout`
    /// fails the test instead of hanging it.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Client {
        let stream = TcpStream::connect(addr).expect("connects");
        stream.set_read_timeout(Some(read_timeout)).unwrap();
        let writer = stream.try_clone().expect("clones");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Reply {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("writes");
        self.writer.flush().unwrap();
        self.read_response().expect("response")
    }

    pub fn get(&mut self, path: &str) -> Reply {
        self.request("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> Reply {
        self.request("POST", path, body)
    }

    /// Read the next response, or `None` once the connection is closed
    /// or the response is malformed.
    pub fn read_response(&mut self) -> Option<Reply> {
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).ok()?;
        if status_line.is_empty() {
            return None;
        }
        let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).ok()?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse().ok()?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).ok()?;
        Some(Reply {
            status,
            body: String::from_utf8(body).ok()?,
        })
    }
}
