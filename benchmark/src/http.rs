//! The smallest HTTP/1.1 client the open loop needs: one request per
//! `Connection: close` socket, exactly what a from-scratch client of
//! `serve` would send.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Refused under load: the statuses the gateway sheds with.
    pub fn shed(&self) -> bool {
        matches!(self.status, 429 | 503 | 507)
    }
}

/// Sends one request and reads the whole reply. Every socket
/// operation is bounded by `timeout`, so a wedged server costs one
/// failed request, never a hung harness.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

pub fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let text = String::from_utf8_lossy(raw);
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP reply");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let body = text.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
    Ok(Reply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_split_into_status_and_body() {
        let r =
            parse_reply(b"HTTP/1.1 201 Created\r\nContent-Length: 9\r\n\r\n{\"a\":\"b\"}").unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(r.body, "{\"a\":\"b\"}");
        assert!(r.ok());
        assert!(!parse_reply(b"HTTP/1.1 503 x\r\n\r\n").unwrap().ok());
        assert!(parse_reply(b"garbage").is_err());
    }
}
