//! The benchmark's own HTTP/1.1 client: one request per connection, as
//! `fastbfs serve` answers every response with `Connection: close`. Kept
//! apart from `fastbfs loadgen` so that a change there cannot move the
//! measurement.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No reply the server gives in this benchmark takes this long.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request and reads the reply to end of stream.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> std::io::Result<Reply> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("reply has no header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("reply head is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("reply has no status code"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// `GET` that must answer 200; returns the body as text.
pub fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    let reply = request(addr, "GET", path, "").map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    String::from_utf8(reply.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}
