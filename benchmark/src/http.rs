//! Keep-alive HTTP/1.1 client for the fleetd workload: one connection,
//! exact `Content-Length` framing, transparent reconnect when the server
//! rotates the connection at its per-connection request cap.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    pub reconnects: u64,
}

/// One response: status and exactly `Content-Length` body bytes.
#[derive(Debug, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Whether `e` is how a write or read meets a connection the peer closed.
fn rotated(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn malformed(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::new(),
            reconnects: 0,
        })
    }

    /// Closes the connection; the client is unusable afterwards.
    pub fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let fresh = Client::connect(self.addr)?;
        self.stream = fresh.stream;
        self.buf.clear();
        self.reconnects += 1;
        Ok(())
    }

    /// Sends `wire` and reads one framed response. A connection the
    /// server closed between requests is reopened once.
    pub fn request(&mut self, wire: &[u8]) -> io::Result<Reply> {
        if self.stream.write_all(wire).is_err() {
            self.reconnect()?;
            self.stream.write_all(wire)?;
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut retried = false;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            // The server closes a connection after its 1024th response. A
            // request already on its way then meets a clean end of stream
            // or, if it arrived after the close, a reset; both mean "not
            // served", and a GET is safe to send again.
            let unserved = self.buf.is_empty() && !retried;
            match self.stream.read(&mut chunk) {
                Ok(0) if unserved => {}
                Err(e) if unserved && rotated(&e) => {}
                Ok(0) => return Err(malformed("connection closed inside a response head")),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) => return Err(e),
            }
            retried = true;
            self.reconnect()?;
            self.stream.write_all(wire)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| malformed("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| malformed("no Content-Length"))?;
        let body_len = if status == 304 { 0 } else { length };
        while self.buf.len() < head_end + body_len {
            match self.stream.read(&mut chunk)? {
                0 => return Err(malformed("connection closed inside a response body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = self.buf[head_end..head_end + body_len].to_vec();
        self.buf.drain(..head_end + body_len);
        Ok(Reply { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers one request per connection and closes it.
    fn one_shot_server(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut buf).unwrap();
                    seen.extend_from_slice(&buf[..n]);
                }
                let body = format!("reply {i}");
                write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_connection_the_server_closed_is_reopened_and_the_request_resent() {
        let (addr, server) = one_shot_server(3);
        let mut client = Client::connect(addr).unwrap();
        let wire = b"GET / HTTP/1.1\r\nHost: t\r\n\r\n";
        for i in 0..3 {
            let reply = client.request(wire).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, format!("reply {i}").into_bytes());
        }
        // Whether the close shows as end of stream, a reset or a failed
        // write, each costs exactly one reconnect.
        assert_eq!(client.reconnects, 2);
        server.join().unwrap();
    }
}
