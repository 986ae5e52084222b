//! A blocking JSONL client for the socket serving tier: connect, write
//! request lines, read response lines. Used by `tcim_query --connect`, the
//! benchmark's replay clients, the socket example and the integration
//! tests — anything that speaks to a [`Server`](crate::server)
//! over TCP or a Unix-domain socket.
//!
//! The client is deliberately minimal: requests go out as one line each,
//! responses come back one line each **in request order** (the server
//! guarantees per-connection ordering), so callers can pipeline by sending
//! several lines before reading — as long as they eventually read, since
//! the server's per-connection window pushes back on writers that never do.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;

use crate::minijson::Json;
use crate::protocol::Request;

/// A connected JSONL client (TCP or Unix-domain).
pub struct Client {
    writer: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn Read + Send>>,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            writer: Box::new(stream),
            reader: BufReader::new(Box::new(reader) as Box<dyn Read + Send>),
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            writer: Box::new(stream),
            reader: BufReader::new(Box::new(reader) as Box<dyn Read + Send>),
        })
    }

    /// Sends one request line (rendered via [`Request::to_json`]) without
    /// waiting for the response — the pipelining primitive.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_line(&request.to_json().to_string())
    }

    /// Sends one raw protocol line verbatim (no client-side validation —
    /// the server answers malformed lines with correlated errors).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next response line; `None` on clean EOF (server closed the
    /// connection).
    ///
    /// # Errors
    ///
    /// Propagates read failures; a non-JSON response line is reported as
    /// `InvalidData` (the server never emits one).
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Json::parse(line.trim()).map(Some).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {err}"))
        })
    }

    /// Sends one request and waits for its response — the one-shot path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an EOF before the response is
    /// `UnexpectedEof`.
    pub fn call(&mut self, request: &Request) -> io::Result<Json> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before the response")
        })
    }
}
