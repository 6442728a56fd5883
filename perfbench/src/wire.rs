//! The load generator's connection: one proto-2 socket carrying many
//! tagged requests at once.
//!
//! `snn_serve::MuxClient` blocks its caller per call, so pipelining 16
//! sessions through it would take 16 threads. Here the generator thread
//! sends frames built with the public `snn_serve::frame` codec and one
//! reader thread hands tagged replies back over a channel, stamped with
//! the instant they came off the socket; the generator waits on that
//! channel with a precise deadline, so an open-loop schedule keeps time.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Instant;

use snn_serve::frame::{line_to_frame, Frame, HEADER_BYTES};
use snn_serve::protocol::{format_request, Request};
use snn_serve::PROTO_V2;

/// Threads a [`Conn`] runs besides its caller's.
pub const READER_THREADS: usize = 1;

/// One tagged reply, as the protocol line it carries.
#[derive(Debug)]
pub struct Reply {
    /// The tag of the request it answers.
    pub tag: u32,
    /// The reply line (`ok …` or `err …`).
    pub line: String,
    /// When the reply's last byte was read off the socket.
    pub at: Instant,
    /// Its size on the wire.
    pub bytes: u64,
}

/// A negotiated proto-2 connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    replies: Receiver<io::Result<Reply>>,
    reader: Option<JoinHandle<()>>,
    next_tag: u32,
    tx_bytes: u64,
    rx_bytes: u64,
}

impl Conn {
    /// Connects and performs the line-based `hello proto=2` handshake.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = format_request(&Request::Hello { proto: PROTO_V2 }) + "\n";
        stream.write_all(hello.as_bytes())?;
        // The banner is the only line on the socket before framing starts,
        // so reading it byte by byte cannot swallow frame bytes.
        let mut banner = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            if stream.read(&mut byte)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no banner"));
            }
            banner.push(byte[0]);
        }
        let banner = String::from_utf8_lossy(&banner);
        if !banner.starts_with("ok ") || !banner.contains(&format!("proto={PROTO_V2}")) {
            return Err(io::Error::other(format!(
                "handshake refused: {}",
                banner.trim()
            )));
        }
        let (tx, replies) = mpsc::channel();
        let mut reader = BufReader::new(stream.try_clone()?);
        let reader = std::thread::spawn(move || loop {
            let reply = match Frame::read_from(&mut reader) {
                Ok(Some(frame)) => {
                    let at = Instant::now();
                    let bytes = (HEADER_BYTES + frame.head.len() + frame.payload.len() + 4) as u64;
                    frame
                        .to_line()
                        .map(|line| Reply {
                            tag: frame.tag,
                            line,
                            at,
                            bytes,
                        })
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
                Ok(None) => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            };
            let last = reply.is_err();
            if tx.send(reply).is_err() || last {
                return;
            }
        });
        Ok(Conn {
            writer: stream,
            replies,
            reader: Some(reader),
            next_tag: 1,
            tx_bytes: 0,
            rx_bytes: 0,
        })
    }

    /// Sends one request line as a frame; returns its tag.
    pub fn send(&mut self, line: &str) -> io::Result<u32> {
        let tag = self.next_tag;
        // Tag 0 is reserved for connection-level errors.
        self.next_tag = self.next_tag.checked_add(1).unwrap_or(1);
        let bytes = line_to_frame(line, tag, 0).encode();
        self.writer.write_all(&bytes)?;
        self.tx_bytes += bytes.len() as u64;
        Ok(tag)
    }

    /// The next reply, waiting until `deadline` (forever when `None`).
    /// Returns `Ok(None)` when the deadline passes first.
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<Reply>> {
        let reply = match deadline {
            None => self.replies.recv().map_err(|_| closed())?,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.replies.recv_timeout(left) {
                    Ok(reply) => reply,
                    Err(RecvTimeoutError::Timeout) => return Ok(None),
                    Err(RecvTimeoutError::Disconnected) => return Err(closed()),
                }
            }
        }?;
        self.rx_bytes += reply.bytes;
        Ok(Some(reply))
    }

    /// One request and its reply, with nothing else in flight.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let tag = self.send(line)?;
        let reply = self.recv(None)?.ok_or_else(closed)?;
        if reply.tag != tag {
            return Err(io::Error::other(format!(
                "reply for tag {} while waiting for {tag}",
                reply.tag
            )));
        }
        Ok(reply.line)
    }

    /// Frame bytes written and read so far.
    pub fn wire_bytes(&self) -> u64 {
        self.tx_bytes + self.rx_bytes
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Closing the socket ends the reader thread's blocking read.
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")
}
