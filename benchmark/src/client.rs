//! A raw wire connection: frames go out pre-encoded and answers come
//! back as the exact bytes the server wrote, so verification compares
//! each answer in its own protocol without decoding it.

use hft_serve::binwire::{self, Proto};
use hft_serve::wire::{self, FrameEvent, FrameReader};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The length-prefixed frame carrying `body`.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    wire::write_frame(&mut out, body).expect("writing to a Vec cannot fail");
    out
}

/// One client connection speaking one protocol.
pub struct Conn {
    /// The protocol negotiated for this connection.
    pub proto: Proto,
    stream: TcpStream,
    frames: FrameReader,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connect and, for the binary protocol, complete the hello
    /// handshake so the first measured frame is already binary.
    pub fn open(addr: &SocketAddr, proto: Proto) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            proto,
            stream,
            frames: FrameReader::new(),
            chunk: vec![0; 64 * 1024],
        };
        if proto != Proto::Json {
            conn.stream.write_all(&frame(&binwire::hello(proto)))?;
            let ack = conn.recv()?;
            let granted = binwire::parse_hello_ack(&ack)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if granted != proto {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server granted {} for {}", granted.name(), proto.name()),
                ));
            }
        }
        Ok(conn)
    }

    /// Write already framed bytes.
    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    /// A second handle on the socket for a sending thread.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// The socket's descriptor, for readiness polling.
    #[cfg(unix)]
    pub fn fd(&self) -> hft_serve::poll::SourceFd {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// The next buffered answer, if a whole one has arrived.
    pub fn take(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.frames.next(wire::DEFAULT_MAX_FRAME) {
            None => Ok(None),
            Some(FrameEvent::Frame(body)) => Ok(Some(body)),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized answer frame",
            )),
        }
    }

    /// One read from the socket into the frame buffer (blocks only when
    /// nothing is readable).
    pub fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.frames.feed(&self.chunk[..n]);
        Ok(())
    }

    /// Block until the next answer arrives.
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(body) = self.take()? {
                return Ok(body);
            }
            self.fill()?;
        }
    }
}
