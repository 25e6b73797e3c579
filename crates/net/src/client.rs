//! Blocking NTTWIRE1 client over TCP or unix sockets.
//!
//! One connection, requests in lockstep: [`NetClient::predict`] writes
//! a frame, blocks on the response, and maps the three failure layers
//! into one [`NetError`] — transport ([`NetError::Io`]), framing
//! ([`NetError::Frame`]), and server-side typed errors
//! ([`NetError::Server`], carrying the stable [`ErrorCode`]). A client
//! that needs pipelining opens more connections (that is what the
//! server's thread-per-connection model expects).

use crate::frame::{self, ErrorCode, Frame, Request, Response, WireError};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A deadline as the wire carries it: whole microseconds, `0` meaning
/// "none" — so a budget under 1 µs, the tightest a caller can ask for,
/// rounds up to 1 instead of vanishing; one past `u32` saturates.
fn deadline_micros(deadline: Option<Duration>) -> u32 {
    deadline.map_or(0, |d| {
        u32::try_from(d.as_micros()).unwrap_or(u32::MAX).max(1)
    })
}

/// Everything that can go wrong with one request, layered.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (refused, reset, closed mid-frame). After
    /// an `Io` error the connection is dead: reconnect.
    Io(io::Error),
    /// The peer sent bytes that do not decode as NTTWIRE1.
    Frame(frame::FrameError),
    /// The server answered with a typed error frame.
    Server(WireError),
    /// The response id does not match the request (protocol violation
    /// — on a lockstep connection ids must round-trip exactly).
    IdMismatch { sent: u64, got: u64 },
}

impl NetError {
    /// The protocol error code, when the failure was a server answer.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Server(e) => Some(e.code),
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Frame(e) => write!(f, "framing: {e}"),
            NetError::Server(e) => write!(f, "server: {e}"),
            NetError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not answer request id {sent}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<frame::FrameError> for NetError {
    fn from(e: frame::FrameError) -> Self {
        NetError::Frame(e)
    }
}

enum Transport {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// One blocking connection to a [`crate::NetServer`].
pub struct NetClient {
    transport: Transport,
    next_id: u64,
}

impl NetClient {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        // Same reasoning as the server side: lockstep request/response
        // must not sit out Nagle+delayed-ACK turns.
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            transport: Transport::Tcp(stream),
            next_id: 1,
        })
    }

    /// Connect over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<NetClient> {
        Ok(NetClient {
            transport: Transport::Unix(UnixStream::connect(path)?),
            next_id: 1,
        })
    }

    /// Predict one window: build a request (auto-assigned id), send,
    /// block for the answer. `deadline` is the server-side budget; it
    /// is capped at ~71 minutes by the wire's `u32` microseconds.
    pub fn predict(
        &mut self,
        model: &str,
        head: &str,
        window: &[f32],
        aux: Option<f32>,
        deadline: Option<Duration>,
    ) -> Result<f32, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            model: model.to_string(),
            head: head.to_string(),
            deadline_micros: deadline_micros(deadline),
            aux,
            window: window.to_vec(),
        };
        let resp = self.send(&req)?;
        resp.result.map_err(NetError::Server)
    }

    /// Send a fully caller-built request and return the raw response
    /// (already id-checked). The soak tests use this to pin request
    /// ids, which is what makes chaos `net.conn.drop` schedules
    /// replayable.
    pub fn send(&mut self, req: &Request) -> Result<Response, NetError> {
        let bytes = frame::encode_request(req)?;
        self.transport.write_all(&bytes)?;
        let mut prefix = [0u8; 4];
        self.transport.read_exact(&mut prefix)?;
        let len = frame::body_len(prefix)?;
        let mut body = vec![0u8; len];
        self.transport.read_exact(&mut body)?;
        match frame::decode_body(&body)? {
            Frame::Response(resp) => {
                // Id 0 on an error frame is connection-scoped: the
                // server answered before reading any request (e.g. the
                // accept-time Overloaded shed). It answers *this*
                // request's slot on a lockstep connection.
                let conn_scoped = resp.id == 0 && resp.result.is_err();
                if resp.id != req.id && !conn_scoped {
                    return Err(NetError::IdMismatch {
                        sent: req.id,
                        got: resp.id,
                    });
                }
                Ok(resp)
            }
            Frame::Request(_) => Err(NetError::Frame(frame::FrameError::BadKind(
                frame::KIND_REQUEST,
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_microsecond_deadlines_stay_deadlines_on_the_wire() {
        assert_eq!(deadline_micros(None), 0);
        assert_eq!(deadline_micros(Some(Duration::ZERO)), 1);
        assert_eq!(deadline_micros(Some(Duration::from_nanos(999))), 1);
        assert_eq!(deadline_micros(Some(Duration::from_micros(1))), 1);
        assert_eq!(
            deadline_micros(Some(Duration::from_secs(2 * 3600))),
            u32::MAX
        );
    }
}
