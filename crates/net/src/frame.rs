//! The `NTTWIRE1` frame codec: pure functions over byte slices.
//!
//! Everything on the wire is a *frame*: a little-endian `u32` body
//! length followed by that many body bytes. The codec here never does
//! I/O — [`encode_request`]/[`encode_response`] produce complete frames
//! as `Vec<u8>`, [`body_len`] validates a length prefix, and
//! [`decode_body`] parses a body slice — so framing is proptestable
//! without sockets, and the server/client transport loops stay trivial.
//!
//! # Body layout (little-endian)
//!
//! | field            | size         | notes                              |
//! |------------------|--------------|------------------------------------|
//! | magic            | 8            | `"NTTWIRE1"` — protocol + version  |
//! | kind             | 1            | 1 = request, 2 = response          |
//! | request id       | 8 (`u64`)    | echoed verbatim in the response    |
//! | **request only** |              |                                    |
//! | deadline         | 4 (`u32`)    | relative budget in µs, 0 = none    |
//! | model name       | 2 + n        | `u16` length + UTF-8 bytes         |
//! | head kind        | 2 + n        | `u16` length + UTF-8 bytes         |
//! | aux flag         | 1 (+4)       | 1 = an `f32` aux scalar follows    |
//! | window           | 4 + 4·n      | `u32` f32 count + raw f32 bits     |
//! | **response only**|              |                                    |
//! | code             | 2 (`u16`)    | 0 = ok, else [`ErrorCode`]         |
//! | value            | 4 (`f32`)    | prediction (ok responses only)     |
//! | detail           | 2 + n        | error text (error responses only)  |
//!
//! # Hostile-input discipline
//!
//! Every length field an attacker controls is validated *before* any
//! allocation it would size: the frame prefix against [`MAX_BODY`],
//! name lengths against [`MAX_NAME`], the window count against
//! [`MAX_WINDOW`] *and* against the bytes actually present. Decoding
//! truncated, mangled, or oversized input returns a typed
//! [`FrameError`]; it never panics and never allocates more than the
//! input's own size. A body must also be consumed exactly — trailing
//! bytes are an error, so a frame has one unique encoding.

use ntt_serve::ServeError;
use std::error::Error;
use std::fmt;

/// Protocol magic: name + wire version, first bytes of every body.
pub const MAGIC: [u8; 8] = *b"NTTWIRE1";
/// Body kind tag for requests.
pub const KIND_REQUEST: u8 = 1;
/// Body kind tag for responses.
pub const KIND_RESPONSE: u8 = 2;
/// Longest model or head name accepted, in UTF-8 bytes.
pub const MAX_NAME: usize = 256;
/// Longest window accepted, in `f32` values (4 MiB of payload).
pub const MAX_WINDOW: usize = 1 << 20;
/// Largest body a frame may declare: the worst-case request (fixed
/// fields + two maximal names + a maximal window). Anything larger is
/// rejected from the 4-byte prefix alone, before any buffer exists.
pub const MAX_BODY: usize = 34 + 2 * MAX_NAME + 4 * MAX_WINDOW;

/// One inference request as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Registry name of the model to route to.
    pub model: String,
    /// Head kind on that model (e.g. `"delay"`, `"mct"`).
    pub head: String,
    /// Relative deadline budget in microseconds (`0` = none). Relative,
    /// not absolute: client and server clocks are never compared.
    pub deadline_micros: u32,
    /// Aux scalar for heads that need one.
    pub aux: Option<f32>,
    /// Featurized window, `seq_len * NUM_FEATURES` values.
    pub window: Vec<f32>,
}

/// One response as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// The prediction, or a typed protocol error.
    pub result: Result<f32, WireError>,
}

/// A decoded body: exactly one of the two frame kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Request(Request),
    Response(Response),
}

/// An error response: a stable numeric code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: ErrorCode,
    pub detail: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} (code {}): {}",
            self.code,
            self.code.as_u16(),
            self.detail
        )
    }
}

impl Error for WireError {}

/// Stable wire error codes. Numeric values are part of the protocol:
/// they never change for a shipped code, and a client built against an
/// older table still gets a usable [`ErrorCode::Unrecognized`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission queue full; back off and retry ([`ServeError::Overloaded`]).
    Overloaded,
    /// Deadline passed before service ([`ServeError::DeadlineExceeded`]).
    DeadlineExceeded,
    /// The request's batch panicked ([`ServeError::WorkerDied`]).
    WorkerDied,
    /// Server or pool is draining ([`ServeError::ShuttingDown`]).
    ShuttingDown,
    /// Window has the wrong number of features ([`ServeError::WindowLength`]).
    WindowLength,
    /// Aux scalar present/absent against the head's need ([`ServeError::AuxMismatch`]).
    AuxMismatch,
    /// The pool died terminally ([`ServeError::Poisoned`]).
    Poisoned,
    /// No model registered under the requested name.
    UnknownModel,
    /// The model has no head of the requested kind.
    UnknownHead,
    /// The request frame did not decode.
    BadRequest,
    /// A code this build's table does not know (newer peer).
    Unrecognized(u16),
}

impl ErrorCode {
    /// The stable numeric value written on the wire.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::WorkerDied => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::WindowLength => 5,
            ErrorCode::AuxMismatch => 6,
            ErrorCode::Poisoned => 7,
            ErrorCode::UnknownModel => 8,
            ErrorCode::UnknownHead => 9,
            ErrorCode::BadRequest => 10,
            ErrorCode::Unrecognized(v) => v,
        }
    }

    /// Decode a wire value (total: unknown values round-trip through
    /// [`ErrorCode::Unrecognized`] instead of failing the frame).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::WorkerDied,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::WindowLength,
            6 => ErrorCode::AuxMismatch,
            7 => ErrorCode::Poisoned,
            8 => ErrorCode::UnknownModel,
            9 => ErrorCode::UnknownHead,
            10 => ErrorCode::BadRequest,
            other => ErrorCode::Unrecognized(other),
        }
    }

    /// Map an in-process serving error to its protocol code — every
    /// [`ServeError`] variant has one, so the in-process overload-safety
    /// guarantees surface unchanged as protocol semantics.
    pub fn from_serve(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::WorkerDied => ErrorCode::WorkerDied,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::WindowLength { .. } => ErrorCode::WindowLength,
            ServeError::AuxMismatch { .. } => ErrorCode::AuxMismatch,
            ServeError::Poisoned => ErrorCode::Poisoned,
        }
    }
}

/// Why a frame failed to decode (or a value refused to encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body ended before its fields did.
    Truncated,
    /// The length prefix declares more than [`MAX_BODY`] bytes.
    Oversized { len: u64, max: usize },
    /// The first 8 body bytes are not `"NTTWIRE1"`.
    BadMagic,
    /// The kind tag is neither request nor response.
    BadKind(u8),
    /// A model/head name exceeds [`MAX_NAME`] bytes.
    NameTooLong { got: usize, max: usize },
    /// The window declares more than [`MAX_WINDOW`] values.
    WindowTooLong { got: usize, max: usize },
    /// A name field is not valid UTF-8.
    BadUtf8,
    /// The body decoded but had bytes left over.
    TrailingBytes { extra: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame declares {len} bytes, limit is {max}")
            }
            FrameError::BadMagic => write!(f, "bad magic: not an NTTWIRE1 frame"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::NameTooLong { got, max } => {
                write!(f, "name is {got} bytes, limit is {max}")
            }
            FrameError::WindowTooLong { got, max } => {
                write!(f, "window declares {got} values, limit is {max}")
            }
            FrameError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the frame body")
            }
        }
    }
}

impl Error for FrameError {}

/// Validate a 4-byte length prefix. The returned length is safe to
/// allocate: it is bounded by [`MAX_BODY`], so a hostile prefix of
/// `0xFFFF_FFFF` is rejected before any buffer exists.
pub fn body_len(prefix: [u8; 4]) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Oversized {
            len: len as u64,
            max: MAX_BODY,
        });
    }
    if len < MAGIC.len() + 1 {
        // Too short to even hold magic + kind.
        return Err(FrameError::Truncated);
    }
    Ok(len)
}

fn push_name(out: &mut Vec<u8>, name: &str) -> Result<(), FrameError> {
    if name.len() > MAX_NAME {
        return Err(FrameError::NameTooLong {
            got: name.len(),
            max: MAX_NAME,
        });
    }
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

/// Encode a complete request frame (length prefix + body). Rejects
/// names/windows over the protocol limits with the same typed errors
/// decoding would raise, so a compliant client cannot emit a frame a
/// compliant server refuses.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, FrameError> {
    if req.window.len() > MAX_WINDOW {
        return Err(FrameError::WindowTooLong {
            got: req.window.len(),
            max: MAX_WINDOW,
        });
    }
    let mut body = Vec::with_capacity(34 + req.model.len() + req.head.len() + 4 * req.window.len());
    body.extend_from_slice(&MAGIC);
    body.push(KIND_REQUEST);
    body.extend_from_slice(&req.id.to_le_bytes());
    body.extend_from_slice(&req.deadline_micros.to_le_bytes());
    push_name(&mut body, &req.model)?;
    push_name(&mut body, &req.head)?;
    match req.aux {
        Some(a) => {
            body.push(1);
            body.extend_from_slice(&a.to_le_bytes());
        }
        None => body.push(0),
    }
    body.extend_from_slice(&(req.window.len() as u32).to_le_bytes());
    for v in &req.window {
        body.extend_from_slice(&v.to_le_bytes());
    }
    Ok(finish(body))
}

/// Encode a complete response frame (length prefix + body). Error
/// detail longer than [`MAX_NAME`] bytes is truncated at a char
/// boundary rather than rejected — the detail is advisory, the code is
/// the contract.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(&MAGIC);
    body.push(KIND_RESPONSE);
    body.extend_from_slice(&resp.id.to_le_bytes());
    match &resp.result {
        Ok(v) => {
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        Err(e) => {
            body.extend_from_slice(&e.code.as_u16().to_le_bytes());
            let mut detail = e.detail.as_str();
            while detail.len() > MAX_NAME {
                let mut cut = MAX_NAME;
                while !detail.is_char_boundary(cut) {
                    cut -= 1;
                }
                detail = &detail[..cut];
            }
            body.extend_from_slice(&(detail.len() as u16).to_le_bytes());
            body.extend_from_slice(detail.as_bytes());
        }
    }
    finish(body)
}

fn finish(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Bounds-checked cursor over a body slice: every read is validated
/// against the bytes actually present, so no field length an attacker
/// writes can cause a read past the buffer or an oversized allocation.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.rest.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        // PANIC-OK: take(2) returned exactly 2 bytes.
        let bytes: [u8; 2] = self.take(2)?.try_into().expect("2 bytes");
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        // PANIC-OK: take(4) returned exactly 4 bytes.
        let bytes: [u8; 4] = self.take(4)?.try_into().expect("4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        // PANIC-OK: take(8) returned exactly 8 bytes.
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn name(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        if len > MAX_NAME {
            return Err(FrameError::NameTooLong {
                got: len,
                max: MAX_NAME,
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }
}

/// Decode one frame body (the bytes after the length prefix). Total
/// over arbitrary input: returns a typed [`FrameError`] on anything
/// malformed, never panics, and requires the body to be consumed
/// exactly.
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = Cursor { rest: body };
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = cur.u8()?;
    let id = cur.u64()?;
    let frame = match kind {
        KIND_REQUEST => {
            let deadline_micros = cur.u32()?;
            let model = cur.name()?;
            let head = cur.name()?;
            let aux = match cur.u8()? {
                0 => None,
                _ => Some(cur.f32()?),
            };
            let count = cur.u32()? as usize;
            if count > MAX_WINDOW {
                return Err(FrameError::WindowTooLong {
                    got: count,
                    max: MAX_WINDOW,
                });
            }
            // The count must match the bytes actually present before
            // the window buffer is sized from it.
            let raw = cur.take(count * 4)?;
            let mut window = Vec::with_capacity(count);
            for chunk in raw.chunks_exact(4) {
                // PANIC-OK: chunks_exact(4) yields exactly 4 bytes.
                window.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
            }
            Frame::Request(Request {
                id,
                model,
                head,
                deadline_micros,
                aux,
                window,
            })
        }
        KIND_RESPONSE => {
            let code = cur.u16()?;
            let result = if code == 0 {
                Ok(cur.f32()?)
            } else {
                let len = cur.u16()? as usize;
                if len > MAX_NAME {
                    return Err(FrameError::NameTooLong {
                        got: len,
                        max: MAX_NAME,
                    });
                }
                let bytes = cur.take(len)?;
                let detail = String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)?;
                Err(WireError {
                    code: ErrorCode::from_u16(code),
                    detail,
                })
            };
            Frame::Response(Response { id, result })
        }
        other => return Err(FrameError::BadKind(other)),
    };
    if !cur.rest.is_empty() {
        return Err(FrameError::TrailingBytes {
            extra: cur.rest.len(),
        });
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request {
            id: 7,
            model: "pretrained".into(),
            head: "delay".into(),
            deadline_micros: 2_000,
            aux: Some(0.25),
            window: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
        }
    }

    #[test]
    fn request_roundtrip_is_exact() {
        let r = req();
        let frame = encode_request(&r).unwrap();
        let len = body_len(frame[..4].try_into().unwrap()).unwrap();
        assert_eq!(len, frame.len() - 4);
        assert_eq!(decode_body(&frame[4..]).unwrap(), Frame::Request(r));
    }

    #[test]
    fn response_roundtrip_ok_and_error() {
        for resp in [
            Response {
                id: 1,
                result: Ok(3.5),
            },
            Response {
                id: u64::MAX,
                result: Err(WireError {
                    code: ErrorCode::Overloaded,
                    detail: "queue full".into(),
                }),
            },
        ] {
            let frame = encode_response(&resp);
            let len = body_len(frame[..4].try_into().unwrap()).unwrap();
            assert_eq!(len, frame.len() - 4);
            assert_eq!(decode_body(&frame[4..]).unwrap(), Frame::Response(resp));
        }
    }

    #[test]
    fn error_codes_are_stable_and_total() {
        // The numeric table is protocol: these exact values, forever.
        assert_eq!(ErrorCode::Overloaded.as_u16(), 1);
        assert_eq!(ErrorCode::DeadlineExceeded.as_u16(), 2);
        assert_eq!(ErrorCode::WorkerDied.as_u16(), 3);
        assert_eq!(ErrorCode::ShuttingDown.as_u16(), 4);
        assert_eq!(ErrorCode::WindowLength.as_u16(), 5);
        assert_eq!(ErrorCode::AuxMismatch.as_u16(), 6);
        assert_eq!(ErrorCode::Poisoned.as_u16(), 7);
        assert_eq!(ErrorCode::UnknownModel.as_u16(), 8);
        assert_eq!(ErrorCode::UnknownHead.as_u16(), 9);
        assert_eq!(ErrorCode::BadRequest.as_u16(), 10);
        for v in 0..64u16 {
            assert_eq!(ErrorCode::from_u16(v).as_u16(), v, "round-trip for {v}");
        }
        // Every ServeError variant maps to a code.
        for (e, code) in [
            (ServeError::Overloaded { cap: 4 }, ErrorCode::Overloaded),
            (ServeError::DeadlineExceeded, ErrorCode::DeadlineExceeded),
            (ServeError::WorkerDied, ErrorCode::WorkerDied),
            (ServeError::ShuttingDown, ErrorCode::ShuttingDown),
            (
                ServeError::WindowLength { got: 1, want: 2 },
                ErrorCode::WindowLength,
            ),
            (
                ServeError::AuxMismatch {
                    head: "mct",
                    needs_aux: true,
                },
                ErrorCode::AuxMismatch,
            ),
            (ServeError::Poisoned, ErrorCode::Poisoned),
        ] {
            assert_eq!(ErrorCode::from_serve(&e), code);
        }
    }

    #[test]
    fn hostile_prefix_rejected_before_allocation() {
        assert_eq!(
            body_len([0xff, 0xff, 0xff, 0xff]),
            Err(FrameError::Oversized {
                len: u32::MAX as u64,
                max: MAX_BODY
            })
        );
        assert_eq!(body_len([0, 0, 0, 0]), Err(FrameError::Truncated));
        assert!(body_len(((MAX_BODY as u32) + 1).to_le_bytes()).is_err());
        assert!(body_len(64u32.to_le_bytes()).is_ok());
    }

    #[test]
    fn malformed_bodies_return_typed_errors() {
        let good = encode_request(&req()).unwrap();
        let body = &good[4..];
        // Bad magic.
        let mut b = body.to_vec();
        b[0] ^= 0x20;
        assert_eq!(decode_body(&b), Err(FrameError::BadMagic));
        // Bad kind.
        let mut b = body.to_vec();
        b[8] = 9;
        assert_eq!(decode_body(&b), Err(FrameError::BadKind(9)));
        // Window count larger than the bytes present.
        let mut b = body.to_vec();
        let count_off = b.len() - 4 * 4 - 4;
        b[count_off..count_off + 4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(decode_body(&b), Err(FrameError::Truncated));
        // Window count over the protocol limit.
        b[count_off..count_off + 4].copy_from_slice(&(MAX_WINDOW as u32 + 1).to_le_bytes());
        assert_eq!(
            decode_body(&b),
            Err(FrameError::WindowTooLong {
                got: MAX_WINDOW + 1,
                max: MAX_WINDOW
            })
        );
        // Trailing garbage.
        let mut b = body.to_vec();
        b.push(0);
        assert_eq!(decode_body(&b), Err(FrameError::TrailingBytes { extra: 1 }));
        // Every truncation fails, never panics.
        for cut in 0..body.len() {
            assert!(decode_body(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Non-UTF-8 model name.
        let mut b = body.to_vec();
        b[23] = 0xff; // first model byte (8 magic + 1 kind + 8 id + 4 deadline + 2 len)
        assert_eq!(decode_body(&b), Err(FrameError::BadUtf8));
    }

    #[test]
    fn long_error_detail_is_truncated_not_rejected() {
        let resp = Response {
            id: 3,
            result: Err(WireError {
                code: ErrorCode::BadRequest,
                detail: "x".repeat(MAX_NAME * 3),
            }),
        };
        let frame = encode_response(&resp);
        match decode_body(&frame[4..]).unwrap() {
            Frame::Response(r) => {
                let err = r.result.unwrap_err();
                assert_eq!(err.code, ErrorCode::BadRequest);
                assert_eq!(err.detail.len(), MAX_NAME);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
}
