//! The serving front door: NTTWIRE1 frames over TCP / unix sockets,
//! routed through the [`ModelRegistry`] into per-model [`Batcher`]
//! pools.
//!
//! # Dispatch model: thread-per-connection, bounded
//!
//! The issue allowed either a poll reactor or thread-per-connection;
//! this server is **thread-per-connection with a hard connection cap**,
//! for three reasons. First, zero-deps: std gives blocking sockets and
//! threads but no `epoll` wrapper, and a hand-rolled readiness reactor
//! is a lot of unsafe-adjacent surface for no measured need at this
//! tier's scale. Second, blocking I/O keeps framing code trivially
//! sequential — each connection is a read-decode-submit-reply loop a
//! reviewer can verify at a glance, which matters for code a remote
//! peer feeds bytes to. Third, the cap makes the resource story match
//! the `Batcher`'s bounded-admission philosophy: at most
//! [`NetConfig::max_connections`] threads/sockets exist, and the
//! overflow connection gets a typed `Overloaded` response frame and a
//! close — shed, not queued. Accept and per-connection reads run with
//! short timeouts polling a shutdown flag, so teardown never hangs on
//! a silent peer.
//!
//! # Request path
//!
//! ```text
//! read frame -> decode -> registry lookup -> per-(model, head) pool
//!   -> Batcher::submit_with_deadline -> Ticket::wait -> encode reply
//! ```
//!
//! Every failure on that path maps to a stable [`ErrorCode`]: framing
//! errors answer `BadRequest` (then close, since the stream may be out
//! of sync), routing misses answer `UnknownModel`/`UnknownHead`, and
//! every [`ntt_serve::ServeError`] crosses the wire as its protocol code — the
//! in-process overload guarantees (bounded queue, typed shedding,
//! deadlines, restart budgets) surface to remote clients unchanged.
//! The per-request deadline is *relative* (microseconds of budget) and
//! starts counting when the server admits the request to a pool.
//!
//! Pools are created lazily per `(model, head)` pair and pinned to the
//! engine `Arc` resolved at creation; a registry hot-swap is picked up
//! on the next request for that model (the old pool drains in the
//! background, in-flight tickets unaffected — last-good semantics end
//! to end). Batch size follows load through the `Batcher`'s one claim
//! rule, and nothing in this crate reads a clock.

use crate::frame::{self, ErrorCode, Frame, Request, Response, WireError};
use ntt_serve::{BatchConfig, Batcher, InferenceEngine, ModelRegistry};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long an idle accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Hard cap on concurrent connections (and therefore connection
    /// threads). The overflow connection receives one `Overloaded`
    /// response frame and is closed.
    pub max_connections: usize,
    /// Template for each per-(model, head) pool; `head` is overridden
    /// per pool; a `max_batch` or `workers` of 0 fails `bind`.
    pub pool: BatchConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 256,
            pool: BatchConfig::default(),
        }
    }
}

/// A pool pinned to the engine it was created against, so a registry
/// hot-swap is detectable by `Arc` identity.
struct Pool {
    engine: Arc<InferenceEngine>,
    batcher: Arc<Batcher>,
}

struct ServerShared {
    registry: Arc<ModelRegistry>,
    cfg: NetConfig,
    shutdown: AtomicBool,
    conns: AtomicUsize,
    inflight: AtomicUsize,
    pools: Mutex<BTreeMap<(String, &'static str), Pool>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerShared {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The batcher serving `(model, head_kind)` on `engine`, created on
    /// first use. If the registry now resolves the model to a different
    /// engine than the pool was built on, the pool is rebuilt and the
    /// old one drains in the background (its in-flight tickets resolve
    /// on the old engine's own `Arc`).
    fn pool_for(
        &self,
        model: &str,
        head_kind: &'static str,
        engine: &Arc<InferenceEngine>,
    ) -> Arc<Batcher> {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        let key = (model.to_string(), head_kind);
        if let Some(pool) = pools.get(&key) {
            if Arc::ptr_eq(&pool.engine, engine) {
                return Arc::clone(&pool.batcher);
            }
        }
        let batcher = Arc::new(Batcher::new(
            Arc::clone(engine),
            BatchConfig {
                head: head_kind,
                ..self.cfg.pool.clone()
            },
        ));
        ntt_obs::counter!("net.pools_created").inc();
        let replaced = pools.insert(
            key,
            Pool {
                engine: Arc::clone(engine),
                batcher: Arc::clone(&batcher),
            },
        );
        drop(pools);
        // An old pool (hot-swap) drops outside the lock: its Drop
        // drains pending requests, which must not stall other routes.
        drop(replaced);
        batcher
    }
}

/// A live server: accept loop, connection threads, per-model pools.
/// Dropping it shuts everything down: admission stops, pools drain,
/// threads join.
pub struct NetServer {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl NetServer {
    /// Serve `registry` over TCP. Bind to port 0 for an ephemeral port
    /// (read it back with [`NetServer::tcp_addr`]).
    pub fn bind_tcp(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr()?;
        let mut server = NetServer::start(registry, cfg, listener)?;
        server.tcp_addr = Some(tcp_addr);
        Ok(server)
    }

    /// Serve `registry` over a unix-domain socket at `path` (a stale
    /// socket file from a dead process is replaced). The file is
    /// removed again on drop.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        registry: Arc<ModelRegistry>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let path = path.as_ref().to_path_buf();
        // A previous bind leaves the inode behind even after the
        // process dies; re-binding over it requires removing it.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let mut server = NetServer::start(registry, cfg, listener)?;
        server.unix_path = Some(path);
        Ok(server)
    }

    fn start<L: Acceptor>(
        registry: Arc<ModelRegistry>,
        cfg: NetConfig,
        listener: L,
    ) -> io::Result<NetServer> {
        // `Batcher::new` asserts these, and it runs on a connection
        // thread holding the `pools` lock: refuse a bad template here.
        let pool = &cfg.pool;
        for (field, value) in [("max_batch", pool.max_batch), ("workers", pool.workers)] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("NetConfig::pool.{field} must be at least 1"),
                ));
            }
        }
        let shared = Arc::new(ServerShared {
            registry,
            cfg,
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            pools: Mutex::new(BTreeMap::new()),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ntt-net-accept".into())
                .spawn(move || accept_loop(shared, listener))?
        };
        Ok(NetServer {
            shared,
            accept: Some(accept),
            tcp_addr: None,
            unix_path: None,
        })
    }

    /// The bound TCP address (present for [`NetServer::bind_tcp`]
    /// servers) — how a test or example learns its ephemeral port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Stop admitting connections and requests. Already-accepted
    /// requests drain; the blocking join happens on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let handle = self
                .shared
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // Dropping the pools drains them (Batcher's graceful drop).
        self.shared
            .pools
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The two transports, unified for the accept loop. Streams only need
/// `Read + Write` plus a read timeout (the shutdown-poll hook).
trait ConnStream: Read + Write + Send + 'static {
    fn set_read_timeout_on(&self, d: Option<Duration>) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn set_read_timeout_on(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
}

#[cfg(unix)]
impl ConnStream for UnixStream {
    fn set_read_timeout_on(&self, d: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(d)
    }
}

trait Acceptor: Send + 'static {
    type Stream: ConnStream;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

impl Acceptor for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        // Request/response framing sends small writes in lockstep;
        // Nagle+delayed-ACK would serialize them at ~40ms a turn.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> io::Result<UnixStream> {
        let (stream, _) = self.accept()?;
        Ok(stream)
    }
}

fn accept_loop<L: Acceptor>(shared: Arc<ServerShared>, listener: L) {
    while !shared.stopping() {
        // Reap finished connection threads so the handle list tracks
        // live connections, not connection history.
        {
            let mut handles = shared
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut done = Vec::new();
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    done.push(handles.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            drop(handles);
            for h in done {
                let _ = h.join();
            }
        }
        let stream = match listener.accept_stream() {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off.
                std::thread::sleep(READ_POLL);
                continue;
            }
        };
        ntt_obs::counter!("net.conn_total").inc();
        if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_connections {
            // Shed the connection itself: one typed frame, then close.
            ntt_obs::counter!("net.conn_shed").inc();
            let mut stream = stream;
            let resp = Response {
                id: 0,
                result: Err(WireError {
                    code: ErrorCode::Overloaded,
                    detail: format!(
                        "connection limit reached ({} active)",
                        shared.cfg.max_connections
                    ),
                }),
            };
            let _ = stream.write_all(&frame::encode_response(&resp));
            continue;
        }
        shared.conns.fetch_add(1, Ordering::Relaxed);
        ntt_obs::gauge!("net.conns_active").set(shared.conns.load(Ordering::Relaxed) as f64);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ntt-net-conn".into())
            .spawn(move || {
                serve_conn(&conn_shared, stream);
                conn_shared.conns.fetch_sub(1, Ordering::Relaxed);
                ntt_obs::gauge!("net.conns_active")
                    .set(conn_shared.conns.load(Ordering::Relaxed) as f64);
            });
        match spawned {
            Ok(handle) => shared
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle),
            Err(_) => {
                // Thread exhaustion: undo the count; the connection
                // closes by drop, which the client sees as an io error.
                shared.conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Read exactly `buf.len()` bytes, riding out read-timeout polls while
/// `keep_going()` holds. `Ok(false)` = clean EOF at offset 0 (the peer
/// closed between frames); mid-buffer EOF is an error. Partial reads
/// before a timeout are preserved, so polling never loses frame sync.
fn read_full<S: Read>(
    stream: &mut S,
    buf: &mut [u8],
    keep_going: impl Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if !keep_going() {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server shutting down",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve_conn<S: ConnStream>(shared: &ServerShared, mut stream: S) {
    if stream.set_read_timeout_on(Some(READ_POLL)).is_err() {
        return;
    }
    let mut prefix = [0u8; 4];
    loop {
        match read_full(&mut stream, &mut prefix, || !shared.stopping()) {
            Ok(true) => {}
            // Clean EOF, shutdown, or transport error: close quietly.
            Ok(false) | Err(_) => return,
        }
        let len = match frame::body_len(prefix) {
            Ok(len) => len,
            Err(e) => {
                // An unframeable prefix means the stream can never
                // re-sync: answer once, then close.
                respond(&mut stream, bad_request(0, &e));
                return;
            }
        };
        // Chaos site: stall mid-frame, after the prefix committed us to
        // a body read — exercises the slow-peer path.
        ntt_chaos::maybe_delay("net.read.stall");
        let mut body = vec![0u8; len];
        match read_full(&mut stream, &mut body, || !shared.stopping()) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        ntt_obs::counter!("net.bytes_in").add((4 + len) as u64);
        let req = match frame::decode_body(&body) {
            Ok(Frame::Request(req)) => req,
            Ok(Frame::Response(r)) => {
                respond(
                    &mut stream,
                    Response {
                        id: r.id,
                        result: Err(WireError {
                            code: ErrorCode::BadRequest,
                            detail: "expected a request frame, got a response".into(),
                        }),
                    },
                );
                return;
            }
            Err(e) => {
                respond(&mut stream, bad_request(0, &e));
                return;
            }
        };
        // Chaos site: seeded mid-request connection kill. Keyed by the
        // client-chosen request id, so which requests die is a pure
        // function of (seed, id) — invariant across worker counts and
        // connection interleavings.
        if ntt_chaos::should_fail_keyed("net.conn.drop", req.id) {
            ntt_obs::counter!("net.conn_dropped").inc();
            return;
        }
        let resp = handle_request(shared, req);
        if !respond(&mut stream, resp) {
            return;
        }
    }
}

fn bad_request(id: u64, e: &frame::FrameError) -> Response {
    Response {
        id,
        result: Err(WireError {
            code: ErrorCode::BadRequest,
            detail: e.to_string(),
        }),
    }
}

/// Write one response frame; false if the peer is gone.
fn respond<S: Write>(stream: &mut S, resp: Response) -> bool {
    let bytes = frame::encode_response(&resp);
    if stream.write_all(&bytes).is_err() {
        return false;
    }
    ntt_obs::counter!("net.bytes_out").add(bytes.len() as u64);
    true
}

fn handle_request(shared: &ServerShared, req: Request) -> Response {
    let _span = ntt_obs::span!("net.request_ns");
    ntt_obs::counter!("net.requests").inc();
    let n = shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    ntt_obs::gauge!("net.inflight").set(n as f64);
    let id = req.id;
    let result = route(shared, req);
    let n = shared.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
    ntt_obs::gauge!("net.inflight").set(n as f64);
    Response { id, result }
}

fn route(shared: &ServerShared, req: Request) -> Result<f32, WireError> {
    if shared.stopping() {
        return Err(WireError {
            code: ErrorCode::ShuttingDown,
            detail: "server is shutting down".into(),
        });
    }
    let engine = shared.registry.get(&req.model).ok_or_else(|| WireError {
        code: ErrorCode::UnknownModel,
        detail: format!(
            "no model {:?} (registered: {:?})",
            req.model,
            shared.registry.names()
        ),
    })?;
    // Resolve the request's head string to the engine's own 'static
    // kind: pools key on it, and a bogus head name can never intern new
    // memory — it fails here.
    let head_kind = engine
        .head(&req.head)
        .map(|h| h.kind())
        .ok_or_else(|| WireError {
            code: ErrorCode::UnknownHead,
            detail: format!(
                "model {:?} has no {:?} head (loaded: {:?})",
                req.model,
                req.head,
                engine.head_kinds()
            ),
        })?;
    let pool = shared.pool_for(&req.model, head_kind, &engine);
    let deadline =
        (req.deadline_micros > 0).then(|| Duration::from_micros(u64::from(req.deadline_micros)));
    let ticket = pool
        .submit_with_deadline(req.window, req.aux, deadline)
        .map_err(|e| WireError {
            code: ErrorCode::from_serve(&e),
            detail: e.to_string(),
        })?;
    ticket.wait().map_err(|e| WireError {
        code: ErrorCode::from_serve(&e),
        detail: e.to_string(),
    })
}
