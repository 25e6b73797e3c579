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
//! close — shed, not queued. Every thread blocks on its socket and
//! nothing polls: [`NetServer::shutdown`] wakes the accept loop with one
//! connection to the server's own address, and each connection thread
//! by ending its socket's read half. A blocked read then returns EOF,
//! while a reply already being computed still goes out on the write
//! half — so teardown never hangs on a silent peer.
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
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pause after a failed `accept` (EMFILE, ENOBUFS, ...). Such an error
/// persists until some connection closes, so retrying at once would
/// spin the accept thread on it. The serving tier's one sleep. It also
/// bounds each wake-up connect, and how long `Drop` waits for the
/// accept loop before it wakes it again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);

/// Wake-ups `Drop` sends before it gives up on an unreachable accept loop.
const WAKE_ATTEMPTS: u32 = 20;

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

/// One accepted connection, as the shutdown sweep and `Drop` see it.
struct Conn {
    /// Ends the read half of the connection's socket (through a clone
    /// of its stream), waking the thread blocked reading it.
    stop_reading: Box<dyn Fn() + Send>,
    thread: JoinHandle<()>,
}

struct ServerShared {
    registry: Arc<ModelRegistry>,
    cfg: NetConfig,
    shutdown: AtomicBool,
    conns: AtomicUsize,
    inflight: AtomicUsize,
    pools: Mutex<BTreeMap<(String, &'static str), Pool>>,
    /// Live connections: the accept loop registers each, and its thread
    /// unregisters it on the way out. The loop checks `shutdown`
    /// and registers under this lock, the one `NetServer::shutdown`
    /// sweeps under, so every connection is either swept or never
    /// served.
    open: Mutex<Vec<Conn>>,
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
    /// The accept thread, and a channel that disconnects when it exits
    /// (in a `Mutex` only to keep the server `Sync`).
    accept: Option<(JoinHandle<()>, Mutex<Receiver<()>>)>,
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
        let tcp_addr = listener.local_addr()?;
        let mut server = NetServer::start(registry, cfg, listener)?;
        server.tcp_addr = Some(tcp_addr);
        Ok(server)
    }

    /// Serve `registry` over a unix-domain socket at `path`. A stale
    /// socket file from a dead process is replaced; one a live server
    /// still accepts on fails the bind with `AddrInUse`. The file is
    /// removed again on drop.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        registry: Arc<ModelRegistry>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        // Absolute, so the shutdown wake-up and the removal on drop
        // find the socket even after the process changes directory.
        let path = std::path::absolute(path)?;
        let listener = match UnixListener::bind(&path) {
            // Replace only a file no one accepts on: unlinking a live
            // server's file leaves it unreachable, even by its shutdown.
            Err(e) if e.kind() == ErrorKind::AddrInUse && UnixStream::connect(&path).is_err() => {
                std::fs::remove_file(&path)?;
                UnixListener::bind(&path)?
            }
            bound => bound?,
        };
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
            open: Mutex::new(Vec::new()),
        });
        let (exit_tx, exited) = mpsc::channel::<()>();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ntt-net-accept".into())
                .spawn(move || {
                    let _disconnects_on_exit = exit_tx;
                    accept_loop(shared, listener)
                })?
        };
        Ok(NetServer {
            shared,
            accept: Some((accept, Mutex::new(exited))),
            tcp_addr: None,
            unix_path: None,
        })
    }

    /// The bound TCP address (present for [`NetServer::bind_tcp`]
    /// servers) — how a test or example learns its ephemeral port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Stop admitting connections and requests, and wake every blocked
    /// thread: the accept loop through one connection to the server's
    /// own address, each connection by ending its read half. A request
    /// already read still gets its reply, and then its connection
    /// closes. The blocking join happens on drop.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        self.wake_accept();
        for conn in self
            .shared
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            (conn.stop_reading)();
        }
    }

    /// Connect once to the server's own address, so a blocked `accept`
    /// returns and the loop sees the shutdown flag.
    fn wake_accept(&self) {
        let woke = match (self.tcp_addr, &self.unix_path) {
            (Some(mut addr), _) => {
                // A listener on an unspecified address is reachable
                // through loopback of the same family.
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, ACCEPT_ERROR_BACKOFF).map(drop)
            }
            #[cfg(unix)]
            (None, Some(path)) => UnixStream::connect(path).map(drop),
            _ => Ok(()),
        };
        if let Err(e) = woke {
            eprintln!("ntt-net: shutdown could not wake the accept loop: {e}");
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some((thread, exited)) = self.accept.take() {
            // The wake-up can miss (no descriptor left, socket file
            // removed): repeat it until the loop exits and drops the
            // sender, then give up rather than hang. With the flag set,
            // a loop that wakes later registers nothing.
            let exited = exited.into_inner().unwrap_or_else(|e| e.into_inner());
            for _ in 0..WAKE_ATTEMPTS {
                if exited.recv_timeout(ACCEPT_ERROR_BACKOFF) != Err(RecvTimeoutError::Timeout) {
                    let _ = thread.join();
                    break;
                }
                self.wake_accept();
            }
        }
        let open = std::mem::take(&mut *self.shared.open.lock().unwrap_or_else(|e| e.into_inner()));
        for conn in open {
            let _ = conn.thread.join();
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

/// The two transports, unified for the accept loop: a stream, a clone
/// of it for the shutdown sweep, and the half-close that sweep uses.
trait ConnStream: Read + Write + Send + Sized + 'static {
    fn try_clone(&self) -> io::Result<Self>;
    fn shutdown(&self, how: Shutdown) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        TcpStream::shutdown(self, how)
    }
}

#[cfg(unix)]
impl ConnStream for UnixStream {
    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        UnixStream::shutdown(self, how)
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
    loop {
        let stream = match listener.accept_stream() {
            Ok(s) => s,
            Err(_) if shared.stopping() => return,
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let mut open = shared.open.lock().unwrap_or_else(|e| e.into_inner());
        if shared.stopping() {
            return; // this is most likely `shutdown`'s wake-up
        }
        ntt_obs::counter!("net.conn_total").inc();
        if shared.conns.load(Ordering::Relaxed) >= shared.cfg.max_connections {
            drop(open);
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
        let Ok(clone) = stream.try_clone() else {
            continue; // no descriptor left: the connection closes by drop
        };
        shared.conns.fetch_add(1, Ordering::Relaxed);
        ntt_obs::gauge!("net.conns_active").set(shared.conns.load(Ordering::Relaxed) as f64);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ntt-net-conn".into())
            .spawn(move || {
                let mut stream = stream;
                serve_conn(&conn_shared, &mut stream);
                conn_shared.conns.fetch_sub(1, Ordering::Relaxed);
                ntt_obs::gauge!("net.conns_active")
                    .set(conn_shared.conns.load(Ordering::Relaxed) as f64);
                // Unregister, dropping the sweep's clone, so a finished
                // connection holds no descriptor. The accept loop
                // registers it before releasing the lock taken here.
                let me = std::thread::current().id();
                conn_shared
                    .open
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|c| c.thread.thread().id() != me);
            });
        match spawned {
            Ok(thread) => open.push(Conn {
                stop_reading: Box::new(move || {
                    let _ = clone.shutdown(Shutdown::Read);
                }),
                thread,
            }),
            Err(_) => {
                // Thread exhaustion: undo the count; the connection
                // closes by drop, which the client sees as an io error.
                shared.conns.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

fn serve_conn<S: Read + Write>(shared: &ServerShared, stream: &mut S) {
    let mut prefix = [0u8; 4];
    loop {
        // After shutdown a connection starts no new request: bytes that
        // reach a socket after `shutdown(Read)` are still readable.
        if shared.stopping() {
            return;
        }
        // EOF (the peer hung up, or shutdown ended the read half) or a
        // transport error, between frames or inside one: close quietly.
        if stream.read_exact(&mut prefix).is_err() {
            return;
        }
        let len = match frame::body_len(prefix) {
            Ok(len) => len,
            Err(e) => {
                // An unframeable prefix means the stream can never
                // re-sync: answer once, then close.
                respond(stream, bad_request(0, &e));
                return;
            }
        };
        // Chaos site: stall mid-frame, after the prefix committed us to
        // a body read — exercises the slow-peer path.
        ntt_chaos::maybe_delay("net.read.stall");
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        ntt_obs::counter!("net.bytes_in").add((4 + len) as u64);
        let req = match frame::decode_body(&body) {
            Ok(Frame::Request(req)) => req,
            Ok(Frame::Response(r)) => {
                respond(
                    stream,
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
                respond(stream, bad_request(0, &e));
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
        if !respond(stream, resp) {
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
