//! Socket serving: [`ShardServer`] (the per-shard accept loop wrapping
//! a [`CubeService`]) and [`RemoteShardBackend`] (the router-side
//! client), speaking the [`wire`](crate::wire) protocol over TCP.
//!
//! The server is deliberately boring: a blocking accept loop with a
//! **bounded** connection pool (past the cap, a typed `Overloaded`
//! frame is written and the connection dropped — load shedding at the
//! door), one handler thread per admitted connection, and every answer
//! produced by the existing hardened [`CubeService::query_with_options`]
//! path — the socket adds transport, not new query semantics.
//!
//! The client carries the resilience contract across the process
//! boundary:
//!
//! * **deadlines** become socket read/write timeouts (the remaining
//!   budget is also shipped in the request frame so the server stops
//!   working on an expired query);
//! * **breaker integration** — a per-endpoint circuit breaker trips on
//!   connect/reset failures and fails fast with `Degraded` while open.
//!   Socket *timeouts* resolve probes without counting as failures
//!   ([`RelationBreakers::record_timeout`]): a slow shard is not a dead
//!   shard;
//! * **reconnect with backoff** — pooled connections that die are
//!   redialed (counted in [`WireCounters`]), and
//!   [`RemoteShardBackend::redirect`] points the backend at a respawned
//!   server without rebuilding the router.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cure_core::NodeId;
use cure_query::{iceberg_filter_merged, CubeRow, ReadPath};
use parking_lot::Mutex;

use crate::backend::{ShardBackend, WireCounters, WireTotals};
use crate::metrics::{ServeErrorKind, ServeMetrics};
use crate::resilience::{RelationBreakers, ResilienceConfig};
use crate::service::{CubeService, QueryOptions, ServeError};
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ReadFrameError, RemoteError, Request, Response,
};

/// Tunables for [`ShardServer`].
#[derive(Debug, Clone, Copy)]
pub struct ShardServerConfig {
    /// Connections served concurrently; past this, new connections get
    /// a typed `Overloaded` frame and are dropped.
    pub max_connections: usize,
    /// How often idle handler threads wake to check the stop flag.
    pub idle_poll: Duration,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig { max_connections: 32, idle_poll: Duration::from_millis(100) }
    }
}

/// A running shard server: one listener thread, one handler thread per
/// admitted connection, all answers produced by the wrapped
/// [`CubeService`].
pub struct ShardServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ShardServer {
    /// Bind `listen` (e.g. `"127.0.0.1:0"`) and start serving `shard`'s
    /// sub-cube through `service`.
    pub fn spawn(
        service: CubeService,
        shard: u32,
        listen: &str,
        cfg: ShardServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let conn_ids = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if active.load(Ordering::Relaxed) >= cfg.max_connections {
                                // Bounded pool: shed at the door, typed.
                                let mut s = stream;
                                let frame =
                                    encode_response(&Response::Error(RemoteError::Overloaded));
                                let _ = write_frame(&mut s, &frame);
                                continue;
                            }
                            let id = conn_ids.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                conns.lock().insert(id, clone);
                            }
                            active.fetch_add(1, Ordering::Relaxed);
                            let service = service.clone();
                            let stop = Arc::clone(&stop);
                            let conns = Arc::clone(&conns);
                            let active = Arc::clone(&active);
                            thread::spawn(move || {
                                handle_connection(stream, &service, shard, &stop, cfg.idle_poll);
                                conns.lock().remove(&id);
                                active.fetch_sub(1, Ordering::Relaxed);
                            });
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(ShardServer { addr, stop, conns, accept_thread: Some(accept_thread) })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hard-stop: shut every live connection down mid-stream without
    /// any goodbye frame. From a client's point of view this is
    /// indistinguishable from the process being SIGKILLed, which is
    /// exactly what the in-process fallback of the conformance engine
    /// uses it for.
    pub fn abort(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for (_, s) in self.conns.lock().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Graceful stop: stop accepting, wake idle handlers, join the
    /// accept loop.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for (_, s) in self.conns.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Serve one connection until EOF, a fatal transport error, or stop.
fn handle_connection(
    mut stream: TcpStream,
    service: &CubeService,
    shard: u32,
    stop: &AtomicBool,
    idle_poll: Duration,
) {
    if stream.set_read_timeout(Some(idle_poll)).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let (frame_tag, payload) = match read_frame(&mut stream) {
            Ok(pair) => pair,
            Err(ReadFrameError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                continue; // idle poll tick — re-check the stop flag
            }
            Err(ReadFrameError::Io(_)) => return, // EOF / reset
            Err(ReadFrameError::Protocol(p)) => {
                // Typed protocol error, then close: after a malformed
                // frame the stream offset can no longer be trusted.
                service.metrics().record_error_kind(ServeErrorKind::Protocol);
                let resp = Response::Error(RemoteError::Upstream {
                    kind: ServeErrorKind::Protocol,
                    detail: p.to_string(),
                });
                let _ = write_frame(&mut stream, &encode_response(&resp));
                return;
            }
        };
        let resp = match decode_request(frame_tag, &payload) {
            Err(p) => {
                service.metrics().record_error_kind(ServeErrorKind::Protocol);
                let resp = Response::Error(RemoteError::Upstream {
                    kind: ServeErrorKind::Protocol,
                    detail: p.to_string(),
                });
                let _ = write_frame(&mut stream, &encode_response(&resp));
                return;
            }
            Ok(Request::Hello) => Response::HelloAck {
                shard,
                num_nodes: service.num_nodes(),
                mmap: service.read_path() == ReadPath::Mmap,
            },
            Ok(Request::Node { node, deadline_ms }) => {
                match service.query_with_options(node, &budget_opts(deadline_ms)) {
                    Ok(reply) => Response::Rows(reply.rows),
                    Err(e) => Response::Error(RemoteError::from_serve_error(&e)),
                }
            }
            Ok(Request::Iceberg { node, min_count, count_measure, deadline_ms }) => {
                if min_count < 1 {
                    Response::Error(RemoteError::Upstream {
                        kind: ServeErrorKind::Other,
                        detail: "iceberg threshold must be ≥ 1".into(),
                    })
                } else {
                    match service.query_with_options(node, &budget_opts(deadline_ms)) {
                        Ok(reply) => Response::Rows(iceberg_filter_merged(
                            reply.rows,
                            min_count,
                            count_measure as usize,
                        )),
                        Err(e) => Response::Error(RemoteError::from_serve_error(&e)),
                    }
                }
            }
        };
        if write_frame(&mut stream, &encode_response(&resp)).is_err() {
            return;
        }
    }
}

fn budget_opts(deadline_ms: u32) -> QueryOptions {
    if deadline_ms == 0 {
        QueryOptions::default()
    } else {
        QueryOptions::with_budget(Duration::from_millis(u64::from(deadline_ms)))
    }
}

/// Tunables for [`RemoteShardBackend`].
#[derive(Debug, Clone, Copy)]
pub struct RemoteShardConfig {
    /// Socket read/write timeout for requests without a deadline.
    pub io_timeout: Duration,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Dial attempts during [`RemoteShardBackend::connect`] (covers the
    /// race against a child server that is still binding its port).
    pub connect_attempts: u32,
    /// Sleep between failed dial attempts.
    pub reconnect_backoff: Duration,
    /// Breaker tuning for the per-endpoint transport breaker.
    pub resilience: ResilienceConfig,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            io_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(500),
            connect_attempts: 40,
            reconnect_backoff: Duration::from_millis(25),
            resilience: ResilienceConfig::default(),
        }
    }
}

struct RemoteInner {
    endpoint: Mutex<String>,
    shard: u32,
    num_nodes: NodeId,
    pool: Mutex<Vec<TcpStream>>,
    counters: WireCounters,
    metrics: Arc<ServeMetrics>,
    breakers: RelationBreakers,
    ever_connected: AtomicBool,
    cfg: RemoteShardConfig,
}

/// A socket client for one shard server, implementing [`ShardBackend`]
/// so the router treats it exactly like an in-process replica.
#[derive(Clone)]
pub struct RemoteShardBackend {
    inner: Arc<RemoteInner>,
}

impl RemoteShardBackend {
    /// Dial `endpoint` (`"host:port"`) and perform the handshake. Dials
    /// are retried with backoff up to `cfg.connect_attempts` times, so
    /// connecting races cleanly against a child server still binding.
    pub fn connect(endpoint: &str, cfg: RemoteShardConfig) -> Result<Self, ServeError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..cfg.connect_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(cfg.reconnect_backoff);
            }
            let mut stream = match dial(endpoint, &cfg) {
                Ok(s) => s,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            let hello = encode_request(&Request::Hello);
            if write_frame(&mut stream, &hello).is_err() {
                continue;
            }
            match read_frame(&mut stream) {
                Ok((t, p)) => match decode_response(t, &p) {
                    Ok(Response::HelloAck { shard, num_nodes, .. }) => {
                        let inner = RemoteInner {
                            endpoint: Mutex::new(endpoint.to_string()),
                            shard,
                            num_nodes,
                            pool: Mutex::new(vec![stream]),
                            counters: WireCounters::new(),
                            metrics: Arc::new(ServeMetrics::new()),
                            breakers: RelationBreakers::new(cfg.resilience),
                            ever_connected: AtomicBool::new(true),
                            cfg,
                        };
                        return Ok(RemoteShardBackend { inner: Arc::new(inner) });
                    }
                    Ok(other) => {
                        return Err(ServeError::Protocol {
                            detail: format!("handshake answered with {other:?}"),
                        })
                    }
                    Err(p) => return Err(p.into()),
                },
                Err(ReadFrameError::Protocol(p)) => return Err(p.into()),
                Err(ReadFrameError::Io(e)) => {
                    last = Some(e);
                    continue;
                }
            }
        }
        Err(ServeError::Unavailable {
            endpoint: format!(
                "{endpoint} ({})",
                last.map_or_else(|| "no attempt".to_string(), |e| e.to_string())
            ),
        })
    }

    /// The shard index the server reported at handshake.
    pub fn shard(&self) -> u32 {
        self.inner.shard
    }

    /// The endpoint currently dialed.
    pub fn endpoint(&self) -> String {
        self.inner.endpoint.lock().clone()
    }

    /// Point this backend at a new endpoint (a respawned server) and
    /// drop every pooled connection to the old one.
    pub fn redirect(&self, new_endpoint: &str) {
        let mut ep = self.inner.endpoint.lock();
        *ep = new_endpoint.to_string();
        drop(ep);
        self.inner.pool.lock().clear();
        self.inner.counters.add_reconnect();
    }

    fn breaker_key(&self) -> String {
        format!("shard{}@{}", self.inner.shard, self.inner.endpoint.lock())
    }

    /// Take a pooled connection or dial a fresh one.
    fn checkout(&self) -> Result<(TcpStream, bool), std::io::Error> {
        if let Some(s) = self.inner.pool.lock().pop() {
            return Ok((s, true));
        }
        let endpoint = self.inner.endpoint.lock().clone();
        match dial(&endpoint, &self.inner.cfg) {
            Ok(s) => {
                if self.inner.ever_connected.swap(true, Ordering::Relaxed) {
                    self.inner.counters.add_reconnect();
                }
                Ok((s, false))
            }
            Err(e) => Err(e),
        }
    }

    fn checkin(&self, s: TcpStream) {
        self.inner.pool.lock().push(s);
    }

    /// One request/response exchange with transport-level resilience:
    /// breaker admission, socket timeouts from the remaining deadline,
    /// and one redial retry when a *pooled* (possibly stale) connection
    /// fails mid-exchange.
    fn exchange(
        &self,
        req: &Request,
        deadline: Option<Instant>,
        node: NodeId,
    ) -> Result<Vec<CubeRow>, ServeError> {
        let key = self.breaker_key();
        if !self.inner.breakers.admit(&key) {
            return Err(ServeError::Degraded { relation: key });
        }
        let frame = encode_request(req);
        let mut attempt = 0u32;
        loop {
            let (stream, pooled) = match self.checkout() {
                Ok(pair) => pair,
                Err(e) => {
                    self.inner.breakers.record_io_failure(&key);
                    return Err(ServeError::Unavailable {
                        endpoint: format!("{} ({e})", self.endpoint()),
                    });
                }
            };
            match self.try_exchange(stream, &frame, deadline, node, &key) {
                Ok(rows) => return Ok(rows),
                Err(Retry::Fatal(e)) => return Err(e),
                Err(Retry::Transport(e)) => {
                    // A pooled connection may simply have been closed by
                    // the server between requests: redial once. A fresh
                    // connection failing is real.
                    attempt += 1;
                    if pooled && attempt == 1 {
                        continue;
                    }
                    self.inner.breakers.record_io_failure(&key);
                    return Err(ServeError::Unavailable {
                        endpoint: format!("{} ({e})", self.endpoint()),
                    });
                }
            }
        }
    }

    fn try_exchange(
        &self,
        mut stream: TcpStream,
        frame: &[u8],
        deadline: Option<Instant>,
        node: NodeId,
        key: &str,
    ) -> Result<Vec<CubeRow>, Retry> {
        let io_timeout = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    self.inner.breakers.record_timeout(key);
                    return Err(Retry::Fatal(ServeError::Timeout { node }));
                }
                d.duration_since(now).max(Duration::from_millis(1))
            }
            None => self.inner.cfg.io_timeout,
        };
        if stream.set_read_timeout(Some(io_timeout)).is_err()
            || stream.set_write_timeout(Some(io_timeout)).is_err()
        {
            return Err(Retry::Transport(std::io::Error::from(ErrorKind::Other)));
        }
        if let Err(e) = write_frame(&mut stream, frame) {
            return Err(Retry::Transport(e));
        }
        self.inner.counters.add_bytes_out(frame.len() as u64);
        match read_frame(&mut stream) {
            Ok((t, payload)) => {
                self.inner.counters.add_bytes_in(10 + payload.len() as u64);
                match decode_response(t, &payload) {
                    Ok(Response::Rows(rows)) => {
                        self.inner.breakers.record_success(key);
                        self.checkin(stream);
                        Ok(rows)
                    }
                    Ok(Response::Error(remote)) => {
                        // The transport worked; the failure is the
                        // server's. Typed server errors must not trip
                        // the *transport* breaker.
                        self.inner.breakers.record_success(key);
                        self.checkin(stream);
                        Err(Retry::Fatal(remote.into_serve_error()))
                    }
                    Ok(other) => Err(Retry::Fatal(ServeError::Protocol {
                        detail: format!("unexpected response {other:?}"),
                    })),
                    Err(p) => Err(Retry::Fatal(p.into())),
                }
            }
            Err(ReadFrameError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                // Slow, not dead: counts as a wire timeout, resolves a
                // breaker probe, and the connection (which may still
                // deliver a late response) is discarded.
                self.inner.counters.add_timeout();
                self.inner.breakers.record_timeout(key);
                Err(Retry::Fatal(ServeError::Timeout { node }))
            }
            Err(ReadFrameError::Io(e)) => Err(Retry::Transport(e)),
            Err(ReadFrameError::Protocol(p)) => Err(Retry::Fatal(p.into())),
        }
    }

    fn deadline_ms(opts: &QueryOptions) -> u32 {
        match opts.deadline {
            None => 0,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                // Ship at least 1 ms so "deadline present" survives the
                // encoding; the local socket timeout enforces the rest.
                (remaining.as_millis().min(u128::from(u32::MAX)) as u32).max(1)
            }
        }
    }

    fn record(&self, res: Result<Vec<CubeRow>, ServeError>) -> Result<Vec<CubeRow>, ServeError> {
        match res {
            Ok(rows) => {
                self.inner.metrics.record_query(rows.len(), Duration::ZERO);
                Ok(rows)
            }
            Err(e) => {
                self.inner.metrics.record_error_kind(e.kind());
                Err(e)
            }
        }
    }

    /// Iceberg query against the remote server (server-side filter).
    /// Only meaningful when the server holds a complete cube; routers
    /// over *sharded* cubes filter after the merge instead.
    pub fn iceberg_query(
        &self,
        node: NodeId,
        min_count: i64,
        count_measure: u32,
        opts: &QueryOptions,
    ) -> Result<Vec<CubeRow>, ServeError> {
        let req = Request::Iceberg {
            node,
            min_count,
            count_measure,
            deadline_ms: Self::deadline_ms(opts),
        };
        let res = self.exchange(&req, opts.deadline, node);
        self.record(res)
    }
}

enum Retry {
    /// Give up with this typed error.
    Fatal(ServeError),
    /// The connection died; the caller decides whether to redial.
    Transport(std::io::Error),
}

fn dial(endpoint: &str, cfg: &RemoteShardConfig) -> std::io::Result<TcpStream> {
    let mut last = None;
    for addr in endpoint.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, cfg.connect_timeout) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::new(ErrorKind::NotFound, "endpoint resolved empty")))
}

impl ShardBackend for RemoteShardBackend {
    fn query_with_options(
        &self,
        node: NodeId,
        opts: &QueryOptions,
    ) -> Result<Vec<CubeRow>, ServeError> {
        let req = Request::Node { node, deadline_ms: Self::deadline_ms(opts) };
        let res = self.exchange(&req, opts.deadline, node);
        self.record(res)
    }

    fn query_plain(&self, node: NodeId) -> Result<Vec<CubeRow>, ServeError> {
        let req = Request::Node { node, deadline_ms: 0 };
        let res = self.exchange(&req, None, node);
        self.record(res)
    }

    fn num_nodes(&self) -> NodeId {
        self.inner.num_nodes
    }

    fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.inner.metrics
    }

    fn reset_counters(&self) {
        self.inner.metrics.reset();
        self.inner.counters.reset();
    }

    fn wire_totals(&self) -> WireTotals {
        self.inner.counters.totals()
    }

    fn describe(&self) -> String {
        format!("socket://{}", self.endpoint())
    }
}
