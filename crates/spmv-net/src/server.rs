//! The poll-loop server: one thread, many connections, bounded queues.
//!
//! [`NetServer`] multiplexes a non-blocking [`TcpListener`] and every accepted
//! connection from a single thread — there is no per-connection thread and no
//! per-request thread. Each iteration of the loop:
//!
//! 1. **accepts** any waiting connections (non-blocking),
//! 2. **reads** whatever bytes each connection has, peeling complete frames
//!    off its receive buffer and dispatching the requests,
//! 3. **collects** the in-flight batcher tickets ([`Ticket::try_wait`]) and
//!    encodes finished results into the connection's write buffer,
//! 4. **writes** as much buffered output as each socket accepts.
//!
//! The actual matrix work never runs on the poll thread: spmv/spmm requests
//! are submitted to per-matrix [`Batcher`]s (each with its background service
//! thread), which coalesce concurrent requests — possibly from *different
//! connections* — into fused SpMM batches exactly as in-process callers do.
//!
//! **Waiting without a clock.** When a full pass made no progress the loop
//! blocks in one readiness wait (`poll(2)` on unix) until a socket is ready
//! — the listener can accept, a connection is readable, or a connection with
//! buffered output is writable — or until its wake channel fires. Every
//! batcher the loop spawns wakes it after each executed batch
//! ([`Batcher::spawn_with_waker`]), the sharded server's listener wakes a
//! shard after handing it a connection, and shutdown wakes every loop. So a
//! request waits only for work, never for a timer.
//!
//! **Admission control.** Submits go through
//! [`Batcher::submit_bounded`] with the configured
//! [`ServerConfig::queue_depth`]: when a matrix's queue is full the request
//! is refused *under the queue lock* (the bound is exact, not
//! check-then-act) and the client gets a typed
//! [`ERR_OVERLOADED`](crate::protocol::ERR_OVERLOADED) response carrying a
//! retry-after hint — the server's costs stay O(connections + queue_depth)
//! no matter the offered load.
//!
//! **Registry LRU.** Every request resolves its matrix through
//! [`MatrixRegistry::get`], which counts as an LRU touch and rematerializes
//! cold entries. The server's batcher cache detects a rematerialized handle
//! (pointer inequality) and rotates the batcher onto it, dropping its pin on
//! the evicted engine.

use crate::protocol::{self, Op, Request, Response};
use spmv_obs::{Counter, MetricsSnapshot};
use spmv_serve::batcher::Ticket;
use spmv_serve::{BatchPolicy, Batcher, MatrixRegistry, ServeError, SolverSession};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-matrix bound on queued requests; submits beyond it are shed with
    /// [`crate::protocol::ERR_OVERLOADED`].
    pub queue_depth: usize,
    /// Batching policy for the per-matrix coalescing queues.
    pub batch: BatchPolicy,
    /// Backoff hint (milliseconds) carried by load-shed responses.
    pub retry_after_ms: u32,
    /// Maximum accepted frame body size.
    pub max_frame: u32,
    /// When set, every request must carry this token on its frame header
    /// (compared in constant time); requests without it are answered with the
    /// typed [`crate::protocol::ERR_UNAUTHORIZED`] and never reach a batcher.
    pub auth_token: Option<Vec<u8>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 256,
            batch: BatchPolicy::default(),
            retry_after_ms: 1,
            max_frame: protocol::MAX_FRAME,
            auth_token: None,
        }
    }
}

impl ServerConfig {
    /// The same config requiring `token` on every request (builder form).
    pub fn with_auth_token(mut self, token: impl Into<Vec<u8>>) -> ServerConfig {
        self.auth_token = Some(token.into());
        self
    }
}

/// Lock-free counters of the network layer, shared with a running server.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: Counter,
    closed: Counter,
    requests: Counter,
    responses: Counter,
    sheds: Counter,
    errors: Counter,
    unauthorized: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl NetStats {
    /// Connections accepted since the server started.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections closed (by either side) since the server started.
    pub fn closed(&self) -> u64 {
        self.closed.get()
    }

    /// Count one connection assigned to this loop. The single server counts
    /// at accept; the sharded listener counts at handoff, so a connection
    /// still in the handoff queue already weighs on least-loaded placement.
    pub(crate) fn record_accept(&self) {
        self.accepted.inc();
    }

    /// Connections currently open.
    pub fn active(&self) -> u64 {
        self.accepted.get().saturating_sub(self.closed.get())
    }

    /// Requests decoded off the wire.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Responses queued for sending (results and errors).
    pub fn responses(&self) -> u64 {
        self.responses.get()
    }

    /// Requests refused by admission control (load-shed responses sent).
    pub fn sheds(&self) -> u64 {
        self.sheds.get()
    }

    /// Error responses sent (sheds included).
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Requests refused for a missing or wrong auth token.
    pub fn unauthorized(&self) -> u64 {
        self.unauthorized.get()
    }

    /// Payload bytes read off sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Payload bytes written to sockets.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.get()
    }

    /// Fold the connection/shed counters into a [`MetricsSnapshot`] under
    /// `spmv_net_*` families — scraped alongside
    /// [`MatrixRegistry::metrics_snapshot`].
    pub fn fold_into(&self, snap: &mut MetricsSnapshot) {
        snap.counter("spmv_net_connections_accepted_total", self.accepted());
        snap.counter("spmv_net_connections_closed_total", self.closed());
        snap.gauge("spmv_net_connections_active", self.active() as f64);
        snap.counter("spmv_net_requests_total", self.requests());
        snap.counter("spmv_net_responses_total", self.responses());
        snap.counter("spmv_net_sheds_total", self.sheds());
        snap.counter("spmv_net_errors_total", self.errors());
        snap.counter("spmv_net_unauthorized_total", self.unauthorized());
        snap.counter("spmv_net_bytes_in_total", self.bytes_in());
        snap.counter("spmv_net_bytes_out_total", self.bytes_out());
    }

    /// Fold this shard's counters into a [`MetricsSnapshot`] under the
    /// per-shard `spmv_net_shard_*` families, labeled with the shard index —
    /// the sharded server scrapes one of these per poll shard next to the
    /// aggregated `spmv_net_*` families.
    pub fn fold_into_shard(&self, snap: &mut MetricsSnapshot, shard: usize) {
        snap.counter(
            format!("spmv_net_shard_connections_accepted_total{{shard=\"{shard}\"}}"),
            self.accepted(),
        );
        snap.gauge(
            format!("spmv_net_shard_connections_active{{shard=\"{shard}\"}}"),
            self.active() as f64,
        );
        snap.counter(
            format!("spmv_net_shard_requests_total{{shard=\"{shard}\"}}"),
            self.requests(),
        );
        snap.counter(
            format!("spmv_net_shard_responses_total{{shard=\"{shard}\"}}"),
            self.responses(),
        );
        snap.counter(
            format!("spmv_net_shard_sheds_total{{shard=\"{shard}\"}}"),
            self.sheds(),
        );
        snap.counter(
            format!("spmv_net_shard_errors_total{{shard=\"{shard}\"}}"),
            self.errors(),
        );
        snap.counter(
            format!("spmv_net_shard_bytes_in_total{{shard=\"{shard}\"}}"),
            self.bytes_in(),
        );
        snap.counter(
            format!("spmv_net_shard_bytes_out_total{{shard=\"{shard}\"}}"),
            self.bytes_out(),
        );
    }
}

/// One in-flight (submitted, unanswered) request of a connection.
enum Pending {
    Spmv {
        id: u64,
        ticket: Ticket,
    },
    Spmm {
        id: u64,
        tickets: Vec<Ticket>,
        /// Resolved columns, in request order; `None` = still in flight.
        done: Vec<Option<Vec<f64>>>,
    },
}

/// Per-connection state: socket, codec buffers, in-flight tickets, and the
/// connection's solver sessions (one per matrix — sessions are stateful,
/// single-client objects, so they live with the connection).
pub(crate) struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: Vec<Pending>,
    solvers: HashMap<String, SolverSession>,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: Vec::new(),
            solvers: HashMap::new(),
            dead: false,
        }
    }
}

/// The single-threaded heart of one poll loop: a connection set, the
/// per-matrix batcher cache, the shared registry, and the loop's readiness
/// wait. [`NetServer`] runs one of these behind its own listener;
/// [`crate::shard::ShardedNetServer`] runs one per shard thread, feeding each
/// from a listener-thread handoff queue.
pub(crate) struct ShardCore {
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    stats: Arc<NetStats>,
    conns: Vec<Conn>,
    batchers: BatcherCache,
    readiness: Readiness,
}

impl ShardCore {
    pub(crate) fn new(
        registry: Arc<MatrixRegistry>,
        config: ServerConfig,
        stats: Arc<NetStats>,
        readiness: Readiness,
    ) -> ShardCore {
        ShardCore {
            registry,
            config,
            stats,
            conns: Vec::new(),
            batchers: BatcherCache {
                map: HashMap::new(),
                waker: readiness.waker().clone(),
            },
            readiness,
        }
    }

    /// The waker of this loop's readiness wait.
    pub(crate) fn waker(&self) -> &Waker {
        self.readiness.waker()
    }

    /// Take ownership of an accepted connection. Counting it in
    /// [`NetStats::accepted`] is the caller's job (see
    /// [`NetStats::record_accept`]).
    pub(crate) fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        self.conns.push(Conn::new(stream));
    }

    /// Block until `listener` (if any) can accept, a connection is readable
    /// or can take its buffered output, or the loop is woken.
    pub(crate) fn wait(&mut self, listener: Option<&TcpListener>) {
        self.readiness.wait_ready(listener, &self.conns, true, None);
    }

    /// One full pass over every connection (read + dispatch, poll tickets,
    /// write, reap the dead). Returns whether any progress was made.
    pub(crate) fn pump_all(&mut self) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            progress |= pump(
                conn,
                &self.registry,
                &mut self.batchers,
                &self.config,
                &self.stats,
            );
        }
        let before = self.conns.len();
        self.conns.retain(|c| !c.dead);
        self.stats.closed.add((before - self.conns.len()) as u64);
        progress
    }

    /// Graceful drain: stop reading, flush the batchers (dropping a Batcher
    /// closes its queue, serves everything already admitted, and joins its
    /// service thread — so every in-flight ticket resolves), then deliver the
    /// buffered responses. Bounded by `deadline`: a peer that stopped reading
    /// cannot wedge shutdown. Every connection counts as closed afterwards.
    pub(crate) fn drain(&mut self, deadline: Instant) {
        self.batchers.map.clear();
        loop {
            let mut outstanding = false;
            for conn in &mut self.conns {
                if conn.dead {
                    continue;
                }
                poll_inflight(conn, &self.stats);
                flush_writes(conn, &self.stats);
                outstanding |= !conn.inflight.is_empty() || !conn.wbuf.is_empty();
            }
            let now = Instant::now();
            if !outstanding || now >= deadline {
                break;
            }
            self.readiness
                .wait_ready(None, &self.conns, false, Some(deadline - now));
        }
        self.stats
            .closed
            .add(self.conns.iter().filter(|c| !c.dead).count() as u64);
        self.conns.clear();
    }
}

/// A bound, not-yet-running server. [`NetServer::run`] blocks the calling
/// thread in the poll loop; [`NetServer::spawn`] moves it to a background
/// thread and returns a [`NetServerHandle`].
pub struct NetServer {
    listener: TcpListener,
    registry: Arc<MatrixRegistry>,
    config: ServerConfig,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    readiness: Readiness,
}

/// Handle to a spawned server: address, shared stats, and shutdown.
pub struct NetServerHandle {
    addr: SocketAddr,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    join: Option<JoinHandle<()>>,
}

impl NetServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Stop the poll loop: in-flight batches are flushed (every accepted
    /// request gets its response or a typed error — no stranded tickets),
    /// buffered output is written, then connections close. Blocks until the
    /// server thread exits. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.waker.wake_by_ref();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl NetServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) over `registry`.
    pub fn bind(
        registry: Arc<MatrixRegistry>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            registry,
            config,
            stats: Arc::new(NetStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            readiness: Readiness::new()?,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's live counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Run the poll loop on a background thread.
    pub fn spawn(self) -> std::io::Result<NetServerHandle> {
        let addr = self.local_addr()?;
        let stats = Arc::clone(&self.stats);
        let shutdown = Arc::clone(&self.shutdown);
        let waker = self.readiness.waker().clone();
        let join = std::thread::Builder::new()
            .name("spmv-net-server".into())
            .spawn(move || self.run())?;
        Ok(NetServerHandle {
            addr,
            stats,
            shutdown,
            waker,
            join: Some(join),
        })
    }

    /// Run the poll loop on the calling thread until shutdown is requested.
    pub fn run(self) {
        let NetServer {
            listener,
            registry,
            config,
            stats,
            shutdown,
            readiness,
        } = self;
        let mut core = ShardCore::new(registry, config, Arc::clone(&stats), readiness);

        while !shutdown.load(Ordering::Acquire) {
            let mut progress = false;

            // 1. Accept everything waiting.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        core.adopt(stream);
                        stats.record_accept();
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // 2–4. Pump every connection.
            progress |= core.pump_all();

            if !progress {
                core.wait(Some(&listener));
            }
        }

        core.drain(Instant::now() + DRAIN_BOUND);
    }
}

/// Upper bound on the graceful-drain phase of a shutdown: every admitted
/// request is normally answered well within this; a peer that stopped reading
/// its socket forfeits its buffered responses when the bound expires.
pub(crate) const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// One full pass over a connection: read + dispatch, poll tickets, write.
/// Returns whether any progress was made.
fn pump(
    conn: &mut Conn,
    registry: &Arc<MatrixRegistry>,
    batchers: &mut BatcherCache,
    config: &ServerConfig,
    stats: &NetStats,
) -> bool {
    let mut progress = false;

    // Read whatever the socket has.
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                stats.bytes_in.add(n as u64);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }

    // Peel and dispatch complete frames.
    let mut consumed = 0usize;
    loop {
        match protocol::take_frame(&conn.rbuf[consumed..], config.max_frame) {
            Ok(Some((body, used))) => {
                match protocol::decode_request(body) {
                    Ok(req) => {
                        stats.requests.inc();
                        handle_request(req, conn, registry, batchers, config, stats);
                    }
                    Err(e) => {
                        // The stream still frames correctly; answer the bad
                        // request and keep the connection.
                        respond(
                            conn,
                            Response::Error {
                                id: 0,
                                code: protocol::ERR_MALFORMED,
                                retry_after_ms: 0,
                                message: e.to_string(),
                            },
                            stats,
                        );
                    }
                }
                consumed += used;
                progress = true;
            }
            Ok(None) => break,
            Err(_) => {
                // A lying length prefix: framing itself is broken, nothing
                // after this point can be trusted. Drop the connection.
                conn.dead = true;
                break;
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }

    progress |= poll_inflight(conn, stats);
    progress |= flush_writes(conn, stats);
    progress
}

/// Dispatch one decoded request.
fn handle_request(
    req: Request,
    conn: &mut Conn,
    registry: &Arc<MatrixRegistry>,
    batchers: &mut BatcherCache,
    config: &ServerConfig,
    stats: &NetStats,
) {
    let Request {
        id,
        matrix,
        op,
        token,
    } = req;
    // Auth gate: before the registry is touched or anything is admitted, the
    // frame-header token must match the configured one in constant time.
    if let Some(required) = &config.auth_token {
        let presented = token.as_deref().unwrap_or(&[]);
        if !protocol::constant_time_eq(presented, required) {
            stats.unauthorized.inc();
            respond(
                conn,
                Response::Error {
                    id,
                    code: protocol::ERR_UNAUTHORIZED,
                    retry_after_ms: 0,
                    message: "missing or invalid auth token".into(),
                },
                stats,
            );
            return;
        }
    }
    let Some(served) = registry.get(&matrix) else {
        respond(
            conn,
            error_response(id, &ServeError::UnknownMatrix(matrix), config),
            stats,
        );
        return;
    };

    match op {
        Op::Spmv { x } => {
            let batcher = batcher_for(batchers, &matrix, &served, config);
            match batcher.submit_bounded(x, config.queue_depth) {
                Ok(ticket) => conn.inflight.push(Pending::Spmv { id, ticket }),
                Err(e) => {
                    if matches!(e, ServeError::Overloaded { .. }) {
                        stats.sheds.inc();
                    }
                    respond(conn, error_response(id, &e, config), stats);
                }
            }
        }
        Op::Spmm { cols } => {
            if cols.is_empty() {
                respond(conn, Response::Spmm { id, cols: vec![] }, stats);
                return;
            }
            let batcher = batcher_for(batchers, &matrix, &served, config);
            let k = cols.len();
            // The block is admitted whole or shed whole, so a shed block
            // costs no kernel work.
            match batcher.submit_block(cols, config.queue_depth) {
                Ok(tickets) => conn.inflight.push(Pending::Spmm {
                    id,
                    tickets,
                    done: (0..k).map(|_| None).collect(),
                }),
                Err(e) => {
                    if matches!(e, ServeError::Overloaded { .. }) {
                        stats.sheds.inc();
                    }
                    respond(conn, error_response(id, &e, config), stats);
                }
            }
        }
        Op::SolverIterate { steps, b } => {
            // Solver sessions are stateful single-client objects; their
            // iterations run inline on the poll thread (each call is bounded
            // by `steps`), keeping the session exactly as consistent as the
            // in-process API.
            let outcome = (|| -> spmv_serve::Result<Response> {
                if let Some(b) = &b {
                    match conn.solvers.get_mut(&matrix) {
                        Some(session) => session.reset(b)?,
                        None => {
                            let session = served.solver_session(b)?;
                            conn.solvers.insert(matrix.clone(), session);
                        }
                    }
                }
                let Some(session) = conn.solvers.get_mut(&matrix) else {
                    return Ok(Response::Error {
                        id,
                        code: protocol::ERR_MALFORMED,
                        retry_after_ms: 0,
                        message: format!("no open solver session on '{matrix}' (send b first)"),
                    });
                };
                let residual = session.iterate(steps as u64)?;
                Ok(Response::Solver {
                    id,
                    x: session.extract(),
                    residual,
                })
            })();
            match outcome {
                Ok(resp) => respond(conn, resp, stats),
                Err(e) => respond(conn, error_response(id, &e, config), stats),
            }
        }
    }
}

/// One loop's per-matrix batchers, each spawned with the loop's waker so a
/// finished batch wakes the loop that holds its tickets.
struct BatcherCache {
    map: HashMap<String, Batcher>,
    waker: Waker,
}

/// The batcher serving `name`, rotated onto `served` if the registry handed
/// out a new handle (an LRU eviction rematerialized the matrix, or it was
/// re-registered). Replacing the batcher drops the old one, which flushes
/// whatever it had admitted and unpins the evicted engine.
fn batcher_for<'a>(
    batchers: &'a mut BatcherCache,
    name: &str,
    served: &Arc<spmv_serve::ServedMatrix>,
    config: &ServerConfig,
) -> &'a Batcher {
    let stale = batchers
        .map
        .get(name)
        .is_some_and(|b| !Arc::ptr_eq(b.matrix(), served));
    if stale {
        batchers.map.remove(name);
    }
    let waker = &batchers.waker;
    batchers.map.entry(name.to_string()).or_insert_with(|| {
        Batcher::spawn_with_waker(Arc::clone(served), config.batch, Some(waker.clone()))
    })
}

/// Poll every in-flight ticket; encode finished requests. Returns whether
/// anything resolved.
fn poll_inflight(conn: &mut Conn, stats: &NetStats) -> bool {
    let mut finished: Vec<Response> = Vec::new();
    conn.inflight.retain_mut(|pending| match pending {
        Pending::Spmv { id, ticket } => match ticket.try_wait() {
            None => true,
            Some(Ok(y)) => {
                finished.push(Response::Spmv { id: *id, y });
                false
            }
            Some(Err(e)) => {
                finished.push(serve_error_to_response(*id, &e, 0));
                false
            }
        },
        Pending::Spmm { id, tickets, done } => {
            let mut failed: Option<ServeError> = None;
            for (slot, ticket) in done.iter_mut().zip(tickets.iter()) {
                if slot.is_some() {
                    continue;
                }
                match ticket.try_wait() {
                    None => {}
                    Some(Ok(y)) => *slot = Some(y),
                    Some(Err(e)) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = failed {
                finished.push(serve_error_to_response(*id, &e, 0));
                return false;
            }
            if done.iter().all(Option::is_some) {
                finished.push(Response::Spmm {
                    id: *id,
                    cols: done.iter_mut().map(|slot| slot.take().unwrap()).collect(),
                });
                return false;
            }
            true
        }
    });
    let resolved = !finished.is_empty();
    for resp in finished {
        respond(conn, resp, stats);
    }
    resolved
}

/// Write as much buffered output as the socket accepts. Returns whether any
/// bytes moved.
fn flush_writes(conn: &mut Conn, stats: &NetStats) -> bool {
    let mut written = 0usize;
    while written < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if written > 0 {
        conn.wbuf.drain(..written);
        stats.bytes_out.add(written as u64);
        return true;
    }
    false
}

/// Encode one response into the connection's write buffer.
fn respond(conn: &mut Conn, resp: Response, stats: &NetStats) {
    if matches!(resp, Response::Error { .. }) {
        stats.errors.inc();
    }
    stats.responses.inc();
    let body = protocol::encode_response(&resp);
    protocol::write_frame(&mut conn.wbuf, &body);
}

/// Map a service-layer error to a typed wire response, attaching the
/// configured retry-after hint to overload sheds.
fn error_response(id: u64, e: &ServeError, config: &ServerConfig) -> Response {
    serve_error_to_response(id, e, config.retry_after_ms)
}

fn serve_error_to_response(id: u64, e: &ServeError, retry_after_ms: u32) -> Response {
    let (code, retry) = match e {
        ServeError::UnknownMatrix(_) => (protocol::ERR_UNKNOWN_MATRIX, 0),
        ServeError::DimensionMismatch { .. } => (protocol::ERR_DIMENSION, 0),
        ServeError::Overloaded { .. } => (protocol::ERR_OVERLOADED, retry_after_ms.max(1)),
        ServeError::BatchPanicked => (protocol::ERR_BATCH_PANICKED, 0),
        ServeError::Closed => (protocol::ERR_CLOSED, 0),
        ServeError::NotSquare { .. } => (protocol::ERR_NOT_SQUARE, 0),
        _ => (protocol::ERR_INTERNAL, 0),
    };
    Response::Error {
        id,
        code,
        retry_after_ms: retry,
        message: e.to_string(),
    }
}

/// The readiness wait of one poll loop: a wake channel whose [`Waker`] any
/// thread can fire — a batcher after each batch, the sharded listener after a
/// handoff, shutdown — plus [`Readiness::wait_ready`], the one blocking point
/// of every loop (the single server, each shard, the sharded listener, and
/// the graceful drain).
pub(crate) struct Readiness {
    waker: Waker,
    /// Read end of the wake channel; the waker holds the write end.
    #[cfg(unix)]
    wake_rx: std::os::unix::net::UnixStream,
    /// `poll(2)` set, rebuilt on every wait.
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(not(unix))]
    signal: Arc<ParkSignal>,
}

/// The write end of a unix wake channel.
#[cfg(unix)]
struct WakeTx(std::os::unix::net::UnixStream);

#[cfg(unix)]
impl Wake for WakeTx {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // One byte makes the loop's poll return. WouldBlock means the channel
        // is full, so a wake is already pending.
        let _ = (&self.0).write(&[1]);
    }
}

/// The loop thread to unpark, registered by its first wait.
#[cfg(not(unix))]
#[derive(Default)]
struct ParkSignal(std::sync::OnceLock<std::thread::Thread>);

#[cfg(not(unix))]
impl Wake for ParkSignal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let Some(thread) = self.0.get() {
            thread.unpark();
        }
    }
}

impl Readiness {
    pub(crate) fn new() -> std::io::Result<Readiness> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Readiness {
                waker: Waker::from(Arc::new(WakeTx(tx))),
                wake_rx: rx,
                fds: Vec::new(),
            })
        }
        #[cfg(not(unix))]
        {
            let signal = Arc::new(ParkSignal::default());
            Ok(Readiness {
                waker: Waker::from(Arc::clone(&signal)),
                signal,
            })
        }
    }

    pub(crate) fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Block until `listener` can accept, a live connection in `conns` is
    /// readable (only when `read`) or can take its buffered output, the
    /// waker fires, or `timeout` (`None` = no limit) passes. Hang-ups and
    /// socket errors also end the wait, so the next pass's read or write
    /// reaps the connection. Pending wakes are consumed before returning: a
    /// wake that fires after this returns stays pending for the next wait, so
    /// none is lost between a pass and the wait that follows it.
    pub(crate) fn wait_ready(
        &mut self,
        listener: Option<&TcpListener>,
        conns: &[Conn],
        read: bool,
        timeout: Option<Duration>,
    ) {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.fds.clear();
            self.fds
                .push(sys::PollFd::new(self.wake_rx.as_raw_fd(), sys::POLLIN));
            if let Some(listener) = listener {
                self.fds
                    .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
            }
            for conn in conns.iter().filter(|c| !c.dead) {
                // Asking for POLLOUT on a socket with nothing to send would
                // end every wait at once.
                let mut events = if read { sys::POLLIN } else { 0 };
                if !conn.wbuf.is_empty() {
                    events |= sys::POLLOUT;
                }
                if events != 0 {
                    self.fds
                        .push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                }
            }
            // Round up, so a sub-millisecond remainder does not spin.
            let timeout_ms = timeout.map_or(-1, |t| {
                t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            });
            if sys::poll(&mut self.fds, timeout_ms) && self.fds[0].revents != 0 {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
        }
        #[cfg(not(unix))]
        {
            // No portable readiness syscall in std: wakes unpark the loop at
            // once, socket readiness is found by the bounded park.
            let _ = (listener, conns, read);
            self.signal.0.get_or_init(std::thread::current);
            let bound = Duration::from_micros(100);
            std::thread::park_timeout(timeout.map_or(bound, |t| t.min(bound)));
        }
    }
}

/// `poll(2)`, declared directly: std already links libc on every unix target.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        pub revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: c_int, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Wait on `fds` for up to `timeout_ms` (-1 = no limit), retrying on
    /// EINTR. Returns whether any descriptor is ready.
    pub fn poll(fds: &mut [PollFd], timeout_ms: c_int) -> bool {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `#[repr(C)] struct pollfd` of the length passed.
            let rc = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
            if rc >= 0 {
                return rc > 0;
            }
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return false;
            }
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("queue_depth", &self.config.queue_depth)
            .finish()
    }
}
