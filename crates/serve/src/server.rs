//! The allocation server: a blocking acceptor, one reader thread per
//! connection, and a bounded pool of worker threads fed by a job queue.
//!
//! Architecture:
//!
//! * the **acceptor** (the thread that called [`Server::run`]) blocks
//!   in `accept()` and gives each connection its own scoped **reader**
//!   thread, up to [`CONNECTIONS_PER_WORKER`] connections per worker;
//!   past that cap it answers [`Response::Busy`] and closes;
//! * a **reader** frames its connection's request lines and answers
//!   the cheap verbs itself — `ping`, `stats`, `cancel`, `shutdown` and
//!   malformed lines — so they never wait for a worker, however busy
//!   the pool is or however many idle keep-alive peers are connected;
//! * a `table1`/`pareto` request becomes a **job** on a bounded
//!   [`mpsc::sync_channel`]. Its reader waits for the answer and
//!   writes answers in request order. While the job runs the reader
//!   keeps reading the socket into its own buffer (a pipelined request
//!   waits there for its turn), and a peer that hangs up flips the
//!   job's cancel flag so the search stops at its next poll;
//! * `workers` **scoped threads** each pull one job at a time — every
//!   job builds fresh [`lycos::Pipeline`] values; the only state jobs
//!   share is the server's [`ArtifactStore`] (one per server,
//!   thread-safe), which caches per-application search precompute
//!   across requests and connections and warm-starts repeat `bound`
//!   searches. Results are field-identical warm or cold; the `stats`
//!   verb reports the store's hit/miss/eviction counters;
//! * when the job queue is full the reader answers [`Response::Busy`]
//!   at once and keeps the connection — **backpressure** instead of
//!   unbounded queueing;
//! * a `shutdown` request flips one flag and wakes the acceptor with a
//!   connection of its own: the acceptor stops, idle readers leave at
//!   their next read tick, queued jobs still run and answer, and the
//!   workers join once the last reader has gone — **graceful
//!   shutdown** with no request dropped mid-flight.

use crate::protocol::{
    Format, Job, JobSource, ParetoRequest, Request, Response, Table1Request, DEFAULT_ADDR,
};
use crate::ServeError;
use lycos::explore::{
    format_pareto, format_table1, format_table1_csv, pareto_csv_row, Table1Options,
    PARETO_CSV_HEADER,
};
use lycos::hwlib::Area;
use lycos::pace::{ArtifactStore, SearchOptions, StopSignal};
use lycos::Pipeline;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The read-timeout tick of a reader's socket. An idle reader wakes
/// this often to see whether the server is draining, and a reader
/// whose job is running checks this often whether its peer hung up.
/// It bounds how long shutdown waits for idle keep-alive peers; no
/// request ever waits on it.
const READ_TICK: Duration = Duration::from_millis(50);

/// Upper bound on one blocking response write. A peer that stops
/// reading its responses hits this, fails the connection, and frees
/// its reader — instead of pinning it (and stalling shutdown) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Open connections allowed per worker; past `workers ×` this, the
/// acceptor answers `busy` and closes. Each connection costs one
/// reader thread, so this bounds the threads a crowd of idle peers can
/// make the server hold, while leaving room for far more keep-alive
/// clients than workers.
pub const CONNECTIONS_PER_WORKER: usize = 64;

/// How long a connection refused at the cap may keep sending before
/// the acceptor closes it: long enough for a request that crosses the
/// `busy` line in flight to be read, so the close does not reset the
/// connection and destroy the answer before the client reads it.
const BUSY_LINGER: Duration = Duration::from_millis(100);

/// Configuration of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Worker threads — the number of `table1`/`pareto` jobs run
    /// concurrently. Connections are not counted: each has its own
    /// reader, and the cheap verbs never take a worker.
    pub workers: usize,
    /// Jobs that may wait for a free worker before a further job is
    /// answered `busy` (0 = hand-offs only). Counts jobs, not
    /// connections.
    pub queue: usize,
    /// Search knobs applied when a request leaves them unset.
    pub defaults: SearchOptions,
    /// How long a *partial* request line may stall before the server
    /// answers `err slow-request` and closes. An idle peer between
    /// requests is normal keep-alive and never times out; a peer that
    /// goes silent mid-line would otherwise pin its reader forever.
    pub read_timeout: Duration,
    /// Allocation-space size (pre-walk, [`lycos::pace::space_size`])
    /// above which a job is *big* for admission control. At most
    /// [`big_jobs`](ServeConfig::big_jobs) big jobs run concurrently,
    /// so workers always stay free for small jobs.
    pub big_job_threshold: u128,
    /// Concurrent big-job slots on the admission gate. `0` (the
    /// default) means *auto*: `workers - 1`, floored at one, so one
    /// worker always stays free for small jobs.
    pub big_jobs: usize,
    /// Test hook: when set, a job naming the app `__panic` panics
    /// inside the worker, exercising the panic-isolation path.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_owned(),
            workers: 4,
            queue: 8,
            // eigen's space cannot be exhausted (paper footnote 1);
            // the same default cap the CLI and the table1 bin use.
            // Bounding stays off by default so batch responses are
            // byte-diffable against the sequential CSV path.
            defaults: SearchOptions::new().limit(Some(200_000)),
            read_timeout: Duration::from_secs(10),
            // Well above every bundled benchmark except the eigen-scale
            // spaces the paper's footnote calls un-exhaustible.
            big_job_threshold: 1_000_000,
            big_jobs: 0,
            fault_injection: false,
        }
    }
}

/// A bound listener, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured address. The listener blocks in `accept`;
    /// the `shutdown` verb wakes it by connecting to it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
    }

    /// The actually-bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] from the socket.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves until a `shutdown` request arrives, then lets queued
    /// jobs answer, joins every reader and worker and returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a non-transient accept failure. Per-
    /// connection I/O errors only drop that connection.
    pub fn run(self) -> Result<(), ServeError> {
        let Server { listener, config } = self;
        let workers = config.workers.max(1);
        let connection_cap = CONNECTIONS_PER_WORKER * workers;
        let shutdown = AtomicBool::new(false);
        // One artifact store per server, shared by every worker and
        // connection: the cross-request cache the seam exists for.
        let store = Arc::new(ArtifactStore::new(config.defaults.store_cap));
        let (tx, rx) = mpsc::sync_channel::<SearchJob>(config.queue);
        let rx = Mutex::new(rx);
        let panics = AtomicU64::new(0);
        let registry = JobRegistry::default();
        let big_jobs = match config.big_jobs {
            0 => workers.saturating_sub(1).max(1),
            n => n,
        };
        let gate = AdmissionGate::new(big_jobs);
        let open = AtomicUsize::new(0);
        let wake = wake_addr(listener.local_addr()?);

        std::thread::scope(|scope| {
            let ctx = ServerCtx {
                config: &config,
                store: &store,
                shutdown: &shutdown,
                panics: &panics,
                registry: &registry,
                gate: &gate,
                wake,
            };
            let rx = &rx;
            for _ in 0..workers {
                scope.spawn(move || worker_loop(rx, ctx));
            }
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    // Transient per-connection failures (reset during
                    // accept) are not fatal to the server.
                    Err(e)
                        if e.kind() == std::io::ErrorKind::ConnectionAborted
                            || e.kind() == std::io::ErrorKind::ConnectionReset
                            || e.kind() == std::io::ErrorKind::Interrupted =>
                    {
                        continue;
                    }
                    Err(e) => {
                        ctx.stop_serving();
                        drop(tx);
                        return Err(ServeError::Io(e));
                    }
                };
                // The `shutdown` verb's wake-up lands here too.
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Responses are written line-wise; let them go out as
                // produced instead of parking behind Nagle for the
                // client's delayed ACK.
                let _ = stream.set_nodelay(true);
                if open.load(Ordering::Relaxed) >= connection_cap {
                    reject_busy(stream, connection_cap);
                    continue;
                }
                open.fetch_add(1, Ordering::Relaxed);
                let slot = OpenSlot(&open);
                let jobs = tx.clone();
                // A failed spawn drops the closure, and with it the
                // stream and the slot: that connection just closes.
                let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                    let _slot = slot;
                    // A panic in a reader must not reach the scope,
                    // which would re-raise it out of run().
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _ = serve_connection(stream, &jobs, ctx);
                    }));
                    if outcome.is_err() {
                        ctx.panics.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Close the acceptor's end of the job queue: once the last
            // reader has left too, workers see the channel close after
            // the queued jobs and exit; the scope joins everyone.
            drop(tx);
            Ok(())
        })
    }
}

/// The address the `shutdown` verb connects to so the blocked acceptor
/// wakes: the bound address, with an unspecified host (`0.0.0.0`,
/// `[::]`) mapped to loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The per-server state every reader and worker shares: configuration,
/// the artifact store, the shutdown flag, the panic counter, the job
/// registry the `cancel` verb consults, the big-job admission gate and
/// the address that wakes the acceptor.
#[derive(Clone, Copy)]
struct ServerCtx<'a> {
    config: &'a ServeConfig,
    store: &'a Arc<ArtifactStore>,
    shutdown: &'a AtomicBool,
    panics: &'a AtomicU64,
    registry: &'a JobRegistry,
    gate: &'a AdmissionGate,
    wake: SocketAddr,
}

impl ServerCtx<'_> {
    /// Flips the shutdown flag and releases jobs parked on the
    /// admission gate (they answer `busy` rather than wait into a
    /// draining server).
    fn stop_serving(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.gate.wake_all();
    }
}

/// Keeps one place in the open-connection count until its reader
/// leaves.
struct OpenSlot<'a>(&'a AtomicUsize);

impl Drop for OpenSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A search request on its way to a worker.
enum Search {
    Table1(Table1Request),
    Pareto(ParetoRequest),
}

/// One queued job: the request, its resolved search options, the stop
/// signal started when its request line arrived, and where the answer
/// goes.
struct SearchJob {
    search: Search,
    options: SearchOptions,
    stop: StopSignal,
    answer: SyncSender<Response>,
}

/// The jobs a `cancel <id>` can reach, keyed by the client-chosen
/// `job=` id, from receipt of the request until its answer. Entries
/// are RAII-removed, so a stale id cancels nothing.
#[derive(Default)]
struct JobRegistry {
    jobs: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl JobRegistry {
    /// Claims `id` for the duration of the returned guard; `Err` if a
    /// job with the same id is already running.
    fn register(&self, id: u64, flag: Arc<AtomicBool>) -> Result<JobGuard<'_>, ()> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.entry(id) {
            Entry::Occupied(_) => Err(()),
            Entry::Vacant(slot) => {
                slot.insert(flag);
                Ok(JobGuard { registry: self, id })
            }
        }
    }

    /// Flips the cancel flag of the running job `id`, if any.
    fn cancel(&self, id: u64) -> bool {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.get(&id) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }
}

/// Removes its job from the registry on drop — panic or not.
struct JobGuard<'a> {
    registry: &'a JobRegistry,
    id: u64,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// Caps how many *big* jobs (allocation space above
/// [`ServeConfig::big_job_threshold`]) run concurrently, so small
/// jobs always find a worker promptly.
struct AdmissionGate {
    running: Mutex<usize>,
    freed: Condvar,
    cap: usize,
}

impl AdmissionGate {
    fn new(cap: usize) -> AdmissionGate {
        AdmissionGate {
            running: Mutex::new(0),
            freed: Condvar::new(),
            cap,
        }
    }

    /// Waits for a big-job slot; `None` once the server is draining
    /// (the caller answers `busy` instead of queueing into shutdown).
    fn acquire(&self, shutdown: &AtomicBool) -> Option<AdmissionPermit<'_>> {
        let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if *running < self.cap {
                *running += 1;
                return Some(AdmissionPermit { gate: self });
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            running = self
                .freed
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every parked job once the shutdown flag has flipped, so
    /// each sees it and gives up its wait. Taking the lock first means
    /// a job between its flag check and its wait cannot miss this.
    fn wake_all(&self) {
        let _running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        self.freed.notify_all();
    }
}

/// Releases its big-job slot on drop — panic or not.
struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut running = self
            .gate
            .running
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *running = running.saturating_sub(1);
        self.gate.freed.notify_one();
    }
}

/// Pulls jobs until the job queue closes. Queued jobs still run after
/// shutdown flips — graceful, not abortive. A panicking job is counted
/// and answered `err` here; the worker survives and pulls the next
/// job, so the pool never shrinks.
fn worker_loop(rx: &Mutex<Receiver<SearchJob>>, ctx: ServerCtx<'_>) {
    loop {
        // Holding the lock while blocked in recv() is deliberate: the
        // channel hands one job to exactly one worker, and the others
        // queue on the mutex, which drops the moment a job arrives.
        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let SearchJob {
            search,
            options,
            stop,
            answer,
        } = job;
        let outcome = catch_unwind(AssertUnwindSafe(|| match &search {
            Search::Table1(req) => run_table1(req, &options, &stop, ctx),
            Search::Pareto(req) => run_pareto(req, &options, &stop, ctx),
        }));
        let response = outcome.unwrap_or_else(|payload| {
            ctx.panics.fetch_add(1, Ordering::Relaxed);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_owned());
            Response::Error(format!("internal panic while serving request: {what}"))
        });
        // The reader waits for this unless its peer is long gone; an
        // answer nobody collects is dropped with the channel.
        let _ = answer.send(response);
    }
}

/// Answers `busy` on a connection past the open-connection cap, then
/// half-closes it and drains what the peer sends for up to
/// [`BUSY_LINGER`]. Closing at once would make the kernel answer a
/// request that arrives after the close with a reset, and the client
/// would read `ECONNRESET` instead of the `busy` line.
fn reject_busy(stream: TcpStream, cap: usize) {
    // Accepted sockets inherit the listener's mode on some platforms;
    // normalise, and never block long on a peer we are rejecting.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(BUSY_LINGER));
    let _ = stream.set_read_timeout(Some(BUSY_LINGER));
    let msg = format!("connection limit reached ({cap} open connections); retry later");
    let _ = Response::Busy(msg).write_to(&mut &stream);
    let _ = stream.shutdown(Shutdown::Write);
    let until = Instant::now() + BUSY_LINGER;
    let mut sink = [0u8; 4096];
    while Instant::now() < until {
        match (&stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Longest accepted request line, in bytes. Generous for any real
/// batch (inline sources travel percent-encoded, so this admits
/// megabyte-scale programs) while bounding what one peer can make the
/// server buffer.
const MAX_LINE: usize = 4 << 20;

/// Serves one connection on its reader thread: request lines in,
/// responses out, in order, until the peer closes, `shutdown`/`bye`
/// ends the session, or the server starts draining. Malformed framing
/// (overlong line, not UTF-8) and a partial line that stalls past
/// [`ServeConfig::read_timeout`] answer one `err` and close instead of
/// silently dropping (or pinning the reader forever).
fn serve_connection(
    stream: TcpStream,
    jobs: &SyncSender<SearchJob>,
    ctx: ServerCtx<'_>,
) -> std::io::Result<()> {
    // See reject_busy: make the accepted socket's mode explicit
    // before relying on timeout semantics.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut conn = Conn {
        stream: stream.try_clone()?,
        pending: Vec::new(),
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match next_line(
            &mut conn.stream,
            &mut conn.pending,
            ctx.shutdown,
            ctx.config.read_timeout,
        ) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::InvalidData
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let _ = Response::Error(e.to_string()).write_to(&mut writer);
                let _ = writer.flush();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Once the server is draining, stop serving new requests even
        // on connections that keep streaming — otherwise one chatty
        // peer could stall shutdown forever.
        if ctx.shutdown.load(Ordering::Acquire) {
            let _ = Response::Busy("server shutting down".to_owned()).write_to(&mut writer);
            let _ = writer.flush();
            return Ok(());
        }
        let line = line.trim();
        if line.is_empty() {
            continue; // stray blank lines are forgiven, not answered
        }
        let response = respond(line, &mut conn, jobs, ctx);
        response.write_to(&mut writer)?;
        writer.flush()?;
        if matches!(response, Response::Bye) {
            return Ok(());
        }
    }
}

/// Reads one `\n`-terminated line, buffering partial reads across the
/// read timeout so a slow sender never corrupts framing. Returns
/// `None` on EOF, or — once shutdown has flipped — on an idle peer,
/// so a draining server is not held open by keep-alive peers. A line
/// growing past [`MAX_LINE`] without a newline is `InvalidData`,
/// bounding what one peer can make the server hold. A *partial* line
/// making no progress for `read_timeout` is `TimedOut`
/// (`err slow-request` upstream): an idle peer *between* requests is
/// normal keep-alive and may stay connected indefinitely, but a peer
/// that goes silent mid-line gets a deadline.
fn next_line(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    shutdown: &AtomicBool,
    read_timeout: Duration,
) -> std::io::Result<Option<String>> {
    let mut stalled_since: Option<Instant> = None;
    let take = |bytes: Vec<u8>| {
        String::from_utf8(bytes).map(Some).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "request is not UTF-8")
        })
    };
    loop {
        if let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            return take(line);
        }
        if pending.len() > MAX_LINE {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE} bytes"),
            ));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if pending.is_empty() {
                    return Ok(None);
                }
                // A final line without its newline still counts.
                return take(std::mem::take(pending));
            }
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                stalled_since = None; // progress restarts the clock
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
                if !pending.is_empty() {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= read_timeout {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "slow-request: partial request line stalled for {}ms",
                                read_timeout.as_millis()
                            ),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Maps one request line to its response. Never panics: every failure
/// becomes [`Response::Error`] — a panic inside a search job is
/// caught by its worker, counted, and answered as `err` too.
fn respond(
    line: &str,
    conn: &mut Conn,
    jobs: &SyncSender<SearchJob>,
    ctx: ServerCtx<'_>,
) -> Response {
    match Request::parse(line) {
        Err(e) => Response::Error(e.to_string()),
        Ok(Request::Ping) => Response::Pong,
        Ok(Request::Shutdown) => {
            ctx.stop_serving();
            // Wake the acceptor out of accept(); it sees the flag and
            // stops. If the connect fails, the next client wakes it.
            let _ = TcpStream::connect_timeout(&ctx.wake, WRITE_TIMEOUT);
            Response::Bye
        }
        Ok(Request::Stats) => run_stats(ctx),
        Ok(Request::Cancel(id)) => {
            if ctx.registry.cancel(id) {
                Response::Ok(vec![format!("cancelled {id}")])
            } else {
                Response::Error(format!("no running job {id}"))
            }
        }
        Ok(Request::Table1(req)) => {
            let options = req.knobs.apply_to(&ctx.config.defaults);
            conn.submit(req.job, options, Search::Table1(req), jobs, ctx)
        }
        Ok(Request::Pareto(req)) => {
            let options = req.knobs.apply_to(&ctx.config.defaults);
            conn.submit(req.job, options, Search::Pareto(req), jobs, ctx)
        }
    }
}

/// A connection's read side: its socket and the bytes read ahead of
/// the request being served.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    /// Queues one search request as a job and waits for its answer.
    ///
    /// The job's stop signal starts here, when the request line has
    /// arrived: building pipelines, the admission probe, the wait in
    /// the queue and on the gate, and the artifact prepare all count
    /// against `deadline-ms`, so the deadline bounds what the client
    /// waits (the engine's own merge of the same knob can only start
    /// later, and the earliest deadline wins). The job id is claimed
    /// now too, so `cancel <id>` reaches a job still in the queue.
    fn submit(
        &mut self,
        id: Option<u64>,
        options: SearchOptions,
        search: Search,
        jobs: &SyncSender<SearchJob>,
        ctx: ServerCtx<'_>,
    ) -> Response {
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = StopSignal::never()
            .with_cancel(cancel.clone())
            .with_deadline_ms(options.deadline_ms);
        let _claim = match id {
            Some(id) => match ctx.registry.register(id, cancel.clone()) {
                Ok(guard) => Some(guard),
                Err(()) => return Response::Error(format!("job id {id} is already running")),
            },
            None => None,
        };
        let (answer, answered) = mpsc::sync_channel(1);
        let job = SearchJob {
            search,
            options,
            stop,
            answer,
        };
        match jobs.try_send(job) {
            Ok(()) => self.await_answer(&answered, &cancel),
            Err(TrySendError::Full(_)) => Response::Busy(format!(
                "queue full ({} workers busy, queue depth {}); retry later",
                ctx.config.workers.max(1),
                ctx.config.queue
            )),
            Err(TrySendError::Disconnected(_)) => Response::Busy("server shutting down".to_owned()),
        }
    }

    /// Waits for a queued job's answer. The answer channel wakes the
    /// reader the moment the job is done; every [`READ_TICK`] in
    /// between, the reader moves what the peer has sent into
    /// `pending` (a pipelined request waits there for its turn), and
    /// end-of-stream or a socket error flips the job's cancel flag so
    /// an abandoned search stops at its next stop-signal poll.
    fn await_answer(&mut self, answered: &Receiver<Response>, cancel: &AtomicBool) -> Response {
        let lost = || Response::Error("internal error: the job ended without an answer".into());
        loop {
            match answered.recv_timeout(READ_TICK) {
                Ok(response) => return response,
                Err(RecvTimeoutError::Disconnected) => return lost(),
                Err(RecvTimeoutError::Timeout) => {}
            }
            if !self.read_ahead() {
                cancel.store(true, Ordering::Release);
                return answered.recv().unwrap_or_else(|_| lost());
            }
        }
    }

    /// Moves whatever the peer has already sent into `pending` without
    /// blocking; `false` once the peer has closed or the socket failed.
    /// Past [`MAX_LINE`] buffered bytes it stops reading and lets TCP
    /// push back on the peer.
    fn read_ahead(&mut self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut chunk = [0u8; 4096];
        let alive = loop {
            if self.pending.len() > MAX_LINE {
                break true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => break false,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        self.stream.set_nonblocking(false).is_ok() && alive
    }
}

/// Header of the `stats` verb's two-line CSV body.
pub const STATS_CSV_HEADER: &str =
    "hits,misses,evictions,entries,cap,incremental,reused,rederived,panics";

/// Answers the `stats` verb: the artifact store's counters plus the
/// server's caught-panic count as a two-line CSV (header + values),
/// so clients can watch hit ratios, residency, edit-loop reuse rates
/// (incremental builds, blocks reused vs re-derived) and fault
/// containment without scraping logs.
fn run_stats(ctx: ServerCtx<'_>) -> Response {
    let s = ctx.store.stats();
    Response::Ok(vec![
        STATS_CSV_HEADER.to_owned(),
        format!(
            "{},{},{},{},{},{},{},{},{}",
            s.hits,
            s.misses,
            s.evictions,
            s.entries,
            s.cap,
            s.incremental,
            s.reused,
            s.rederived,
            ctx.panics.load(Ordering::Relaxed)
        ),
    ])
}

/// The bundled benchmarks, compiled once per process: `apps::all()`
/// runs the frontend over every bundled source, far too costly for a
/// long-running service's per-request hot path.
fn bundled_apps() -> &'static [lycos::apps::BenchmarkApp] {
    static APPS: std::sync::OnceLock<Vec<lycos::apps::BenchmarkApp>> = std::sync::OnceLock::new();
    APPS.get_or_init(lycos::apps::all)
}

/// Builds one pipeline per job — each wired to the server's shared
/// artifact store — or the error response naming the first bad job.
/// Shared by the `table1` and `pareto` verbs.
fn pipelines_for(
    verb: &str,
    jobs: &[Job],
    store: &Arc<ArtifactStore>,
    fault_injection: bool,
) -> Result<Vec<Pipeline>, Response> {
    if jobs.is_empty() {
        return Err(Response::Error(format!(
            "{verb} request names no jobs (add app=<name> or src=<encoded-lyc>)"
        )));
    }
    let mut pipelines = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut pipeline = match &job.source {
            JobSource::App(name) if fault_injection && name == "__panic" => {
                panic!("injected fault: job `__panic`")
            }
            JobSource::App(name) => match bundled_apps().iter().find(|a| a.name == *name) {
                Some(app) => Pipeline::for_app(app),
                None => {
                    return Err(Response::Error(format!(
                        "unknown app `{name}` (bundled: straight, hal, man, eigen)"
                    )))
                }
            },
            JobSource::Inline(source) => Pipeline::new(source.clone()),
        };
        if let Some(gates) = job.budget {
            pipeline = pipeline.with_budget(Area::new(gates));
        }
        pipelines.push(pipeline.with_artifact_store(store.clone()));
    }
    Ok(pipelines)
}

/// Pre-walk admission probe: the largest allocation space any of the
/// request's jobs would sweep. Jobs above
/// [`ServeConfig::big_job_threshold`] take a big-job slot from the
/// [`AdmissionGate`] before searching; everything else rides the fast
/// lane untouched.
fn widest_space(pipelines: &[Pipeline], options: &SearchOptions) -> Result<u128, Response> {
    let mut widest = 0u128;
    for pipeline in pipelines {
        let allocated = pipeline
            .clone()
            .with_search_options(options.clone())
            .allocate()
            .map_err(|e| Response::Error(e.to_string()))?;
        widest = widest.max(allocated.space_size());
    }
    Ok(widest)
}

/// Takes a big-job slot when the request's widest space crosses the
/// admission threshold; `Err(busy)` only if the server starts
/// draining while the job is queued for a slot.
fn admit<'a>(
    ctx: ServerCtx<'a>,
    pipelines: &[Pipeline],
    options: &SearchOptions,
) -> Result<Option<AdmissionPermit<'a>>, Response> {
    let widest = widest_space(pipelines, options)?;
    if widest <= ctx.config.big_job_threshold {
        return Ok(None);
    }
    match ctx.gate.acquire(ctx.shutdown) {
        Some(permit) => Ok(Some(permit)),
        None => Err(Response::Busy("server shutting down".to_owned())),
    }
}

/// Runs one Table 1 batch through the shared
/// [`Pipeline::table1_batch_stop`] seam — the same code path as the
/// `table1` bin, so the service's rows are byte-identical to it.
/// `search_options` are the request's knob overrides folded over the
/// configured defaults ([`lycos::pace::KnobOverrides::apply_to`]); the
/// job's [`StopSignal`] — cancel flag and request deadline — rides
/// into every sweep.
fn run_table1(
    req: &Table1Request,
    search_options: &SearchOptions,
    stop: &StopSignal,
    ctx: ServerCtx<'_>,
) -> Response {
    let pipelines = match pipelines_for("table1", &req.jobs, ctx.store, ctx.config.fault_injection)
    {
        Ok(pipelines) => pipelines,
        Err(response) => return response,
    };
    let _permit = match admit(ctx, &pipelines, search_options) {
        Ok(permit) => permit,
        Err(response) => return response,
    };
    let options = Table1Options::from_search_options(search_options);
    match Pipeline::table1_batch_stop(&pipelines, &options, stop) {
        Err(e) => Response::Error(e.to_string()),
        Ok(rows) => {
            let body = match req.format {
                Format::Csv => format_table1_csv(&rows, req.timing),
                Format::Text => format_table1(&rows),
            };
            Response::Ok(body.lines().map(str::to_owned).collect())
        }
    }
}

/// Runs one Pareto batch: each job's whole time×area frontier from a
/// single [`lycos::pace::search_pareto`] sweep, through the same
/// [`lycos::Pipeline`] stages (and the same knob merge) as `table1`.
/// Cancellation or an expired deadline still answers — with the
/// partial frontier over whatever the sweep had visited.
fn run_pareto(
    req: &ParetoRequest,
    options: &SearchOptions,
    stop: &StopSignal,
    ctx: ServerCtx<'_>,
) -> Response {
    let pipelines = match pipelines_for("pareto", &req.jobs, ctx.store, ctx.config.fault_injection)
    {
        Ok(pipelines) => pipelines,
        Err(response) => return response,
    };
    let _permit = match admit(ctx, &pipelines, options) {
        Ok(permit) => permit,
        Err(response) => return response,
    };
    let mut body = String::new();
    if req.format == Format::Csv {
        body.push_str(PARETO_CSV_HEADER);
        body.push('\n');
    }
    for pipeline in pipelines {
        let allocated = match pipeline.with_search_options(options.clone()).allocate() {
            Ok(allocated) => allocated,
            Err(e) => return Response::Error(e.to_string()),
        };
        let front = match allocated.pareto_with_stop(options, stop) {
            Ok(front) => front,
            Err(e) => return Response::Error(e.to_string()),
        };
        let name = allocated.cdfg.name();
        match req.format {
            Format::Csv => {
                for point in &front.points {
                    body.push_str(&pareto_csv_row(name, point));
                    body.push('\n');
                }
            }
            Format::Text => body.push_str(&format_pareto(name, &front)),
        }
    }
    Response::Ok(body.lines().map(str::to_owned).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_hosts_to_loopback() {
        let wake = |s: &str| wake_addr(s.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("192.0.2.7:7878"), "192.0.2.7:7878");
    }
}
