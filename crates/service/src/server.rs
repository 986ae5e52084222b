//! The socket serving tier: a `std::net` listener (TCP or Unix-domain)
//! multiplexing the JSONL protocol over persistent connections.
//!
//! Deliberately dependency-free and thread-per-connection — the same
//! hand-rolled spirit as the vendored mini-rayon. Each accepted connection
//! gets a **reader** thread (splits the byte stream into lines) feeding a
//! bounded channel into a **worker** thread (parses, serves through the
//! shared [`ServiceEngine`], writes the response). Because one worker
//! drains one ordered queue, responses leave each connection **in request
//! order** and remain the same pure function of the request the batch path
//! computes — the golden files diff byte-identically over a socket.
//!
//! Flow control happens at three layers:
//!
//! * **per-connection window** ([`ServerConfig::window`]): the reader stops
//!   pulling bytes once `window` requests are queued unserved, so a client
//!   that pipelines faster than it reads responses is throttled by TCP
//!   backpressure instead of ballooning server memory;
//! * **global in-flight cap** ([`ServerConfig::max_inflight`]): a counting
//!   semaphore bounds concurrently *executing* requests across all
//!   connections. Excess requests wait (they never fail), so admission
//!   control cannot change any response;
//! * **connection cap** ([`ServerConfig::max_connections`]): connections
//!   beyond the cap receive a one-line `"ok": false` rejection and are
//!   closed — the only admission decision visible on the wire.
//!
//! Graceful shutdown — triggered by SIGINT/SIGTERM ([`install_ctrl_c`]), a
//! `{"op":"shutdown"}` request, or [`Server::shutdown_handle`] — stops the
//! accept loop, lets readers wind down, drains every queued request, then
//! waits up to [`ServerConfig::shutdown_grace`] for workers to finish before
//! [`Server::run`] returns a [`ServerReport`] saying whether the drain
//! completed.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::engine::ServiceEngine;
use crate::error::{Result, ServiceError};
use crate::protocol::{error_response, error_response_at, Op, Request};
use crate::stats::StatsSnapshot;

/// How often blocked loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Socket read timeout: the longest a reader thread can ignore shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Serving-tier knobs, validated eagerly by [`ServerConfig::validate`]
/// (every error names the offending knob, same convention as
/// `ProblemSpec::with_*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum simultaneously open connections; further connects receive a
    /// one-line rejection and are closed.
    pub max_connections: usize,
    /// Maximum concurrently executing requests across all connections;
    /// excess requests wait for a slot (they are never rejected).
    pub max_inflight: usize,
    /// Per-connection pipelining window: how many requests may sit parsed
    /// or queued ahead of the one being served before the reader stops
    /// pulling bytes.
    pub window: usize,
    /// How long shutdown waits for in-flight work to drain before giving up
    /// (the [`ServerReport`] records which way it went).
    pub shutdown_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_inflight: 256,
            window: 32,
            shutdown_grace: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Checks every knob, naming the offending one.
    ///
    /// # Errors
    ///
    /// Returns a bad-request error naming the knob that is out of range.
    pub fn validate(&self) -> Result<()> {
        for (value, knob) in [
            (self.max_connections, "max_connections"),
            (self.max_inflight, "max_inflight"),
            (self.window, "window"),
        ] {
            if value == 0 {
                return Err(ServiceError::bad_request(format!(
                    "server config '{knob}' must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

/// What [`Server::run`] hands back after shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Whether every in-flight request finished within the grace period
    /// (`false` means connections were abandoned mid-work).
    pub drained: bool,
    /// The final stats snapshot — the same payload the `stats` op serves,
    /// frozen at shutdown (also logged by `tcim_serve`).
    pub stats: StatsSnapshot,
}

/// A handle that asks a running [`Server`] to shut down gracefully from
/// another thread (the in-process analog of SIGINT).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; idempotent.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A hand-rolled counting semaphore (std has none): the global
/// `max_inflight` throttle. Blocking, never failing — a queued request
/// waits for a permit rather than being rejected, so admission control is
/// invisible in the response stream.
struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore { permits: Mutex::new(permits), available: Condvar::new() }
    }

    fn acquire(&self) -> SemaphorePermit<'_> {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            permits = self.available.wait(permits).unwrap_or_else(PoisonError::into_inner);
        }
        *permits -= 1;
        SemaphorePermit { semaphore: self }
    }
}

struct SemaphorePermit<'a> {
    semaphore: &'a Semaphore,
}

impl Drop for SemaphorePermit<'_> {
    fn drop(&mut self) {
        *self.semaphore.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.semaphore.available.notify_one();
    }
}

/// The two stream flavors behind one object-safe surface (`TcpStream` and
/// `UnixStream` share no std trait beyond `Read`/`Write`).
trait Stream: Read + Write + Send {
    fn split(&self) -> io::Result<Box<dyn Stream>>;
    fn set_read_timeout_on(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn split(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_on(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

#[cfg(unix)]
impl Stream for UnixStream {
    fn split(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_on(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn Stream>> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(stream))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // A Unix socket leaves its filesystem entry behind; clean it up so
        // the next bind of the same path succeeds.
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A JSONL socket server over a shared [`ServiceEngine`]. See the module
/// docs for the connection model, flow control and shutdown semantics.
pub struct Server {
    listener: Listener,
    local_addr: Option<SocketAddr>,
    engine: Arc<ServiceEngine>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds a TCP listener (`"127.0.0.1:0"` picks an ephemeral port —
    /// query it with [`Server::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an invalid `config` (the error
    /// names the knob) as `InvalidInput`.
    pub fn bind_tcp(
        addr: impl ToSocketAddrs,
        engine: Arc<ServiceEngine>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        config.validate().map_err(|err| io::Error::new(io::ErrorKind::InvalidInput, err))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr().ok();
        Ok(Server {
            listener: Listener::Tcp(listener),
            local_addr,
            engine,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Binds a Unix-domain listener at `path` (removed again on shutdown).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (including "address already in use" when
    /// the socket file exists); rejects an invalid `config` as
    /// `InvalidInput`.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl AsRef<Path>,
        engine: Arc<ServiceEngine>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        config.validate().map_err(|err| io::Error::new(io::ErrorKind::InvalidInput, err))?;
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener: Listener::Unix(listener, path),
            local_addr: None,
            engine,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound TCP address (`None` for Unix-domain listeners).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A handle that triggers graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown) }
    }

    /// Accepts and serves connections until shutdown is requested (SIGINT
    /// via [`install_ctrl_c`], a `{"op":"shutdown"}` request, or a
    /// [`ShutdownHandle`]), then drains in-flight work and reports.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection I/O errors only end
    /// that connection.
    pub fn run(self) -> io::Result<ServerReport> {
        self.listener.set_nonblocking()?;
        let inflight = Arc::new(Semaphore::new(self.config.max_inflight));
        let stats = Arc::clone(self.engine.stats());
        let active = Arc::new(Mutex::new(0usize));

        while !self.shutdown.load(Ordering::SeqCst) && !sig::triggered() {
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                    continue;
                }
                // Transient per-connection failures (reset before accept,
                // interrupted syscall) do not take the server down.
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(err) => return Err(err),
            };

            // Admission: past the cap the client gets one parseable error
            // line instead of a silent hangup.
            {
                let mut count = active.lock().unwrap_or_else(PoisonError::into_inner);
                if *count >= self.config.max_connections {
                    drop(count);
                    stats.connection_rejected();
                    let rejection = error_response(
                        None,
                        None,
                        &format!(
                            "server at connection capacity ({}); retry later",
                            self.config.max_connections
                        ),
                    );
                    let mut stream = stream;
                    let _ = writeln!(stream, "{rejection}");
                    continue;
                }
                *count += 1;
            }
            stats.connection_opened();

            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            let inflight = Arc::clone(&inflight);
            let window = self.config.window;
            let active = Arc::clone(&active);
            thread::spawn(move || {
                handle_connection(stream, engine, shutdown, inflight, window);
                *active.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
            });
        }

        // Propagate externally observed shutdown (signal handler) to the
        // reader threads, which poll only the server's own flag.
        self.shutdown.store(true, Ordering::SeqCst);

        // Drain: readers notice the flag within READ_TIMEOUT and stop
        // feeding; workers finish what is queued. Past the grace period the
        // remaining connections are abandoned and the report says so.
        #[expect(
            clippy::disallowed_methods,
            reason = "the shutdown grace deadline bounds draining; it never reaches a response"
        )]
        let deadline = Instant::now() + self.config.shutdown_grace;
        let drained = loop {
            if *active.lock().unwrap_or_else(PoisonError::into_inner) == 0 {
                break true;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "drain-loop deadline check, observability only"
            )]
            if Instant::now() >= deadline {
                break false;
            }
            thread::sleep(POLL_INTERVAL);
        };

        // Dropping the listener unlinks a Unix socket path.
        drop(self.listener);
        Ok(ServerReport { drained, stats: self.engine.stats_snapshot() })
    }
}

/// One accepted connection: reader half feeds a bounded channel, worker
/// half serves in order. Runs on the connection's own thread; returns when
/// the peer disconnects, shutdown is requested, or a write fails.
fn handle_connection(
    stream: Box<dyn Stream>,
    engine: Arc<ServiceEngine>,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<Semaphore>,
    window: usize,
) {
    let stats = Arc::clone(engine.stats());
    if stream.set_read_timeout_on(Some(READ_TIMEOUT)).is_err() {
        stats.connection_closed();
        return;
    }
    let writer = match stream.split() {
        Ok(writer) => writer,
        Err(_) => {
            stats.connection_closed();
            return;
        }
    };

    // The channel bound is the pipelining window: `send` blocks once
    // `window` requests sit unserved, which stalls the reader, which stalls
    // the peer's TCP window — backpressure without buffering.
    let (tx, rx) = sync_channel::<(u64, String)>(window);
    let worker = {
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || serve_queue(rx, writer, engine, shutdown, inflight))
    };

    read_lines(stream, &shutdown, |seq, line| tx.send((seq, line)).is_ok());
    drop(tx); // EOF for the worker: it drains the queue, then exits.
    let _ = worker.join();
    stats.connection_closed();
}

/// Splits the raw byte stream into trimmed lines, skipping blanks and `#`
/// comments (same grammar as batch mode), and feeds `deliver` until EOF, a
/// read error, shutdown, or `deliver` returning `false`. A read timeout
/// (`WouldBlock` / `TimedOut`) is a tick: `read_until` has already moved
/// the bytes it read into `line`, so a partial line survives it.
fn read_lines(
    stream: impl Read,
    shutdown: &AtomicBool,
    mut deliver: impl FnMut(u64, String) -> bool,
) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut seq = 0u64;
    loop {
        // Re-check the flag before any read that may block, i.e. once the
        // lines already buffered have been delivered.
        if reader.buffer().is_empty() && shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(_) => {}
            Err(err)
                if matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                continue; // timeout tick: re-check the shutdown flag
            }
            Err(_) => return,
        }
        // `read_until` stops short of a newline only at EOF, where a
        // trailing unterminated line still counts.
        let at_eof = !line.ends_with(b"\n");
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if !text.is_empty() && !text.starts_with('#') {
            seq += 1;
            if !deliver(seq, text.to_string()) {
                return;
            }
        }
        if at_eof {
            return;
        }
        line.clear();
    }
}

/// The worker half: serves queued lines strictly in order, one global
/// in-flight permit per executing request, and writes each response
/// followed by a flush (one line out per line in).
fn serve_queue(
    rx: Receiver<(u64, String)>,
    writer: Box<dyn Stream>,
    engine: Arc<ServiceEngine>,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<Semaphore>,
) {
    let mut out = BufWriter::new(writer);
    for (seq, line) in rx {
        let permit = inflight.acquire();
        let response = match Request::parse_line_correlated(&line) {
            Ok(request) => {
                let response = engine.serve(&request);
                if matches!(request.op, Op::Shutdown) {
                    shutdown.store(true, Ordering::SeqCst);
                }
                response
            }
            Err((id, err)) => {
                engine.stats().record_parse_error();
                error_response_at(id.as_ref(), Some(seq), &err.to_string())
            }
        };
        drop(permit);
        if writeln!(out, "{response}").and_then(|()| out.flush()).is_err() {
            return; // peer gone; the reader will notice on its next send
        }
    }
}

/// SIGINT/SIGTERM plumbing. The workspace is dependency-free (no `libc`
/// crate), so the `signal(2)` binding is declared by hand; the handler does
/// the only async-signal-safe thing possible — store to a static atomic —
/// and [`Server::run`] polls it alongside its own flag.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    pub(super) fn triggered() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub(super) fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` is declared with its POSIX signature (the
        // return value — the previous handler — is pointer-sized and
        // ignored). `on_signal` only stores to a static atomic, which is
        // async-signal-safe.
        #[expect(unsafe_code, reason = "no libc crate: signal(2) is declared by hand")]
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub(super) fn install() {}
}

/// Installs SIGINT/SIGTERM handlers that trigger graceful shutdown of every
/// running [`Server`] in this process (ctrl-c drains instead of killing).
/// Call once, before [`Server::run`]. No-op outside Unix.
pub fn install_ctrl_c() {
    sig::install();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn config_validation_names_the_knob() {
        assert!(ServerConfig::default().validate().is_ok());
        for (config, knob) in [
            (ServerConfig { max_connections: 0, ..Default::default() }, "max_connections"),
            (ServerConfig { max_inflight: 0, ..Default::default() }, "max_inflight"),
            (ServerConfig { window: 0, ..Default::default() }, "window"),
        ] {
            let err = config.validate().unwrap_err().to_string();
            assert!(err.contains(knob), "expected '{knob}' in: {err}");
        }
    }

    #[test]
    fn semaphore_bounds_and_releases() {
        let semaphore = Arc::new(Semaphore::new(2));
        let a = semaphore.acquire();
        let _b = semaphore.acquire();
        // Third acquire must block until a permit returns.
        let blocked = {
            let semaphore = Arc::clone(&semaphore);
            thread::spawn(move || {
                let _c = semaphore.acquire();
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(!blocked.is_finished(), "third acquire must wait");
        drop(a);
        blocked.join().unwrap();
    }

    #[test]
    fn shutdown_handles_are_idempotent_and_shared() {
        let flag = Arc::new(AtomicBool::new(false));
        let handle = ShutdownHandle { flag: Arc::clone(&flag) };
        assert!(!handle.is_triggered());
        handle.trigger();
        handle.trigger();
        assert!(handle.is_triggered());
        assert!(flag.load(Ordering::SeqCst));
    }

    /// A scripted peer: each `read` hands out the next chunk (as much of it
    /// as fits the caller's buffer) or error; an empty script is EOF.
    struct Script(VecDeque<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(err)) => Err(err),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn tick(kind: io::ErrorKind) -> io::Result<Vec<u8>> {
        Err(io::Error::from(kind))
    }

    fn lines_of(script: Vec<io::Result<Vec<u8>>>) -> Vec<(u64, String)> {
        let mut lines = Vec::new();
        read_lines(Script(script.into()), &AtomicBool::new(false), |seq, line| {
            lines.push((seq, line));
            true
        });
        lines
    }

    #[test]
    fn read_lines_keeps_partial_lines_across_ticks_and_skips_comments() {
        let lines = lines_of(vec![
            Ok(b"{\"id\":".to_vec()),
            tick(io::ErrorKind::WouldBlock),
            Ok(b"1}\r\n# comment\n\n  \r\nsecond\n  ta".to_vec()),
            tick(io::ErrorKind::TimedOut),
            Ok(b"il  ".to_vec()),
        ]);
        let expected = [(1, "{\"id\":1}"), (2, "second"), (3, "tail")];
        assert_eq!(lines, expected.map(|(seq, line)| (seq, line.to_string())));
    }

    #[test]
    fn read_lines_splits_a_dense_pipeline_delivered_in_one_read() {
        let batch: String = (0..10_000).map(|i| format!("{{\"id\":{i}}}\n")).collect();
        let lines = lines_of(vec![Ok(batch.into_bytes())]);
        assert_eq!(lines.len(), 10_000);
        assert_eq!(lines[9_999], (10_000, "{\"id\":9999}".to_string()));
    }

    #[test]
    fn read_lines_stops_on_shutdown_or_a_refusing_consumer() {
        // Lines already buffered are delivered; the flag stops the next read.
        let shutdown = AtomicBool::new(false);
        let script =
            vec![Ok(b"a\nb\n".to_vec()), tick(io::ErrorKind::WouldBlock), Ok(b"c\n".to_vec())];
        let mut seen = Vec::new();
        read_lines(Script(script.into()), &shutdown, |_, line| {
            seen.push(line);
            shutdown.store(true, Ordering::SeqCst);
            true
        });
        assert_eq!(seen, ["a", "b"]);

        let mut seen = Vec::new();
        read_lines(
            Script(vec![Ok(b"a\nb\n".to_vec())].into()),
            &AtomicBool::new(false),
            |_, line| {
                seen.push(line);
                false
            },
        );
        assert_eq!(seen, ["a"]);
    }
}
