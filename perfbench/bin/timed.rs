//! The timed run: the real socket server on an ephemeral loopback port,
//! driven closed-loop over one connection. Nothing here records spans; the
//! client times each request from just before its line is written until
//! its response line has been read.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use tcim_service::{Server, ServerConfig, ServerReport, ServiceEngine, ShutdownHandle};

use crate::clock::now;
use crate::stats::{self, StealMeter};
use crate::traffic::Stream;

/// A server running on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServerReport>>,
}

pub fn start(engine: Arc<ServiceEngine>) -> Result<Running, String> {
    let server = Server::bind_tcp("127.0.0.1:0", engine, ServerConfig::default())
        .map_err(|err| format!("cannot bind the server: {err}"))?;
    let addr = server.tcp_addr().ok_or("the server has no TCP address")?;
    let shutdown = server.shutdown_handle();
    let thread = thread::spawn(move || server.run());
    Ok(Running { addr, shutdown, thread })
}

impl Running {
    /// Shuts the server down and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.trigger();
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|err| format!("the server failed: {err}"))?;
        if report.drained {
            Ok(())
        } else {
            Err("the server did not drain on shutdown".to_string())
        }
    }
}

/// A blocking line client that keeps the raw response bytes.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> Result<LineClient, String> {
        let writer = TcpStream::connect(addr).map_err(|err| format!("connect: {err}"))?;
        writer.set_nodelay(true).map_err(|err| format!("nodelay: {err}"))?;
        let reader = writer.try_clone().map_err(|err| format!("clone: {err}"))?;
        Ok(LineClient { writer, reader: BufReader::new(reader), out: Vec::new() })
    }

    /// Sends one line and reads one response line into `response`
    /// (without its newline).
    pub fn call(&mut self, line: &str, response: &mut String) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out).map_err(|err| format!("send: {err}"))?;
        response.clear();
        let read = self.reader.read_line(response).map_err(|err| format!("recv: {err}"))?;
        if read == 0 || !response.ends_with('\n') {
            return Err("the server closed the connection mid-response".to_string());
        }
        response.pop();
        Ok(())
    }
}

/// One pass of the stream, timed.
pub struct Round {
    /// Requests answered in the round.
    pub completed: usize,
    /// From the round's start to its last response.
    pub elapsed: Duration,
    /// Client-side latency of every request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole during the round.
    pub steal: f64,
}

/// What the connection did during the timed run.
pub struct ConnRun {
    /// Requests answered.
    pub completed: usize,
    /// Responses to the stream's lines, in order.
    pub responses: Vec<String>,
    pub rounds: Vec<Round>,
    /// The stream ran out of lines before the time was up.
    pub exhausted: bool,
    /// The process's peak resident set (MiB) once `min_rounds` rounds had
    /// run (read between rounds): a fixed amount of work, however fast the
    /// run went.
    pub peak_rss_mb: f64,
}

/// Runs `stream` closed-loop on one connection, one pass per round,
/// starting rounds until `seconds` have passed and at least `min_rounds`
/// have run.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    seconds: f64,
    min_rounds: usize,
) -> Result<ConnRun, String> {
    let mut client = LineClient::connect(addr)?;
    let mut run = ConnRun {
        completed: 0,
        responses: Vec::new(),
        rounds: Vec::new(),
        exhausted: false,
        peak_rss_mb: 0.0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = now();
    while !run.exhausted && (start.elapsed() < budget || run.rounds.len() < min_rounds) {
        run_round(&mut client, stream, &mut run)?;
        if run.rounds.len() <= min_rounds {
            run.peak_rss_mb = stats::peak_rss_mb()?;
        }
    }
    Ok(run)
}

fn run_round(client: &mut LineClient, stream: &Stream, run: &mut ConnRun) -> Result<(), String> {
    let steal = StealMeter::start();
    let start = now();
    let mut round =
        Round { completed: 0, elapsed: Duration::ZERO, latencies_ms: Vec::new(), steal: 0.0 };
    let mut response = String::new();
    while round.completed < stream.pass_len {
        let Some(line) = stream.lines.get(run.completed) else {
            run.exhausted = true;
            break;
        };
        let sent = now();
        client.call(&line.text, &mut response)?;
        let done = now();
        round.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
        round.elapsed = done - start;
        round.completed += 1;
        run.completed += 1;
        run.responses.push(response.clone());
    }
    round.steal = steal.share();
    // A round cut short by the end of the stream is not a whole round.
    if !run.exhausted {
        run.rounds.push(round);
    }
    Ok(())
}
