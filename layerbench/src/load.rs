//! The closed-loop load: pre-encoded request lines, each with the exact
//! reply it must get, replayed over one connection per thread.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use qid_server::proto::{Request, Response, TraceSpan};

use crate::proc::{self, IO_TIMEOUT};

/// How long a load connection polls for a reply before it blocks:
/// above the p99 of a served `check` on an idle server.
const SPIN: Duration = Duration::from_micros(250);

/// One connection's request lines and their expected replies, encoded
/// before the clock starts so the client spends no CPU on encoding.
#[derive(Default)]
pub struct Script {
    lines: Vec<u8>,
    line_spans: Vec<Range<usize>>,
    replies: Vec<u8>,
    reply_spans: Vec<Range<usize>>,
    /// Whether each line is a `check` (the latency percentiles count
    /// only these).
    checks: Vec<bool>,
}

impl Script {
    /// Appends one request line and the reply it must get (both without
    /// the trailing newline).
    pub fn push(&mut self, line: &str, reply: &str, check: bool) {
        self.checks.push(check);
        for (buf, spans, text) in [
            (&mut self.lines, &mut self.line_spans, line),
            (&mut self.replies, &mut self.reply_spans, reply),
        ] {
            let start = buf.len();
            buf.extend_from_slice(text.as_bytes());
            buf.push(b'\n');
            spans.push(start..buf.len());
        }
    }

    fn len(&self) -> usize {
        self.line_spans.len()
    }
}

/// One request completed inside the measured window.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time, microseconds after the window opened.
    pub at_us: u64,
    /// Round-trip latency, nanoseconds.
    pub lat_ns: u64,
    /// Whether the request was a `check`.
    pub check: bool,
}

/// What the harness read at the end of one one-second slice of a
/// measured window.
pub struct Slice {
    /// Hypervisor steal during the slice, seconds.
    pub steal_s: f64,
    /// Server CPU time during the slice, seconds.
    pub server_cpu_s: f64,
}

/// What a closed-loop run brings home.
#[derive(Default)]
pub struct LoadResult {
    /// Requests started inside the measured window.
    pub samples: Vec<Sample>,
    /// Mean per-connection measured window, seconds.
    pub window_s: f64,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests whose reply was wrong or missing.
    pub failed: u64,
    /// The first wrong reply, for the error report.
    pub first_failure: Option<String>,
    /// Request bytes sent, warm-up and trace polls included.
    pub bytes_sent: u64,
    /// Reply bytes received, warm-up and trace polls included.
    pub bytes_received: u64,
    /// Flight-recorder spans read during the window (traced runs).
    pub spans: Vec<TraceSpan>,
    /// The window's one-second slices.
    pub slices: Vec<Slice>,
    /// Server context switches over the window.
    pub server_ctx_switches: u64,
}

impl LoadResult {
    fn merge(&mut self, other: LoadResult, connections: usize) {
        self.samples.extend(other.samples);
        self.window_s += other.window_s / connections as f64;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.spans.extend(other.spans);
    }
}

/// Replays one script per connection in a closed loop: `warmup` of
/// traffic whose latencies are discarded, then `window` measured. With
/// `trace_polls > 0` the first connection also reads the server's trace
/// ring that many times, evenly spaced through the window. Meanwhile
/// the calling thread records the steal and the CPU time of the server
/// process `pid` in each one-second slice, and the server's context
/// switches over the window.
pub fn closed_loop(
    addr: SocketAddr,
    pid: u32,
    scripts: &[Script],
    warmup: Duration,
    window: Duration,
    trace_polls: u32,
) -> Result<LoadResult, String> {
    let barrier = Barrier::new(scripts.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(i, script)| {
                let barrier = &barrier;
                let polls = if i == 0 { trace_polls } else { 0 };
                scope.spawn(move || drive(addr, script, warmup, window, polls, barrier))
            })
            .collect();
        barrier.wait();
        let opened = Instant::now() + warmup;
        std::thread::sleep(opened.saturating_duration_since(Instant::now()));
        let ctx_open = proc::ctx_switches(pid);
        let slices = slices(pid, opened, window);
        let ctx_close = proc::ctx_switches(pid);
        let mut total = LoadResult::default();
        let mut error = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(result)) => total.merge(result, scripts.len()),
                Ok(Err(e)) => error = Some(e),
                Err(_) => error = Some("a load thread panicked".to_string()),
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        total.server_ctx_switches = ctx_close? - ctx_open?;
        total.slices = slices?;
        Ok(total)
    })
}

/// Sleeps through the window from `opened`, reading the steal counter
/// and the CPU time of server `pid` at every whole-second slice
/// boundary.
fn slices(pid: u32, opened: Instant, window: Duration) -> Result<Vec<Slice>, String> {
    let n = (window.as_secs() as usize).max(1);
    let read = || -> Result<(f64, f64), String> { Ok((proc::steal_s()?, proc::cpu_s(pid)?)) };
    let mut last = read()?;
    let mut out = Vec::with_capacity(n);
    for k in 1..=n {
        let boundary = opened + window * k as u32 / n as u32;
        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
        let now = read()?;
        out.push(Slice {
            steal_s: now.0 - last.0,
            server_cpu_s: now.1 - last.1,
        });
        last = now;
    }
    Ok(out)
}

/// Connects a non-blocking, no-delay socket: the harness polls for
/// replies instead of sleeping in `read` (see [`round_trip`]).
fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connecting: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| format!("configuring socket: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?,
    );
    Ok((stream, reader))
}

/// A control connection that sends one request at a time. It blocks
/// for the reply: control calls wait on cold steps (builds, scans),
/// where a polling harness would compete with the server for a core.
pub struct Rpc {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Rpc {
    /// Connects to the server at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Rpc, String> {
        let (writer, reader) = connect(addr)?;
        writer
            .set_nonblocking(false)
            .map_err(|e| format!("configuring socket: {e}"))?;
        Ok(Rpc {
            writer,
            reader,
            reply: Vec::new(),
        })
    }

    /// Sends `request` and returns the decoded reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let line = format!("{}\n", request.encode());
        let reply = round_trip(
            &mut self.writer,
            &mut self.reader,
            line.as_bytes(),
            &mut self.reply,
        )?;
        Response::decode(reply.trim())
    }
}

fn drive(
    addr: SocketAddr,
    script: &Script,
    warmup: Duration,
    window: Duration,
    polls: u32,
    barrier: &Barrier,
) -> Result<LoadResult, String> {
    let conn = connect(addr);
    barrier.wait();
    let (mut writer, mut reader) = conn?;
    let started = Instant::now();
    let opened = started + warmup;
    let deadline = opened + window;
    let poll_every = window / (polls + 1);
    let mut next_poll = opened + poll_every;
    let poll_line = format!(
        "{}\n",
        Request::Trace {
            last: 4096,
            command: None,
            min_us: 0,
        }
        .encode()
    );
    let mut out = LoadResult {
        samples: Vec::with_capacity(1 << 18),
        ..LoadResult::default()
    };
    let mut reply = Vec::with_capacity(1 << 12);
    let mut i = 0usize;
    loop {
        let sent_at = Instant::now();
        if sent_at >= deadline {
            break;
        }
        if polls > 0 && sent_at >= next_poll && next_poll < deadline {
            next_poll += poll_every;
            let answer = round_trip(&mut writer, &mut reader, poll_line.as_bytes(), &mut reply)?;
            out.bytes_sent += poll_line.len() as u64;
            out.bytes_received += answer.len() as u64;
            match Response::decode(answer.trim()) {
                Ok(Response::Trace { spans }) => out.spans.extend(spans),
                other => return Err(format!("trace poll answered {other:?}")),
            }
            continue;
        }
        let idx = i % script.len();
        i += 1;
        let line = &script.lines[script.line_spans[idx].clone()];
        let expected = &script.replies[script.reply_spans[idx].clone()];
        out.attempted += 1;
        if let Err(e) = round_trip(&mut writer, &mut reader, line, &mut reply) {
            out.failed += 1;
            out.first_failure.get_or_insert(e);
            break;
        }
        let done = Instant::now();
        out.bytes_sent += line.len() as u64;
        out.bytes_received += reply.len() as u64;
        if reply != expected {
            out.failed += 1;
            out.first_failure.get_or_insert_with(|| {
                format!(
                    "request {} got {} expected {}",
                    String::from_utf8_lossy(line).trim(),
                    String::from_utf8_lossy(&reply).trim(),
                    String::from_utf8_lossy(expected).trim()
                )
            });
        }
        if sent_at >= opened {
            out.samples.push(Sample {
                at_us: done.saturating_duration_since(opened).as_micros() as u64,
                lat_ns: done.duration_since(sent_at).as_nanos() as u64,
                check: script.checks[idx],
            });
        }
    }
    out.window_s = Instant::now()
        .saturating_duration_since(opened)
        .as_secs_f64();
    Ok(out)
}

/// Sends one line and reads one reply line into `reply`; returns the
/// reply as text.
///
/// On a non-blocking socket the wait first polls for up to [`SPIN`],
/// yielding between polls, so the harness's vCPU does not idle between
/// fast replies. On a shared virtual machine a vCPU that idles and is
/// woken again on every round trip waits for the host to reschedule it
/// each time; that wait shows up as steal time and made throughput and
/// tail latency swing by a factor of two between runs. A reply slower
/// than [`SPIN`] is awaited in a blocking `read`, so the harness does
/// not take a core from heavy requests.
fn round_trip<'a>(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &[u8],
    reply: &'a mut Vec<u8>,
) -> Result<&'a str, String> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut sent = 0;
    while sent < line.len() {
        match writer.write(&line[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::yield_now()
            }
            Err(e) => return Err(format!("sending: {e}")),
        }
    }
    reply.clear();
    let spin_until = Instant::now() + SPIN;
    loop {
        match reader.read_until(b'\n', reply) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) => {
                return std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < spin_until => {
                std::thread::yield_now()
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                // A slow reply: stop competing with the server for a
                // core and sleep in `read` (bounded by the read
                // timeout) until it arrives.
                let socket = reader.get_ref();
                socket
                    .set_nonblocking(false)
                    .map_err(|e| format!("blocking: {e}"))?;
                let rest = reader.read_until(b'\n', reply);
                reader
                    .get_ref()
                    .set_nonblocking(true)
                    .map_err(|e| format!("non-blocking: {e}"))?;
                return match rest {
                    Ok(0) => Err("server closed the connection".to_string()),
                    Ok(_) => {
                        std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())
                    }
                    Err(e) => Err(format!("receiving: {e}")),
                };
            }
            Err(e) => return Err(format!("receiving: {e}")),
        }
    }
}

/// Median round trip, microseconds, of a one-line TCP echo between two
/// harness threads over loopback: the transport floor under a served
/// `check`, with no server involved.
pub fn loopback_floor_us(round_trips: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding echo: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo address: {e}"))?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| format!("echo accept: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("echo nodelay: {e}"))?;
            let mut writer = stream.try_clone().map_err(|e| format!("echo clone: {e}"))?;
            let mut reader = BufReader::new(stream);
            let mut line = Vec::new();
            loop {
                line.clear();
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => return Ok(()),
                    Ok(_) => writer
                        .write_all(&line)
                        .map_err(|e| format!("echo write: {e}"))?,
                    Err(e) => return Err(format!("echo read: {e}")),
                }
            }
        });
        let (mut writer, mut reader) = connect(addr)?;
        let mut reply = Vec::new();
        let line = b"{\"cmd\":\"ping\"}\n";
        let mut lat_us = Vec::with_capacity(round_trips);
        for i in 0..round_trips + round_trips / 10 {
            let t = Instant::now();
            round_trip(&mut writer, &mut reader, line, &mut reply)?;
            if i >= round_trips / 10 {
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        drop(writer);
        drop(reader);
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())??;
        Ok(crate::stats::median(&mut lat_us))
    })
}
