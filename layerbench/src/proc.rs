//! The server under test as a child process, and the counters the
//! harness reads about it from `/proc/<pid>`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qid_server::{Request, Response};

use crate::load::Rpc;

/// Every server process alive right now, so the watchdog can stop them
/// if the run overstays its time limit.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Reads and writes on control connections give up after this long.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports utime/stime in clock ticks of `USER_HZ`, which is 100
/// on every mainstream kernel configuration.
const TICKS_PER_S: f64 = 100.0;

/// A spawned `qid serve`, killed and reaped on drop unless it was shut
/// down cleanly first.
pub struct ServerProc {
    child: Child,
    pid: u32,
    addr: SocketAddr,
    /// Held open so the server's final stdout line has a reader.
    _stdout: BufReader<ChildStdout>,
    exited: bool,
}

impl ServerProc {
    /// Starts `qid serve` on an ephemeral loopback port with the given
    /// cache directory and waits for its listening banner.
    pub fn spawn(qid: &Path, cache_dir: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(qid)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", qid.display()))?;
        let pid = child.id();
        LIVE.lock().expect("live-process list poisoned").push(pid);
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child,
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: BufReader::new(stdout),
            exited: false,
        };
        let mut banner = String::new();
        proc._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading server banner: {e}"))?;
        proc.addr = banner
            .strip_prefix("qid-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?;
        Ok(proc)
    }

    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// A control connection to the server.
    pub fn client(&self) -> Result<Rpc, String> {
        Rpc::connect(self.addr)
    }

    /// Sends `shutdown`, then waits for the process to drain and exit
    /// with status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.client()?.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("server did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
    }

    fn reaped(&mut self) {
        self.exited = true;
        LIVE.lock()
            .expect("live-process list poisoned")
            .retain(|&p| p != self.pid);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.reaped();
        }
    }
}

/// Kills every live server process (the watchdog's last resort).
pub fn kill_all() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

fn read_proc(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Server CPU time (utime + stime over every thread, live or exited),
/// seconds.
pub fn cpu_s(pid: u32) -> Result<f64, String> {
    let stat = read_proc(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Hypervisor steal summed over every CPU since boot, seconds: time the
/// machine's vCPUs were ready to run but the host ran something else.
/// Zero outside a virtual machine.
pub fn steal_s() -> Result<f64, String> {
    let stat = read_proc("/proc/stat")?;
    // `cpu user nice system idle iowait irq softirq steal ...`
    let steal = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .ok_or("malformed /proc/stat")?;
    Ok(steal as f64 / TICKS_PER_S)
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (VmHWM), megabytes.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = read_proc(&format!("/proc/{pid}/status"))?;
    let kb = status_field(&status, "VmHWM").ok_or("no VmHWM in /proc status")?;
    Ok(kb as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches, summed over the
/// server's live threads.
pub fn ctx_switches(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0;
    for task in std::fs::read_dir(&dir).map_err(|e| format!("reading {dir}: {e}"))? {
        let path = task
            .map_err(|e| format!("reading {dir}: {e}"))?
            .path()
            .join("status");
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(&path) else {
            continue;
        };
        total += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}
