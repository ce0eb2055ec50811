//! The real `lycos serve` as a child process, and a line-protocol
//! client that times each exchange.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `lycos serve --workers 2` child. Dropping it kills the process if
/// it has not been shut down.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Spawns the server on a free port and returns once it has
    /// printed its address. Its stderr goes to `log`.
    pub fn spawn(lycos: &Path, log: &Path) -> Result<ServerProc, String> {
        let file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(lycos)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--threads",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", lycos.display()))?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                server.addr = addr.to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("lycos serve exited early ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("lycos serve never reported its address".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Pings on fresh connections until the first `pong`.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut conn) = Conn::open(&self.addr) {
                if matches!(conn.request("ping").map(|x| x.status), Ok(Status::Pong)) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err("lycos serve never answered `ping`".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_owned())
    }

    /// `shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = Conn::open(&self.addr)
            .and_then(|mut c| c.request("shutdown"))
            .map(|x| x.status);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return match bye {
                    Ok(Status::Bye) => Ok(()),
                    other => Err(format!("shutdown answered {other:?}")),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("lycos serve did not exit after `shutdown`".to_owned())
    }
}

/// The address in the server's `listening on <addr> (…)` line, once
/// the whole line is written: the server may still be writing it.
fn listening_addr(log: &str) -> Option<&str> {
    let (_, rest) = log.split_once("listening on ")?;
    let (line, _) = rest.split_once('\n')?;
    line.split_whitespace().next()
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Pong,
    Bye,
    Err(String),
    Busy(String),
}

/// One request/response exchange.
#[derive(Debug)]
pub struct Exchange {
    pub status: Status,
    pub body: Vec<String>,
    /// Request sent to the status line read.
    pub ttfb: Duration,
    /// Request sent to the last body line read.
    pub total: Duration,
}

/// One client connection (`TCP_NODELAY`, like the server's side).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_owned())
    }

    /// Sends one line and reads the whole response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Exchange> {
        let started = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let status_line = self.read_line()?;
        let ttfb = started.elapsed();
        let (kind, rest) = status_line.split_once(' ').unwrap_or((&status_line, ""));
        let decode = |s: &str| lycos_serve::protocol::decode(s).unwrap_or_else(|_| s.to_owned());
        let mut body = Vec::new();
        let status = match kind {
            "ok" => {
                let n: usize = rest.parse().map_err(|_| bad(&status_line))?;
                for _ in 0..n {
                    body.push(self.read_line()?);
                }
                Status::Ok
            }
            "pong" => Status::Pong,
            "bye" => Status::Bye,
            "err" => Status::Err(decode(rest)),
            "busy" => Status::Busy(decode(rest)),
            _ => return Err(bad(&status_line)),
        };
        Ok(Exchange {
            status,
            body,
            ttfb,
            total: started.elapsed(),
        })
    }
}

fn bad(line: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("bad status line `{line}`"),
    )
}

/// Parses a `stats` body into its named counters.
pub fn stats_counters(body: &[String]) -> Result<Vec<(String, u64)>, String> {
    let [header, values] = body else {
        return Err(format!("stats body has {} lines", body.len()));
    };
    if header != lycos_serve::STATS_CSV_HEADER {
        return Err(format!("stats header drifted: {header}"));
    }
    header
        .split(',')
        .zip(values.split(','))
        .map(|(k, v)| {
            v.parse::<u64>()
                .map(|n| (k.to_owned(), n))
                .map_err(|_| format!("stats value `{v}`"))
        })
        .collect()
}

/// A scratch-file path for this run's logs and traces.
pub fn out_path(name: &str) -> PathBuf {
    Path::new(".bench_out").join(name)
}

/// The single data row of a `table1` CSV body, split into cells.
pub fn table1_cells(body: &[String]) -> Result<Vec<String>, String> {
    match body {
        [header, row] if header == lycos::explore::TABLE1_CSV_HEADER => {
            Ok(row.split(',').map(str::to_owned).collect())
        }
        [header, _] => Err(format!("table1 CSV header drifted: {header}")),
        _ => Err(format!(
            "table1 answered {} lines, expected header + 1 row",
            body.len()
        )),
    }
}

/// Index of a named `table1` CSV column.
pub fn column(name: &str) -> usize {
    lycos::explore::TABLE1_CSV_HEADER
        .split(',')
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("no `{name}` column in the table1 CSV"))
}

/// The columns that identify a `table1` answer — name, lines, the
/// heuristic, best and iterated speed-ups, the heuristic's size and
/// hardware fractions, the space size and truncation — as opposed to
/// effort telemetry a warm or incremental store legitimately changes.
pub const WINNER_COLUMNS: [&str; 9] = [
    "name",
    "lines",
    "heuristic_su_pct",
    "best_su_pct",
    "iterated_su_pct",
    "size_fraction",
    "hw_fraction",
    "space_size",
    "truncated",
];

pub fn winner_cells(cells: &[String]) -> Vec<&str> {
    WINNER_COLUMNS
        .iter()
        .map(|c| cells.get(column(c)).map_or("", String::as_str))
        .collect()
}

/// Sets a server up `times` times — spawn, first `pong`, then `prime`
/// — and keeps the last one. Returns it with the median set-up time in
/// seconds; the earlier servers are shut down.
pub fn set_up(
    lycos: &Path,
    tag: &str,
    times: usize,
    mut prime: impl FnMut(&ServerProc) -> Result<(), String>,
) -> Result<(ServerProc, f64), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut kept = None;
    for i in 0..times {
        if let Some(previous) = kept.take() {
            ServerProc::shutdown(previous)?;
        }
        let started = Instant::now();
        let server = ServerProc::spawn(lycos, &out_path(&format!("serve-{tag}-{i}.log")))?;
        server.wait_ready()?;
        prime(&server)?;
        seconds.push(started.elapsed().as_secs_f64());
        kept = Some(server);
    }
    let server = kept.ok_or("set up at least once")?;
    Ok((server, crate::stats::median(&seconds)))
}

/// The `stats` counters the per-layer report carries, read over `conn`.
pub fn publish_stats(conn: &mut Conn, report: &mut crate::report::Report) -> Result<(), String> {
    let x = conn.request("stats").map_err(|e| format!("stats: {e}"))?;
    let counters = stats_counters(&x.body)?;
    let get = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    report.set("serve.store_hits", get("hits"));
    report.set("serve.store_misses", get("misses"));
    report.set("serve.incremental", get("incremental"));
    report.set("serve.panics", get("panics"));
    Ok(())
}

/// Median `ping` round trip on one kept-alive connection, and on fresh
/// connections (which include the acceptor's wake-up), in ms.
pub fn ping_probe(addr: &str, conn: &mut Conn, n: usize) -> Result<(f64, f64), String> {
    let mut kept = Vec::with_capacity(n);
    let mut fresh = Vec::with_capacity(n);
    for _ in 0..n {
        let x = conn.request("ping").map_err(|e| format!("ping: {e}"))?;
        if x.status != Status::Pong {
            return Err(format!("ping answered {:?}", x.status));
        }
        kept.push(x.total.as_secs_f64() * 1e3);
        let started = Instant::now();
        let x = Conn::open(addr)
            .and_then(|mut c| c.request("ping"))
            .map_err(|e| format!("ping: {e}"))?;
        if x.status != Status::Pong {
            return Err(format!("ping answered {:?}", x.status));
        }
        fresh.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((crate::stats::median(&kept), crate::stats::median(&fresh)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_address_is_read_only_from_a_whole_line() {
        let line = "lycos serve: listening on 127.0.0.1:40123 (2 workers, queue 8); send `shutdown` to stop\n";
        assert_eq!(listening_addr(line), Some("127.0.0.1:40123"));
        for cut in 0..line.len() - 1 {
            assert_eq!(
                listening_addr(&line[..cut]),
                None,
                "partial line `{}`",
                &line[..cut]
            );
        }
    }
}
