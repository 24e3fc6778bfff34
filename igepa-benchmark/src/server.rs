//! The server under test, run as a child process:
//! `igepa-experiments serve --listen 127.0.0.1:0 --shards 2 --seed S
//! --scale X [--wal DIR --fsync every=32]`.

use crate::wire::Conn;
use crate::workload::SHARDS;
use igepa_engine::{EngineQuery, EngineResponse};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// How to start the server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The `igepa-experiments` executable.
    pub exe: PathBuf,
    /// `--seed`.
    pub seed: u64,
    /// `--scale`.
    pub scale: f64,
    /// `--wal DIR` (always with `--fsync every=32`).
    pub wal: Option<PathBuf>,
}

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
    /// Seconds from spawn until it answered its first `Utility` query
    /// (dataset generation, initial solve, WAL open or replay).
    pub ready_s: f64,
    /// The first `Utility` answer.
    pub first_utility: f64,
}

impl Server {
    /// Spawns the server and waits until it answers a `Utility` query.
    pub fn start(config: &ServerConfig) -> Result<Server, String> {
        let started = Instant::now();
        let mut command = Command::new(&config.exe);
        command
            .args(["serve", "--listen", "127.0.0.1:0", "--shards"])
            .arg(SHARDS.to_string())
            .arg("--seed")
            .arg(config.seed.to_string())
            .arg("--scale")
            .arg(config.scale.to_string());
        if let Some(dir) = &config.wal {
            command.arg("--wal").arg(dir).args(["--fsync", "every=32"]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", config.exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on the child is killed on every early return.
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
            ready_s: 0.0,
            first_utility: 0.0,
        };
        let mut banner = String::new();
        server
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        // "igepa-engine: 2 shards serving on 127.0.0.1:PORT[ (durable: ...)]"
        server.addr = banner
            .split_whitespace()
            .skip_while(|word| *word != "on")
            .nth(1)
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();
        let mut conn = Conn::connect(&server.addr, 1).map_err(|e| format!("connect: {e}"))?;
        server.first_utility = utility(&mut conn)?;
        server.ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // SIGKILL, the crash the restart drill recovers from; errors mean
        // the process is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Asks for the served utility.
pub fn utility(conn: &mut Conn) -> Result<f64, String> {
    match conn.query(EngineQuery::Utility)? {
        EngineResponse::Utility { total, .. } => Ok(total),
        other => Err(format!("Utility answered {other:?}")),
    }
}

/// Creates (or empties) a durability directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}
