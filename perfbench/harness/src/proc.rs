//! Child processes under test (`pg-hive serve` instances) and the
//! closed-loop HTTP client bookkeeping shared by the served workloads.

use crate::util::{signal, SIGINT};
use pg_serve::{Client, ClientResponse};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `pg-hive serve` child. Dropping it kills and reaps the
/// process, so no child outlives the benchmark, even on an error path.
pub struct Server {
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    pub pid: u32,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `bin serve <args>` on an ephemeral port and wait for its
    /// `listening on <addr>` announcement. stderr goes to `log`.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("creating {log:?}: {e}"))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawning {bin:?}: {e}"))?;
        let pid = child.id();
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_owned());
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            stdout: Some(reader),
            pid,
            addr: "127.0.0.1:0".parse().expect("literal"),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                server.addr = addr.parse().map_err(|_| format!("bad address {addr:?}"))?;
                Ok(server)
            }
            Err(_) => Err(format!(
                "{bin:?} serve {args:?} did not announce an address (see {log:?})"
            )),
        }
    }

    /// Graceful shutdown: SIGINT, then wait up to `timeout` for a clean
    /// exit. A process that does not exit in time is killed and the
    /// shutdown reported as failed.
    pub fn shutdown(mut self, timeout: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until shutdown");
        signal(self.pid, SIGINT);
        let deadline = Instant::now() + timeout;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!(
                        "pid {} did not exit within {timeout:?} of SIGINT",
                        self.pid
                    ));
                }
            }
        };
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("pid {} exited with {s} after SIGINT", self.pid)),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// Request accounting of one closed-loop client. Every non-200 answer
/// and every transport error is a failed operation, including a 503
/// that a retry later turned into a 200; retries are counted apart.
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub busy: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.retries += o.retries;
        self.busy += o.busy;
    }
}

/// POST `body`, retrying 503 backpressure up to five times after the
/// server's `Retry-After` (capped at 200 ms, so a refusal costs latency
/// rather than the whole window). Returns the 200 response, or `None`
/// when the operation finally failed.
pub fn post_counted(
    client: &mut Client,
    path: &str,
    body: &[u8],
    tally: &mut Tally,
) -> Option<ClientResponse> {
    for attempt in 0..6 {
        if attempt > 0 {
            tally.retries += 1;
        }
        tally.attempted += 1;
        match client.post(path, body) {
            Ok(resp) if resp.status == 200 || resp.status == 201 => return Some(resp),
            Ok(resp) if resp.status == 503 => {
                tally.failed += 1;
                tally.busy += 1;
                let wait = pg_serve::shard_client::retry_after(&resp)
                    .unwrap_or(Duration::from_millis(50))
                    .min(Duration::from_millis(200));
                std::thread::sleep(wait);
            }
            Ok(resp) => {
                tally.failed += 1;
                eprintln!("POST {path}: HTTP {} {}", resp.status, resp.text());
                return None;
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("POST {path}: {e}");
                return None;
            }
        }
    }
    None
}

/// GET `path` and parse the JSON body; any failure is an error.
pub fn get_json(client: &mut Client, path: &str) -> Result<serde_json::JsonValue, String> {
    let resp = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: HTTP {} {}", resp.status, resp.text()));
    }
    resp.json().map_err(|e| format!("GET {path}: {e}"))
}

/// The `"hash"` field of a JSON object.
pub fn hash_field(v: &serde_json::JsonValue) -> Result<String, String> {
    v.get("hash")
        .and_then(|h| h.as_str())
        .map(str::to_owned)
        .ok_or_else(|| "response carries no \"hash\"".to_owned())
}

/// An unsigned integer field of a JSON object.
pub fn u64_field(v: &serde_json::JsonValue, key: &str) -> Option<u64> {
    match v.get(key)? {
        serde_json::JsonValue::U64(n) => Some(*n),
        serde_json::JsonValue::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// The value of an unlabeled counter in Prometheus text.
pub fn prom_counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}
