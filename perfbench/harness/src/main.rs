//! The PG-HIVE benchmark harness: generates each workload's inputs from
//! a seed, drives the `pg-hive` binary under test, checks every output
//! against an in-process reference, and reports the end-to-end metrics
//! (untraced runs) or the per-layer metrics of a from-outside trace
//! (traced runs). `perfbench/run.py` builds and invokes it:
//!
//! ```text
//! perfbench-harness --workload <discover-250k|serve-stream|cluster-ingest>
//!     --seed <n> --seconds <s> --trace <0|1> --bin <pg-hive> --work <dir>
//! ```
//!
//! The last line of stdout is the result object; a full report
//! (provenance, input properties, every metric, checks, span summary)
//! goes to `<work>/results/`, and traced runs write their spans there
//! as JSON lines.

mod cluster;
mod discover;
mod gen;
mod proc;
mod replay;
mod stream;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use util::J;

/// End-to-end metrics, reported by every workload on untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("ack_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("state_mb", "MiB"),
    ("write_amp", "B/B"),
];

/// Per-layer metrics, reported by every workload on traced runs; a
/// layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.decode.busy_ms", "ms"),
    ("store.decode.records", "count"),
    ("store.decode.passes_per_record", "ratio"),
    ("store.load.busy_ms", "ms"),
    ("core.features.busy_ms", "ms"),
    ("core.features.distinct_structures", "count"),
    ("core.cluster.busy_ms", "ms"),
    ("core.cluster.dedup_ratio", "ratio"),
    ("core.extract.busy_ms", "ms"),
    ("core.post.busy_ms", "ms"),
    ("core.post.runs", "count"),
    ("core.engine.busy_ms", "ms"),
    ("core.admit.busy_ms", "ms"),
    ("core.admit.index_entries", "count"),
    ("core.sketch.accum_bytes", "B"),
    ("core.checkpoint.busy_ms", "ms"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.last_bytes", "B"),
    ("core.checkpoint.bytes_total", "B"),
    ("server.http.overhead_ms", "ms"),
    ("server.busy_rejections", "count"),
    ("server.wal.append_ms", "ms"),
    ("server.wal.appends", "count"),
    ("server.wal.bytes", "B"),
    ("server.coord.ingest_ms", "ms"),
    ("server.coord.shard_retries", "count"),
    ("core.merge.read_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("failed_frac", "ratio"),
];

/// Progress line on stderr, stamped with seconds since the run began.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64();
    eprintln!("[{t:7.2}s] {what}");
}

/// Share of traced wall time the named spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Everything a workload needs to run.
pub struct Ctx {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// A fresh, empty scratch directory under the work directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        Ok(dir)
    }
}

/// A figure by name, with its value and unit.
pub type Row = (String, f64, &'static str);

/// `{name: {"value": v, "unit": u}, …}`, the shape of the result line.
fn rows_json(rows: &[Row]) -> J {
    J::Obj(
        rows.iter()
            .map(|(name, value, unit)| {
                let cell = J::obj(vec![("value", J::Num(*value)), ("unit", J::str(*unit))]);
                (name.clone(), cell)
            })
            .collect(),
    )
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed and kept in the report next to the
    /// metrics (percentiles, read times, retries…), by name with unit.
    pub table: Vec<Row>,
    /// Extra report fields (input properties, per-layer self times…).
    pub report: Vec<(String, J)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_owned(), ok, detail));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    pub fn row(&mut self, name: &str, value: f64, unit: &'static str) {
        self.table.push((name.to_owned(), value, unit));
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_owned())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            bin: PathBuf::from(get("--bin")?),
            work: PathBuf::from(get("--work")?),
            seed,
            seconds,
            trace,
        },
    })
}

fn provenance(ctx: &Ctx) -> J {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    J::obj(vec![
        ("nproc", J::Int(nproc as u64)),
        ("cpu_model", J::str(cpu)),
        ("commit", J::str(std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()))),
        ("seed", J::Int(ctx.seed)),
        ("seconds", J::Num(ctx.seconds)),
        (
            "flush_policy",
            J::str(
                "pg-serve --state-dir: checkpoint every 8 batches per session (temp file, fsync, \
                 rename, directory fsync) and at graceful shutdown; coordinator WAL: fsync \
                 (sync_data) per appended sub-batch before the ack",
            ),
        ),
        (
            "fsync_note",
            J::str("fsync latency is the benchmark host's storage; it says nothing about a real device"),
        ),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    progress(&format!(
        "{} seed {} trace {}",
        args.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(ctx.work.join("results")) {
        eprintln!("perfbench-harness: creating work dir: {e}");
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "discover-250k" => discover::run(ctx),
        "serve-stream" => stream::run(ctx),
        "cluster-ingest" => cluster::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-harness: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let names: &[(&str, &str)] = if ctx.trace { PER_LAYER } else { END_TO_END };
    // Every workload defines every end-to-end metric; only a layer a
    // workload never reaches may read 0 by omission.
    if let Some((missing, _)) = END_TO_END
        .iter()
        .find(|(n, _)| !ctx.trace && !out.metrics.contains_key(n))
    {
        eprintln!("perfbench-harness: {} reported no {missing}", args.workload);
        std::process::exit(1);
    }
    let metric_rows: Vec<Row> = names
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            (name.to_owned(), value, unit)
        })
        .collect();
    let mut report = vec![
        ("workload".to_owned(), J::str(args.workload.as_str())),
        ("trace".to_owned(), J::Bool(ctx.trace)),
        ("provenance".to_owned(), provenance(ctx)),
        ("correct".to_owned(), J::Bool(out.correct())),
        ("attempted".to_owned(), J::Int(out.attempted)),
        ("failed".to_owned(), J::Int(out.failed)),
        (
            "checks".to_owned(),
            J::Arr(
                out.checks
                    .iter()
                    .map(|(n, ok, d)| {
                        J::obj(vec![
                            ("name", J::str(n.as_str())),
                            ("ok", J::Bool(*ok)),
                            ("detail", J::str(d.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".to_owned(), rows_json(&metric_rows)),
        ("table".to_owned(), rows_json(&out.table)),
    ];
    report.extend(std::mem::take(&mut out.report));
    let report = J::Obj(report).render();
    let path = ctx.work.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&path, report + "\n") {
        eprintln!("perfbench-harness: writing {path:?}: {e}");
    }

    eprintln!(
        "{} (seed {}, trace {}):",
        args.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    for (name, value, unit) in metric_rows.iter().chain(&out.table) {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    for (name, ok, detail) in &out.checks {
        eprintln!(
            "  check {name:<30} {} {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    eprintln!("  report {}", path.display());

    let line = J::obj(vec![
        ("correct", J::Bool(out.correct())),
        ("attempted", J::Int(out.attempted)),
        ("failed", J::Int(out.failed)),
        ("metrics", rows_json(&metric_rows)),
    ]);
    println!("{}", line.render());
    if !out.correct() {
        std::process::exit(1);
    }
}
