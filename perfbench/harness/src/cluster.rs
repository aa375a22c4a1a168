//! `cluster-ingest`: a `pg-hive serve --cluster` coordinator over two
//! durable exact-mode shard processes. Two closed-loop clients post one
//! seeded graph to `POST /ingest`, nodes before edges, round after round
//! under fresh ids; merged `GET /schema` reads follow.

use crate::gen::{self, InputProps, Template};
use crate::proc::{get_json, hash_field, post_counted, prom_counter, Server, Tally};
use crate::replay::{replay_session, SessionReplay};
use crate::trace::Tracer;
use crate::util::{dir_bytes, median, mib, ms, peak_rss_bytes, tail_percentile, wchar, J};
use crate::{progress, Ctx, Outcome, MIN_COVERAGE};
use pg_hive::{content_hash_hex, PgHive};
use pg_serve::{Client, ClusterConfig, Coordinator, SessionSpec, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const ROUND_ELEMENTS: usize = 20_000;
const BATCH_ROWS: usize = 1000;
const SETUPS: usize = 5;
const SCHEMA_READS: usize = 5;
/// Id distance between rounds.
const ROUND_STRIDE: u64 = 1 << 24;

/// One batch of the schedule: round, and the template line range.
#[derive(Clone)]
struct Batch {
    round: u64,
    lines: std::ops::Range<usize>,
}

impl Batch {
    fn render(&self, t: &Template) -> Vec<u8> {
        let mut out = Vec::new();
        t.render_range(self.lines.clone(), self.round * ROUND_STRIDE, &mut out);
        out
    }
}

/// Template line ranges of one phase (nodes or edges), dealt
/// round-robin: batch `j` goes to client `j % CLIENTS`.
fn phase_batches(lines: std::ops::Range<usize>) -> Vec<std::ops::Range<usize>> {
    lines
        .clone()
        .step_by(BATCH_ROWS)
        .map(|s| s..(s + BATCH_ROWS).min(lines.end))
        .collect()
}

/// The shard spec the coordinator forwards (the CLI default cadence).
fn shard_spec() -> SessionSpec {
    SessionSpec::default()
}

struct Cluster {
    shards: Vec<Server>,
    coordinator: Server,
    dirs: Vec<PathBuf>,
}

impl Cluster {
    fn pids(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|s| s.pid)
            .chain([self.coordinator.pid])
            .collect()
    }

    fn shutdown(self) -> Result<(), String> {
        let first = self.coordinator.shutdown(Duration::from_secs(60));
        let rest: Result<Vec<()>, String> = self
            .shards
            .into_iter()
            .map(|s| s.shutdown(Duration::from_secs(60)))
            .collect();
        first.and(rest.map(|_| ()))
    }
}

fn start_shards(ctx: &Ctx, dir: &Path, tag: &str) -> Result<(Vec<Server>, Vec<PathBuf>), String> {
    let mut shards = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..SHARDS {
        let state = dir.join(format!("{tag}-shard-{i}"));
        shards.push(Server::start(
            &ctx.bin,
            &["--state-dir".to_owned(), state.display().to_string()],
            &dir.join(format!("{tag}-shard-{i}.log")),
        )?);
        dirs.push(state);
    }
    Ok((shards, dirs))
}

fn start_cluster(ctx: &Ctx, dir: &Path, i: usize) -> Result<Cluster, String> {
    let tag = format!("setup-{i}");
    let (shards, mut dirs) = start_shards(ctx, dir, &tag)?;
    let urls: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
    let wal = dir.join(format!("{tag}-wal"));
    let coordinator = Server::start(
        &ctx.bin,
        &[
            "--cluster".to_owned(),
            urls.join(","),
            "--cluster-wal-dir".to_owned(),
            wal.display().to_string(),
        ],
        &dir.join(format!("{tag}-coordinator.log")),
    )?;
    dirs.push(wal);
    Ok(Cluster {
        shards,
        coordinator,
        dirs,
    })
}

#[derive(Default)]
struct ClientRun {
    /// (global ack order, batch) of every acknowledged batch.
    acked: Vec<(u64, Batch)>,
    latency_ms: Vec<f64>,
    rows: u64,
    bytes: u64,
    tally: Tally,
}

/// One client: its share of each phase of each round, with a barrier
/// between phases so no edge is posted before every node of its round.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: std::net::SocketAddr,
    c: usize,
    template: &Template,
    phases: &[Vec<std::ops::Range<usize>>; 2],
    deadline: Instant,
    barrier: &Barrier,
    stop: &AtomicBool,
    order: &AtomicU64,
) -> ClientRun {
    let mut client = Client::new(addr);
    let mut run = ClientRun::default();
    for round in 0u64.. {
        for phase in phases {
            for lines in phase.iter().skip(c).step_by(CLIENTS) {
                if Instant::now() >= deadline {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                let batch = Batch {
                    round,
                    lines: lines.clone(),
                };
                let body = batch.render(template);
                let t = Instant::now();
                if post_counted(&mut client, "/ingest", &body, &mut run.tally).is_some() {
                    run.latency_ms.push(ms(t.elapsed()));
                    run.acked
                        .push((order.fetch_add(1, Ordering::SeqCst), batch));
                    run.rows += lines.len() as u64;
                    run.bytes += body.len() as u64;
                }
            }
            // `stop` is only set before the first barrier and only read
            // between the two, so every client reads the same value.
            barrier.wait();
            let done = stop.load(Ordering::SeqCst);
            barrier.wait();
            if done {
                return run;
            }
        }
    }
    run
}

/// The in-process coordinator replay: the acknowledged bodies, in ack
/// order, through `Coordinator::ingest` over two fresh durable shard
/// processes, then the merged reads through `Coordinator::schema`.
struct CoordReplay {
    hash: String,
    wall: Duration,
    wal_dir: PathBuf,
}

fn coord_replay(
    ctx: &Ctx,
    dir: &Path,
    tag: &str,
    bodies: &[Vec<u8>],
    t: &mut Tracer,
) -> Result<CoordReplay, String> {
    let (shards, _) = start_shards(ctx, dir, tag)?;
    let wal_dir = dir.join(format!("{tag}-wal"));
    let mut spec = shard_spec();
    spec.checkpoint_every = crate::replay::CHECKPOINT_EVERY as u64;
    let (coordinator, warnings) = Coordinator::new(ClusterConfig {
        shards: shards.iter().map(|s| s.addr.to_string()).collect(),
        wal_dir: wal_dir.clone(),
        spec,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("coordinator: {e}"))?;
    if !warnings.is_empty() {
        return Err(format!("coordinator warnings: {warnings:?}"));
    }
    let start = Instant::now();
    for (i, body) in bodies.iter().enumerate() {
        let out = t
            .span("server.coord.ingest", Some(i as u64), |_| {
                coordinator.ingest(body)
            })
            .map_err(|e| format!("coordinator ingest of batch {i}: {e:?}"))?;
        if !out.pending.is_empty() {
            return Err(format!("batch {i} left shards pending: {:?}", out.pending));
        }
    }
    let mut hash = String::new();
    for k in 0..SCHEMA_READS {
        let view = t
            .span("core.merge.read", Some(k as u64), |_| coordinator.schema())
            .map_err(|e| format!("coordinator schema: {e:?}"))?;
        if view.degraded {
            return Err("replayed merged read is degraded".into());
        }
        hash = view.hash;
    }
    let wall = start.elapsed();
    drop(coordinator);
    for s in shards {
        s.shutdown(Duration::from_secs(60))?;
    }
    Ok(CoordReplay {
        hash,
        wall,
        wal_dir,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.fresh_dir("cluster")?;
    let mut o = Outcome::default();

    // Set-up, several times; the last cluster is the one measured.
    let mut setups = Vec::new();
    let mut kept: Option<(Cluster, Template, InputProps)> = None;
    for i in 0..if ctx.trace { 1 } else { SETUPS } {
        if let Some((prev, _, _)) = kept.take() {
            prev.shutdown()?;
        }
        let t = Instant::now();
        let g = gen::graph(ctx.seed, ROUND_ELEMENTS);
        let template = Template::from_graph(&g);
        assert!(
            template.id_span <= ROUND_STRIDE,
            "round graph larger than the id stride"
        );
        let cluster = start_cluster(ctx, &dir, i)?;
        setups.push(t.elapsed().as_secs_f64());
        let mut props = InputProps::default();
        props.add_graph(&g, template.render(0).len() as u64);
        kept = Some((cluster, template, props));
    }
    let (cluster, template, props) = kept.expect("at least one set-up");
    o.report.push(("input_round".into(), props.to_json()));
    let phases = [
        phase_batches(0..template.nodes),
        phase_batches(template.nodes..template.len()),
    ];

    progress("set-up done; loading");
    // Measure: closed loops until the deadline.
    let pids = cluster.pids();
    let wchar0: u64 = pids.iter().map(|&p| wchar(p)).sum();
    let addr = cluster.coordinator.addr;
    let barrier = Barrier::new(CLIENTS);
    let (stop, order) = (AtomicBool::new(false), AtomicU64::new(0));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (template, phases, barrier, stop, order) =
                    (&template, &phases, &barrier, &stop, &order);
                s.spawn(move || {
                    client_loop(addr, c, template, phases, deadline, barrier, stop, order)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let written = pids
        .iter()
        .map(|&p| wchar(p))
        .sum::<u64>()
        .saturating_sub(wchar0);

    // Peak RSS of the load itself; the reads' peak is reported apart.
    let rss_each: Vec<u64> = pids.iter().map(|&p| peak_rss_bytes(p)).collect();
    let rss: u64 = rss_each.iter().sum();
    o.report.push((
        "peak_rss_mb_shards_then_coordinator".into(),
        J::Arr(rss_each.iter().map(|&b| J::Num(mib(b))).collect()),
    ));
    progress("load done; merged reads");
    let mut admin = Client::new(addr);
    let mut reads = Vec::new();
    let (mut merged, mut degraded) = (String::new(), 0);
    for _ in 0..SCHEMA_READS {
        let t = Instant::now();
        let v = get_json(&mut admin, "/schema")?;
        reads.push(ms(t.elapsed()));
        if matches!(v.get("degraded"), Some(serde_json::JsonValue::Bool(true))) {
            degraded += 1;
        }
        merged = hash_field(&v)?;
    }
    o.check(
        "merged_reads_not_degraded",
        degraded == 0,
        format!("{degraded} of {SCHEMA_READS} GET /schema degraded"),
    );
    let rss_reads: u64 = pids.iter().map(|&p| peak_rss_bytes(p)).sum();
    let metrics_text = admin
        .get("/metrics")
        .map(|r| r.text())
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let shard_retries =
        prom_counter(&metrics_text, "pg_cluster_shard_retries_total").unwrap_or(0.0);
    drop(admin);
    let dirs = cluster.dirs.clone();
    progress("shutting down");
    let stopped = cluster.shutdown();
    progress("offline reference");
    o.check("graceful_shutdown", stopped.is_ok(), format!("{stopped:?}"));
    let state_bytes: u64 = dirs.iter().map(|d| dir_bytes(d)).sum();

    let mut tally = Tally::default();
    let (mut rows, mut bytes) = (0u64, 0u64);
    let mut lat = Vec::new();
    let mut acked: Vec<(u64, Batch)> = Vec::new();
    for r in runs {
        tally.add(&r.tally);
        rows += r.rows;
        bytes += r.bytes;
        lat.extend_from_slice(&r.latency_ms);
        acked.extend(r.acked);
    }
    acked.sort_by_key(|(n, _)| *n);
    o.attempted = tally.attempted;
    o.failed = tally.failed;
    if lat.is_empty() {
        return Err("no batch was acknowledged".into());
    }

    // Reference: one-shot offline discovery of every acknowledged element.
    let bodies: Vec<Vec<u8>> = acked.iter().map(|(_, b)| b.render(&template)).collect();
    let doc: Vec<u8> = bodies.concat();
    let graph = pg_store::jsonl::from_jsonl(std::str::from_utf8(&doc).map_err(|e| e.to_string())?)
        .map_err(|e| format!("acked elements do not form a graph: {e}"))?;
    let offline = content_hash_hex(
        &PgHive::new(shard_spec().hive_config())
            .discover_graph(&graph)
            .schema,
    );
    drop((graph, doc));
    o.check(
        "merged_equals_offline",
        merged == offline,
        format!(
            "merged {merged}, offline {offline} ({} batches, {rows} rows)",
            acked.len()
        ),
    );

    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    if !ctx.trace {
        let setup_s = median(&setups);
        let p50 = median(&lat);
        let m = &mut o.metrics;
        m.insert("setup_s", setup_s);
        m.insert("rows_per_s", rows as f64 / wall);
        m.insert("ack_p50_ms", p50);
        m.insert("peak_rss_mb", mib(rss));
        m.insert("state_mb", mib(state_bytes));
        m.insert("write_amp", written as f64 / bytes as f64);
        o.row("ack_samples", lat.len() as f64, "count");
        for (name, p) in [
            ("ack_p90_ms", 0.90),
            ("ack_p95_ms", 0.95),
            ("ack_p99_ms", 0.99),
        ] {
            // Reported only with at least ten samples beyond it.
            if let Some(v) = tail_percentile(&lat, p) {
                o.row(name, v, "ms");
            }
        }
        o.row("schema_read_ms", median(&reads), "ms");
        o.row("peak_rss_with_reads_mb", mib(rss_reads), "MiB");
        o.row("failed_frac", failed_frac, "ratio");
        o.row("retries", tally.retries as f64, "count");
        o.row("shard_retries", shard_retries, "count");
        return Ok(o);
    }

    // Untraced and traced coordinator replays of the same batches.
    progress("coordinator replays");
    let untraced = coord_replay(ctx, &dir, "replay", &bodies, &mut Tracer::new(false))?;
    let mut t = Tracer::new(true);
    let traced = coord_replay(ctx, &dir, "traced", &bodies, &mut t)?;
    o.check(
        "replay_equals_served",
        untraced.hash == merged,
        format!("replay {}, served {merged}", untraced.hash),
    );
    o.check(
        "traced_equals_untraced",
        traced.hash == untraced.hash,
        format!("traced {}, untraced {}", traced.hash, untraced.hash),
    );
    let coord_wall = traced.wall;
    let coord_covered = t.total_ms("server.coord.ingest") + t.total_ms("core.merge.read");

    // Decomposition from outside: the layers the coordinator calls, over
    // the same bytes. The coordinator decodes each body once; each shard
    // decodes its WAL payload again and ingests it as a session batch.
    progress("decomposition");
    let from = Instant::now();
    let mut decoded = 0u64;
    for (i, body) in bodies.iter().enumerate() {
        let (els, _) = t
            .span("store.decode", Some(i as u64), |_| {
                pg_store::read_jsonl_elements(&mut &body[..], pg_store::ErrorPolicy::Skip)
            })
            .map_err(|e| e.to_string())?;
        decoded += els.len() as u64;
    }
    let mut payloads: Vec<Vec<Vec<u8>>> = Vec::new();
    for s in 0..SHARDS {
        let path = traced.wal_dir.join(format!("shard-{s:02}.wal"));
        let recs = t
            .span("server.wal.read", None, |_| {
                Wal::open(&path).and_then(|(mut w, _)| w.read_from(0))
            })
            .map_err(|e| format!("reading {path:?}: {e}"))?;
        payloads.push(recs.into_iter().map(|r| r.payload).collect());
    }
    let mut append_ms = Vec::new();
    let (mut appends, mut wal_bytes) = (0u64, 0u64);
    let wal_copy = ctx.fresh_dir("cluster/wal-append")?;
    for (s, mine) in payloads.iter().enumerate() {
        let (mut wal, _) =
            Wal::open(&wal_copy.join(format!("shard-{s:02}.wal"))).map_err(|e| e.to_string())?;
        for (i, p) in mine.iter().enumerate() {
            let a = Instant::now();
            t.span("server.wal.append", Some(i as u64), |_| wal.append(p))
                .map_err(|e| e.to_string())?;
            append_ms.push(ms(a.elapsed()));
            appends += 1;
            wal_bytes += p.len() as u64;
        }
    }
    let shard_root = ctx.fresh_dir("cluster/shard-replay")?;
    let mut shards: Vec<SessionReplay> = Vec::new();
    for (s, mine) in payloads.iter().enumerate() {
        shards.push(replay_session(
            &format!("shard{s}"),
            &shard_spec(),
            &shard_root.join(format!("shard{s}")),
            mine.iter().map(Vec::as_slice),
            (s as u64) << 32,
            &mut t,
        )?);
    }
    let to = Instant::now();
    let decomposition_wall = ms(to - from);
    let decomposition_coverage = t.coverage(from, to);
    let coverage = (coord_covered + decomposition_coverage * decomposition_wall)
        / (ms(coord_wall) + decomposition_wall);
    t.write_jsonl(
        &ctx.work
            .join("results")
            .join(format!("spans-cluster-ingest-seed{}.jsonl", ctx.seed)),
    )
    .map_err(|e| e.to_string())?;
    o.check(
        "span_coverage",
        coverage >= MIN_COVERAGE,
        format!(
            "named spans cover {:.2}% of {:.1} ms traced wall",
            coverage * 100.0,
            ms(coord_wall) + decomposition_wall
        ),
    );

    let shard_records: u64 = shards.iter().map(|r| r.records).sum();
    let sum = |f: fn(&SessionReplay) -> u64| shards.iter().map(f).sum::<u64>() as f64;
    let reads_ms: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "core.merge.read")
        .map(|s| (s.end_us - s.start_us) / 1e3)
        .collect();
    let m = &mut o.metrics;
    m.insert("store.decode.busy_ms", t.self_ms("store.decode"));
    m.insert("store.decode.records", (decoded + shard_records) as f64);
    m.insert(
        "store.decode.passes_per_record",
        (decoded + shard_records) as f64 / rows as f64,
    );
    m.insert("core.features.busy_ms", t.self_ms("core.features"));
    m.insert(
        "core.features.distinct_structures",
        sum(|r| r.dedup_distinct),
    );
    m.insert("core.cluster.busy_ms", t.self_ms("core.cluster"));
    m.insert(
        "core.cluster.dedup_ratio",
        sum(|r| r.dedup_records) / sum(|r| r.dedup_distinct),
    );
    m.insert("core.extract.busy_ms", t.self_ms("core.extract"));
    m.insert("core.post.busy_ms", t.self_ms("core.post"));
    m.insert("core.post.runs", sum(|r| r.post_runs));
    m.insert("core.engine.busy_ms", t.total_ms("core.engine"));
    m.insert("core.admit.busy_ms", t.self_ms("core.ingest"));
    m.insert("core.admit.index_entries", sum(|r| r.index_entries));
    m.insert("core.sketch.accum_bytes", sum(|r| r.accum_bytes));
    m.insert("core.checkpoint.busy_ms", t.total_ms("core.checkpoint"));
    m.insert("core.checkpoint.count", sum(|r| r.checkpoints));
    m.insert(
        "core.checkpoint.last_bytes",
        sum(|r| r.checkpoint_last_bytes),
    );
    m.insert(
        "core.checkpoint.bytes_total",
        sum(|r| r.checkpoint_bytes_total),
    );
    m.insert("server.busy_rejections", tally.busy as f64);
    m.insert("server.wal.append_ms", median(&append_ms));
    m.insert("server.wal.appends", appends as f64);
    m.insert("server.wal.bytes", wal_bytes as f64);
    m.insert("server.coord.ingest_ms", t.total_ms("server.coord.ingest"));
    m.insert("server.coord.shard_retries", shard_retries);
    m.insert("core.merge.read_ms", median(&reads_ms));
    m.insert("trace.overhead_ms", ms(coord_wall) - ms(untraced.wall));
    m.insert("trace.coverage", coverage);
    m.insert("failed_frac", failed_frac);
    if let Some(p99) = tail_percentile(&append_ms, 0.99) {
        o.row("server.wal.append_p99_ms", p99, "ms");
    }
    o.report.push(("spans".into(), t.summary()));
    o.report
        .push(("traced_coordinator_wall_ms".into(), J::Num(ms(coord_wall))));
    o.report.push((
        "untraced_coordinator_wall_ms".into(),
        J::Num(ms(untraced.wall)),
    ));
    o.report
        .push(("decomposition_wall_ms".into(), J::Num(decomposition_wall)));
    Ok(o)
}
