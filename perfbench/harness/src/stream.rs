//! `serve-stream`: a durable `pg-hive serve` child with the default
//! checkpoint cadence. Two closed-loop clients each hold one keep-alive
//! connection and post ~1000-row batches into their own
//! `{"mode":"stream"}` session; every node and edge id is new.

use crate::gen::{self, InputProps, Template};
use crate::proc::{get_json, hash_field, post_counted, u64_field, Server, Tally};
use crate::replay::{replay_session, SessionReplay};
use crate::trace::Tracer;
use crate::util::{dir_bytes, median, mib, ms, peak_rss_bytes, tail_percentile, wchar, J};
use crate::{progress, Ctx, Outcome, MIN_COVERAGE};
use pg_serve::{Client, SessionSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
/// Distinct seeded batch graphs per client; batch `b` replays graph
/// `b % TEMPLATES` under fresh ids.
const TEMPLATES: u64 = 48;
const BATCH_ROWS: usize = 1000;
const SETUPS: usize = 5;
const SCHEMA_READS: usize = 5;
/// Batches in the restart probe's session (see [`restart_probe`]).
const PROBE_BATCHES: usize = 16;
/// Id distance between consecutive batches of one client.
const STRIDE: u64 = 1 << 16;

fn session(c: u64) -> String {
    format!("s{c}")
}

/// The ids of client `c`'s batch `b` start here.
fn offset(c: u64, b: u64) -> u64 {
    ((c + 1) << 40) + b * STRIDE
}

fn spec() -> SessionSpec {
    SessionSpec {
        mode: Some("stream".to_owned()),
        ..SessionSpec::default()
    }
}

struct Setup {
    server: Server,
    templates: Vec<Vec<Template>>,
    state: PathBuf,
    props: InputProps,
}

/// Generate the batch graphs, start the server on a fresh state
/// directory and create one stream session per client.
fn setup(ctx: &Ctx, dir: &Path, i: usize) -> Result<Setup, String> {
    let mut props = InputProps::default();
    let mut templates = Vec::new();
    for c in 0..CLIENTS {
        let mut mine = Vec::new();
        for k in 0..TEMPLATES {
            let g = gen::graph(gen::mix(ctx.seed, c, k), BATCH_ROWS);
            let t = Template::from_graph(&g);
            assert!(t.id_span <= STRIDE, "batch graph larger than the id stride");
            props.add_graph(&g, t.render(0).len() as u64);
            mine.push(t);
        }
        templates.push(mine);
    }
    let state = dir.join(format!("state-{i}"));
    let server = Server::start(
        &ctx.bin,
        &["--state-dir".to_owned(), state.display().to_string()],
        &dir.join(format!("serve-{i}.log")),
    )?;
    let mut admin = Client::new(server.addr);
    let mut tally = Tally::default();
    for c in 0..CLIENTS {
        let body = format!(r#"{{"name":"{}","mode":"stream"}}"#, session(c));
        post_counted(&mut admin, "/sessions", body.as_bytes(), &mut tally)
            .ok_or_else(|| format!("creating session {}", session(c)))?;
    }
    Ok(Setup {
        server,
        templates,
        state,
        props,
    })
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientRun {
    /// Batch numbers acknowledged, in order.
    acked: Vec<u64>,
    latency_ms: Vec<f64>,
    /// Client latency minus the server-reported `elapsed_us`.
    overhead_ms: Vec<f64>,
    rows: u64,
    bytes: u64,
    last_hash: String,
    tally: Tally,
}

fn client_loop(
    addr: std::net::SocketAddr,
    c: u64,
    templates: &[Template],
    deadline: Instant,
) -> ClientRun {
    let mut client = Client::new(addr);
    let path = format!("/sessions/{}/ingest", session(c));
    let mut run = ClientRun::default();
    let mut b = 0u64;
    while Instant::now() < deadline {
        let tpl = &templates[(b % TEMPLATES) as usize];
        let body = tpl.render(offset(c, b));
        let t = Instant::now();
        if let Some(resp) = post_counted(&mut client, &path, &body, &mut run.tally) {
            let lat = ms(t.elapsed());
            let v = resp.json().ok();
            let server_us = v.as_ref().and_then(|v| u64_field(v, "elapsed_us"));
            run.latency_ms.push(lat);
            if let Some(us) = server_us {
                run.overhead_ms.push(lat - us as f64 / 1e3);
            }
            if let Some(h) = v.as_ref().and_then(|v| hash_field(v).ok()) {
                run.last_hash = h;
            }
            run.acked.push(b);
            run.rows += tpl.len() as u64;
            run.bytes += body.len() as u64;
        }
        b += 1;
    }
    run
}

fn acked_bodies(templates: &[Template], c: u64, acked: &[u64]) -> Vec<Vec<u8>> {
    acked
        .iter()
        .map(|&b| templates[(b % TEMPLATES) as usize].render(offset(c, b)))
        .collect()
}

/// Replay every client's acknowledged batches into its own session.
fn replay_all(
    bodies: &[Vec<Vec<u8>>],
    root: &Path,
    t: &mut Tracer,
) -> Result<Vec<SessionReplay>, String> {
    if root.exists() {
        std::fs::remove_dir_all(root).map_err(|e| e.to_string())?;
    }
    let spec = spec();
    (0..CLIENTS)
        .map(|c| {
            let mine = &bodies[c as usize];
            let dir = root.join(session(c));
            replay_session(
                &session(c),
                &spec,
                &dir,
                mine.iter().map(Vec::as_slice),
                c << 32,
                t,
            )
        })
        .collect()
}

/// Graceful SIGINT followed by a restart must resume a session to the
/// same hash. The probe runs on its own durable server with the first
/// `PROBE_BATCHES` batches client 0 had acknowledged, not on the
/// measured sessions: restoring a session parses its `session.json`
/// sidecar with the vendored `serde_json`, whose string parsing is
/// quadratic in the document size, so the measured sessions (several
/// MB of sidecar after a ten-second window) take minutes to restart.
/// Returns the restart time (spawn to listening).
fn restart_probe(
    ctx: &Ctx,
    dir: &Path,
    acked: &[Vec<u8>],
    tally: &mut Tally,
    o: &mut Outcome,
) -> Result<f64, String> {
    let bodies = &acked[..PROBE_BATCHES.min(acked.len())];
    let state = dir.join("probe-state");
    let args = ["--state-dir".to_owned(), state.display().to_string()];
    let server = Server::start(&ctx.bin, &args, &dir.join("probe.log"))?;
    let mut client = Client::new(server.addr);
    post_counted(
        &mut client,
        "/sessions",
        br#"{"name":"probe","mode":"stream"}"#,
        tally,
    )
    .ok_or("creating the probe session")?;
    for body in bodies {
        post_counted(&mut client, "/sessions/probe/ingest", body, tally).ok_or("probe ingest")?;
    }
    drop(client);
    let stopped = server.shutdown(Duration::from_secs(60));
    o.check(
        "probe_graceful_shutdown",
        stopped.is_ok(),
        format!("{stopped:?}"),
    );
    let t = Instant::now();
    let restarted = Server::start(&ctx.bin, &args, &dir.join("probe-restart.log"))?;
    let restart_s = t.elapsed().as_secs_f64();
    let resumed = hash_field(&get_json(
        &mut Client::new(restarted.addr),
        "/sessions/probe",
    )?)?;
    let stopped = restarted.shutdown(Duration::from_secs(60));
    o.check(
        "probe_restart_shutdown",
        stopped.is_ok(),
        format!("{stopped:?}"),
    );
    let replay = replay_session(
        "probe",
        &spec(),
        &dir.join("probe-replay"),
        bodies.iter().map(Vec::as_slice),
        0,
        &mut Tracer::new(false),
    )?;
    o.check(
        "restart_resumes",
        resumed == replay.hash,
        format!(
            "{} batches: after restart {resumed}, replay {}",
            bodies.len(),
            replay.hash
        ),
    );
    Ok(restart_s)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.fresh_dir("stream")?;
    let mut o = Outcome::default();

    // Set-up, several times; the last instance is the one measured.
    let mut setups = Vec::new();
    let mut kept: Option<Setup> = None;
    for i in 0..if ctx.trace { 1 } else { SETUPS } {
        if let Some(prev) = kept.take() {
            prev.server.shutdown(Duration::from_secs(30))?;
        }
        let t = Instant::now();
        let s = setup(ctx, &dir, i)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let Setup {
        server,
        templates,
        state,
        props,
    } = kept.expect("at least one set-up");
    o.report.push(("input_batches".into(), props.to_json()));

    progress("set-up done; loading");
    // Measure: both clients run closed loops until the deadline.
    let pid = server.pid;
    let wchar0 = wchar(pid);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let tpls = &templates[c as usize];
                let addr = server.addr;
                s.spawn(move || client_loop(addr, c, tpls, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let written = wchar(pid).saturating_sub(wchar0);
    let rss = peak_rss_bytes(pid);

    progress("load done; schema reads");
    let mut admin = Client::new(server.addr);
    let mut reads = Vec::new();
    let mut served = Vec::new();
    for c in 0..CLIENTS {
        for _ in 0..SCHEMA_READS {
            let t = Instant::now();
            get_json(&mut admin, &format!("/sessions/{}/schema", session(c)))?;
            reads.push(ms(t.elapsed()));
        }
        served.push(hash_field(&get_json(
            &mut admin,
            &format!("/sessions/{}", session(c)),
        )?)?);
    }
    drop(admin);
    let stopped = server.shutdown(Duration::from_secs(60));
    o.check("graceful_shutdown", stopped.is_ok(), format!("{stopped:?}"));
    let state_bytes = dir_bytes(&state);

    let mut tally = Tally::default();
    let (mut rows, mut bytes) = (0u64, 0u64);
    let (mut lat, mut overhead) = (Vec::new(), Vec::new());
    for r in &runs {
        tally.add(&r.tally);
        rows += r.rows;
        bytes += r.bytes;
        lat.extend_from_slice(&r.latency_ms);
        overhead.extend_from_slice(&r.overhead_ms);
    }
    if lat.is_empty() {
        return Err("no batch was acknowledged".into());
    }
    for (c, r) in runs.iter().enumerate() {
        o.check(
            &format!("ack_hash_equals_session_{c}"),
            r.last_hash == served[c],
            format!("last ack {} vs GET {}", r.last_hash, served[c]),
        );
    }

    // Reference: the same batches replayed in-process.
    let bodies: Vec<Vec<Vec<u8>>> = (0..CLIENTS)
        .map(|c| acked_bodies(&templates[c as usize], c, &runs[c as usize].acked))
        .collect();
    drop(templates);
    progress("replay");
    let mut untraced = Tracer::new(false);
    let t = Instant::now();
    let reference = replay_all(&bodies, &dir.join("replay"), &mut untraced)?;
    let untraced_wall = t.elapsed();
    for c in 0..CLIENTS as usize {
        o.check(
            &format!("served_equals_replay_{c}"),
            served[c] == reference[c].hash,
            format!(
                "served {}, replay {} ({} batches)",
                served[c], reference[c].hash, reference[c].batches
            ),
        );
    }

    progress("restart probe");
    let restart_s = restart_probe(ctx, &dir, &bodies[0], &mut tally, &mut o)?;
    o.attempted = tally.attempted;
    o.failed = tally.failed;

    let p50 = median(&lat);
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    if !ctx.trace {
        let setup_s = median(&setups);
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
        o.row("restart_probe_s", restart_s, "s");
        o.row("failed_frac", failed_frac, "ratio");
        o.row("retries", tally.retries as f64, "count");
        return Ok(o);
    }

    // Traced replay of the same batches.
    progress("traced replay");
    let mut t = Tracer::new(true);
    let from = Instant::now();
    let traced = replay_all(&bodies, &dir.join("replay-traced"), &mut t)?;
    let to = Instant::now();
    let coverage = t.coverage(from, to);
    t.write_jsonl(
        &ctx.work
            .join("results")
            .join(format!("spans-serve-stream-seed{}.jsonl", ctx.seed)),
    )
    .map_err(|e| e.to_string())?;
    for c in 0..CLIENTS as usize {
        o.check(
            &format!("traced_equals_untraced_{c}"),
            traced[c].hash == reference[c].hash,
            format!("traced {}, untraced {}", traced[c].hash, reference[c].hash),
        );
    }
    o.check(
        "span_coverage",
        coverage >= MIN_COVERAGE,
        format!(
            "named spans cover {:.2}% of {:.1} ms traced wall",
            coverage * 100.0,
            ms(to - from)
        ),
    );
    let sum = |f: fn(&SessionReplay) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let m = &mut o.metrics;
    m.insert("store.decode.busy_ms", t.self_ms("store.decode"));
    m.insert("store.decode.records", sum(|r| r.records));
    m.insert(
        "store.decode.passes_per_record",
        sum(|r| r.records) / rows as f64,
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
    if !overhead.is_empty() {
        m.insert("server.http.overhead_ms", median(&overhead));
    }
    m.insert("server.busy_rejections", tally.busy as f64);
    m.insert("trace.overhead_ms", ms(to - from) - ms(untraced_wall));
    m.insert("trace.coverage", coverage);
    m.insert("failed_frac", failed_frac);
    o.report.push(("spans".into(), t.summary()));
    o.report
        .push(("traced_wall_ms".into(), J::Num(ms(to - from))));
    o.report
        .push(("untraced_wall_ms".into(), J::Num(ms(untraced_wall))));
    Ok(o)
}
