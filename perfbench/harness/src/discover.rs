//! `discover-250k`: the offline user path. `pg-hive discover --jsonl …
//! --format json` with CLI defaults on a seeded 250k-element graph, run
//! whole by two closed-loop clients; no server, admission or checkpoint
//! is involved.
//!
//! 250k, not the 1M of `bench_discovery`: one 1M run takes 6–9 s on a
//! 2-core Xeon, so a window held only one or two of them and the median
//! wall swung with the host's load. At 250k a run takes 2–3 s and a
//! 15-s window holds ten or more.

use crate::gen::{self, InputProps};
use crate::trace::Tracer;
use crate::util::{median, mib, ms, peak_rss_bytes, self_field, J};
use crate::{progress, Ctx, Outcome, MIN_COVERAGE};
use pg_hive::cardinality::{compute_cardinalities_cached, CardCache};
use pg_hive::cluster::{cluster_edges, cluster_nodes};
use pg_hive::extract::{integrate_edge_clusters_opts, integrate_node_clusters_opts, MergeOptions};
use pg_hive::features::FeatureSpace;
use pg_hive::{content_hash_hex, DiscoveryState, HiveConfig, PgHive};
use pg_model::SchemaGraph;
use pg_store::ErrorPolicy;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ELEMENTS: usize = 250_000;
/// Set-ups per untraced run, `CLIENTS` at a time; `setup_s` is their
/// median. One set-up generates and serializes the whole graph (1–1.5 s
/// on a 2-core Xeon).
const SETUPS: usize = 6;
/// Closed-loop clients, one per core of the 2-core reference box. A lone
/// discover run keeps one core busy, and one core's speed on a shared
/// host swings by 10–20% over seconds; two clients average both cores.
/// On that box the median run time of 15-s windows spread ±9% with one
/// client and ±3% with two.
const CLIENTS: usize = 2;

fn schema_hash(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let schema: SchemaGraph =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path:?}: {e}"))?;
    Ok(content_hash_hex(&schema))
}

/// One `pg-hive discover` child with CLI defaults; returns its wall time
/// and its peak RSS in bytes.
///
/// The peak is the child's `VmHWM`, read every few milliseconds until it
/// exits. `getrusage(RUSAGE_CHILDREN)` would not do: a child spawned
/// with a shared address space inherits this process's own peak at exec.
fn discover_once(
    ctx: &Ctx,
    input: &Path,
    out: &Path,
    log: &Path,
) -> Result<(Duration, u64), String> {
    let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(&ctx.bin)
        .arg("discover")
        .arg("--jsonl")
        .arg(input)
        .args(["--format", "json", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(log))
        .spawn()
        .map_err(|e| format!("spawning {:?}: {e}", ctx.bin))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let (status, wall, peak) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0;
            while !exited.load(Ordering::Relaxed) {
                peak = peak.max(peak_rss_bytes(pid));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let status = child.wait();
        let wall = t.elapsed();
        exited.store(true, Ordering::Relaxed);
        (status, wall, poller.join().unwrap_or(0))
    });
    let status = status.map_err(|e| format!("waiting for pg-hive discover: {e}"))?;
    if !status.success() {
        return Err(format!("pg-hive discover exited with {status}"));
    }
    Ok((wall, peak))
}

/// The reference: the serde decoder and a single-threaded engine.
fn reference_hash(input: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let (graph, _) = pg_store::jsonl::from_jsonl_with_policy_reference(&text, ErrorPolicy::Strict)
        .map_err(|e| format!("reference decode: {e}"))?;
    drop(text);
    let config = HiveConfig {
        threads: 1,
        ..HiveConfig::default()
    };
    Ok(content_hash_hex(
        &PgHive::new(config).discover_graph(&graph).schema,
    ))
}

/// The CLI path replayed in-process through the layers' public
/// functions, one span per call. Mirrors `PgHive::discover_graph` with
/// the CLI's default configuration: one batch (features → cluster →
/// extract → post-process) and the post-processing pass of `finish`.
struct Replay {
    hash: String,
    wall: Duration,
    records: u64,
    node_dedup: pg_hive::DedupStats,
    edge_dedup: pg_hive::DedupStats,
}

fn replay(input: &Path, out: &Path, t: &mut Tracer) -> Result<Replay, String> {
    let config = HiveConfig::default();
    let start = Instant::now();
    let text = t
        .span("store.read", None, |_| std::fs::read_to_string(input))
        .map_err(|e| e.to_string())?;
    let (graph, _) = t
        .span("store.decode", None, |_| {
            pg_store::jsonl::from_jsonl_with_policy(&text, ErrorPolicy::Strict)
        })
        .map_err(|e| format!("decode: {e}"))?;
    t.span("store.free", None, |_| drop(text));
    let records = (graph.node_count() + graph.edge_count()) as u64;
    let (nodes, edges) = t.span("store.load", None, |_| pg_store::load(&graph));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .map_err(|e| e.to_string())?;
    let mut state = DiscoveryState::new();
    let mut card_cache = CardCache::default();
    // Batch 0's seed is the config seed (`seed + batch_index * 0x9e37`).
    let batch_seed = config.seed;
    let post = |state: &mut DiscoveryState, cache: &mut CardCache| {
        pg_hive::constraints::infer_property_constraints(state);
        pg_hive::datatypes::infer_datatypes(state, config.datatype_sampling, config.seed);
        compute_cardinalities_cached(state, cache);
    };
    let (node_dedup, edge_dedup) = t.span("core.engine", Some(0), |t| {
        pool.install(|| {
            let fs = t.span("core.features", Some(0), |_| {
                FeatureSpace::build(&nodes, &edges, &config.embedding, batch_seed)
            });
            let mut cfg = config.clone();
            cfg.seed = batch_seed;
            let (nc, _, nd) = t.span("core.cluster", Some(0), |_| {
                cluster_nodes(&nodes, &fs, &cfg)
            });
            let (ec, _, ed) = t.span("core.cluster", Some(0), |_| {
                cluster_edges(&edges, &fs, &cfg)
            });
            let opts = MergeOptions::from_config(&config);
            t.span("core.extract", Some(0), |_| {
                integrate_node_clusters_opts(&mut state, nc, opts);
                integrate_edge_clusters_opts(&mut state, ec, opts);
            });
            t.span("core.post", Some(0), |_| post(&mut state, &mut card_cache));
            (nd, ed)
        })
    });
    t.span("core.post", None, |_| post(&mut state, &mut card_cache));
    let json = t.span("core.serialize", None, |_| {
        pg_hive::serialize::to_json(&state.schema)
    });
    t.span("store.write", None, |_| std::fs::write(out, json))
        .map_err(|e| e.to_string())?;
    let hash = content_hash_hex(&state.schema);
    t.span("store.free", None, |_| drop((graph, nodes, edges, state)));
    Ok(Replay {
        hash,
        wall: start.elapsed(),
        records,
        node_dedup,
        edge_dedup,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.fresh_dir("discover")?;
    let mut o = Outcome::default();

    // Set-up: generate and write the input (the CLI path has no server
    // or session to start). Untraced runs set up CLIENTS at a time, each
    // into a file of its own, for the reason the clients run side by
    // side; the workload reads client 0's file.
    let (rounds, width) = if ctx.trace {
        (1, 1)
    } else {
        (SETUPS / CLIENTS, CLIENTS)
    };
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..rounds {
        let done: Vec<Result<_, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..width)
                .map(|c| {
                    let path = dir.join(format!("graph-{c}.jsonl"));
                    s.spawn(move || {
                        let t = Instant::now();
                        let graph = gen::graph(ctx.seed, ELEMENTS);
                        let doc = pg_store::jsonl::to_jsonl(&graph);
                        std::fs::write(&path, &doc)
                            .map_err(|e| format!("writing {path:?}: {e}"))?;
                        Ok((t.elapsed().as_secs_f64(), graph, doc.len() as u64))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("set-up panicked".into())))
                .collect()
        });
        for (c, r) in done.into_iter().enumerate() {
            let (secs, graph, bytes) = r?;
            setups.push(secs);
            if c == 0 {
                kept = Some((graph, bytes));
            }
        }
    }
    let input = dir.join("graph-0.jsonl");
    let mut props = InputProps::default();
    if let Some((graph, bytes)) = kept {
        props.add_graph(&graph, bytes);
    }
    let input_bytes = props.bytes;
    o.report.push(("input".into(), props.to_json()));

    progress("set-up done; reference");
    let ref_hash = reference_hash(&input)?;
    progress("reference done");

    if !ctx.trace {
        // Measure: CLIENTS closed loops of whole discover runs, each
        // starting its next run until the window is spent.
        let wchar0 = self_field("io", "wchar").unwrap_or(0);
        let window = Instant::now();
        let results: Vec<Result<Vec<(f64, u64, String)>, String>> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (dir, input) = (&dir, &input);
                    s.spawn(move || {
                        let mut runs = Vec::new();
                        while runs.is_empty() || window.elapsed().as_secs_f64() < ctx.seconds {
                            let out = dir.join(format!("schema-{c}-{}.json", runs.len()));
                            let log = dir.join(format!("discover-{c}.log"));
                            let (wall, peak) = discover_once(ctx, input, &out, &log)?;
                            runs.push((wall.as_secs_f64(), peak, schema_hash(&out)?));
                        }
                        Ok(runs)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("discover client panicked".into()))
                })
                .collect()
        });
        let (mut walls, mut hashes, mut rss) = (Vec::new(), Vec::new(), 0);
        for r in results {
            for (wall, peak, hash) in r? {
                o.attempted += 1;
                walls.push(wall);
                rss = rss.max(peak);
                hashes.push(hash);
            }
        }
        // Reaped children's write counters fold into this process's.
        let written = self_field("io", "wchar")
            .unwrap_or(0)
            .saturating_sub(wchar0);
        let state = std::fs::metadata(dir.join("schema-0-0.json")).map_or(0, |m| m.len());
        let wall = median(&walls);
        let bad = hashes.iter().filter(|h| **h != ref_hash).count();
        o.check(
            "cli_equals_reference",
            bad == 0,
            format!(
                "{} runs, reference (serde decoder, threads=1) {ref_hash}, cli {:?}",
                hashes.len(),
                hashes
            ),
        );
        let setup_s = median(&setups);
        let m = &mut o.metrics;
        m.insert("setup_s", setup_s);
        m.insert("rows_per_s", CLIENTS as f64 * props.elements as f64 / wall);
        m.insert("ack_p50_ms", wall * 1e3);
        m.insert("peak_rss_mb", mib(rss));
        m.insert("state_mb", mib(state));
        m.insert(
            "write_amp",
            written as f64 / (input_bytes as f64 * walls.len() as f64),
        );
        o.row("discover_s", wall, "s");
        o.row("discover_runs", walls.len() as f64, "count");
        o.row("failed_frac", o.failed as f64 / o.attempted as f64, "ratio");
        return Ok(o);
    }

    // Traced run: one CLI run, then the in-process replay untraced and
    // traced (their difference is the tracing overhead).
    o.attempted += 1;
    let cli_out = dir.join("schema-cli.json");
    let (cli_wall, _) = discover_once(ctx, &input, &cli_out, &dir.join("discover.log"))?;
    let cli_hash = schema_hash(&cli_out)?;
    let untraced = replay(
        &input,
        &dir.join("schema-untraced.json"),
        &mut Tracer::new(false),
    )?;
    let mut t = Tracer::new(true);
    let from = Instant::now();
    let r = replay(&input, &dir.join("schema-traced.json"), &mut t)?;
    let to = Instant::now();
    let coverage = t.coverage(from, to);
    t.write_jsonl(
        &ctx.work
            .join("results")
            .join(format!("spans-discover-250k-seed{}.jsonl", ctx.seed)),
    )
    .map_err(|e| e.to_string())?;
    o.check(
        "cli_equals_reference",
        cli_hash == ref_hash,
        format!("cli {cli_hash}, reference {ref_hash}"),
    );
    o.check(
        "replay_equals_cli",
        untraced.hash == cli_hash,
        format!("replay {}, cli {cli_hash}", untraced.hash),
    );
    o.check(
        "traced_equals_untraced",
        r.hash == untraced.hash,
        format!("traced {}, untraced {}", r.hash, untraced.hash),
    );
    o.check(
        "span_coverage",
        coverage >= MIN_COVERAGE,
        format!(
            "named spans cover {:.2}% of {:.1} ms traced wall",
            coverage * 100.0,
            ms(r.wall)
        ),
    );
    let distinct = (r.node_dedup.distinct + r.edge_dedup.distinct) as f64;
    let deduped = (r.node_dedup.records + r.edge_dedup.records) as f64;
    let m = &mut o.metrics;
    m.insert("store.decode.busy_ms", t.self_ms("store.decode"));
    m.insert("store.decode.records", r.records as f64);
    m.insert(
        "store.decode.passes_per_record",
        r.records as f64 / props.elements as f64,
    );
    m.insert("store.load.busy_ms", t.self_ms("store.load"));
    m.insert("core.features.busy_ms", t.self_ms("core.features"));
    m.insert("core.features.distinct_structures", distinct);
    m.insert("core.cluster.busy_ms", t.self_ms("core.cluster"));
    m.insert("core.cluster.dedup_ratio", deduped / distinct);
    m.insert("core.extract.busy_ms", t.self_ms("core.extract"));
    m.insert("core.post.busy_ms", t.self_ms("core.post"));
    m.insert("core.post.runs", t.calls("core.post") as f64);
    m.insert("core.engine.busy_ms", t.total_ms("core.engine"));
    m.insert("trace.overhead_ms", ms(r.wall) - ms(untraced.wall));
    m.insert("trace.coverage", coverage);
    m.insert("failed_frac", o.failed as f64 / o.attempted as f64);
    o.report.push(("spans".into(), t.summary()));
    o.report.push(("traced_wall_ms".into(), J::Num(ms(r.wall))));
    o.report
        .push(("untraced_wall_ms".into(), J::Num(ms(untraced.wall))));
    o.report.push(("cli_wall_ms".into(), J::Num(ms(cli_wall))));
    Ok(o)
}
