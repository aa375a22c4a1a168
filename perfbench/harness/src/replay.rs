//! In-process replay of a served session: the acknowledged request
//! bodies go, in order, through the decoder, `LiveSession::ingest_parsed`
//! and `LiveSession::persist` on the server's checkpoint cadence. The
//! untraced replay is the correctness reference for the served hashes;
//! the traced replay gives the admission, engine and checkpoint layers.

use crate::trace::Tracer;
use pg_serve::{Registry, RegistryConfig, SessionSpec};
use pg_store::{read_jsonl_elements_with, ErrorPolicy, JsonlDecoder};
use std::path::Path;

/// Checkpoint cadence of `pg-hive serve` (its `--checkpoint-every`
/// default), in applied batches.
pub const CHECKPOINT_EVERY: usize = 8;

#[derive(Default)]
pub struct SessionReplay {
    pub hash: String,
    pub batches: u64,
    pub records: u64,
    pub index_entries: u64,
    pub accum_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_last_bytes: u64,
    pub checkpoint_bytes_total: u64,
    pub dedup_records: u64,
    pub dedup_distinct: u64,
    pub post_runs: u64,
}

/// Bytes of the newest checkpoint file plus the session sidecar.
fn checkpoint_bytes(session_dir: &Path) -> u64 {
    let newest = std::fs::read_dir(session_dir.join("ckpt"))
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
                .max_by_key(|e| e.file_name())
                .and_then(|e| e.metadata().ok())
                .map_or(0, |m| m.len())
        })
        .unwrap_or(0);
    let sidecar = std::fs::metadata(session_dir.join("session.json")).map_or(0, |m| m.len());
    newest + sidecar
}

/// Replay `bodies` into a fresh durable session named `name` under
/// `state_dir` (which must hold no other session: opening a registry
/// resumes every session it finds), with `spec`'s engine configuration. Spans carry batch
/// ids from `batch_base` on.
pub fn replay_session<'a>(
    name: &str,
    spec: &SessionSpec,
    state_dir: &Path,
    bodies: impl Iterator<Item = &'a [u8]>,
    batch_base: u64,
    t: &mut Tracer,
) -> Result<SessionReplay, String> {
    let (registry, warnings) = Registry::open(RegistryConfig {
        state_dir: Some(state_dir.to_path_buf()),
        checkpoint_keep: 4,
        spec_defaults: spec.clone(),
        session_queue: 64,
    });
    if !warnings.is_empty() {
        return Err(format!("replay registry: {warnings:?}"));
    }
    // The cadence is driven from here so each checkpoint is its own span.
    let live = registry
        .create(
            name,
            SessionSpec {
                checkpoint_every: 0,
                ..spec.clone()
            },
        )
        .map_err(|_| format!("creating replay session {name}"))?;
    let session_dir = state_dir.join(name);
    let mut decoder = JsonlDecoder::new();
    let mut r = SessionReplay::default();
    for (i, body) in bodies.enumerate() {
        let batch = Some(batch_base + i as u64);
        let (elements, quarantine) = t
            .span("store.decode", batch, |_| {
                read_jsonl_elements_with(&mut decoder, &mut &body[..], ErrorPolicy::Skip)
            })
            .map_err(|e| format!("decode: {e}"))?;
        r.records += elements.len() as u64;
        let report = t
            .span("core.ingest", batch, |_| {
                live.ingest_parsed(elements, quarantine)
            })
            .map_err(|_| format!("replay ingest of batch {i} failed"))?;
        let timing = report.outcome.timing;
        // The engine reports its own stage times (`BatchTiming`); they
        // become children of the ingest span, ending where it ends.
        t.reported_children("core.ingest", &[("core.engine", timing.total)]);
        let mut stages = vec![
            ("core.features", timing.preprocess),
            ("core.cluster", timing.cluster),
            ("core.extract", timing.extract),
        ];
        stages.extend(timing.post.map(|p| ("core.post", p)));
        t.reported_children("core.engine", &stages);
        r.dedup_records += (timing.node_dedup.records + timing.edge_dedup.records) as u64;
        r.dedup_distinct += (timing.node_dedup.distinct + timing.edge_dedup.distinct) as u64;
        r.post_runs += u64::from(timing.post.is_some());
        r.batches += 1;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            t.span("core.checkpoint", batch, |_| live.persist())?;
            let bytes = checkpoint_bytes(&session_dir);
            r.checkpoints += 1;
            r.checkpoint_last_bytes = bytes;
            r.checkpoint_bytes_total += bytes;
        }
    }
    let handle = live.handle();
    r.hash = handle.version_info().1;
    r.accum_bytes = handle.memory_stats().accum_bytes as u64;
    let (_, aux) = handle.export().map_err(|e| e.to_string())?;
    r.index_entries = (aux.node_labels.len() + aux.seen_edges.len()) as u64;
    Ok(r)
}
