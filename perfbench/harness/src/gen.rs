//! Seeded input generators and the input properties recorded next to
//! every result. All inputs come from `pg-synth` with the settings of
//! `bench_discovery`: 8 node types, 6 edge types, 5% unlabeled
//! elements and 30% missing optional properties.

use crate::util::J;
use pg_model::{LabelSet, PropertyGraph, Symbol};
use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use std::collections::{BTreeSet, HashSet};

/// Seed of the one schema every workload draws its instances from (the
/// `bench_discovery` default). The run's `--seed` varies the instances
/// only, so runs under different seeds measure the same workload shape.
const SCHEMA_SEED: u64 = 42;

/// A graph of about `elements` elements of the workload schema, with
/// instances drawn from `data_seed`.
pub fn graph(data_seed: u64, elements: usize) -> PropertyGraph {
    let params = SchemaParams {
        node_types: 8,
        edge_types: 6,
        ..Default::default()
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.05,
        missing_optional_rate: 0.3,
        ..NoiseProfile::clean()
    };
    let spec = SynthSpec::new(random_schema(&params, SCHEMA_SEED))
        .sized_for(elements)
        .with_noise(noise);
    synthesize(&spec, data_seed).graph
}

/// Derive an independent seed from a base seed and a stream position.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

type NodeKey = (LabelSet, BTreeSet<Symbol>);
type EdgeKey = (LabelSet, BTreeSet<Symbol>, LabelSet, LabelSet);

/// Structural properties of an input: how many elements and bytes, how
/// many distinct node and edge structures (labels + property keys, and
/// endpoint labels for edges), and the share of records whose structure
/// repeats an earlier record's — the share fingerprint and memoization
/// shortcuts can skip.
#[derive(Default)]
pub struct InputProps {
    pub elements: u64,
    pub bytes: u64,
    node_keys: HashSet<NodeKey>,
    edge_keys: HashSet<EdgeKey>,
}

impl InputProps {
    /// Add every element of `g` (its structures) and `bytes` of input.
    pub fn add_graph(&mut self, g: &PropertyGraph, bytes: u64) {
        for n in g.nodes() {
            self.node_keys.insert((n.labels.clone(), n.key_set()));
        }
        for e in g.edges() {
            let (s, t) = g.endpoint_labels(e);
            self.edge_keys.insert((e.labels.clone(), e.key_set(), s, t));
        }
        self.elements += (g.node_count() + g.edge_count()) as u64;
        self.bytes += bytes;
    }

    pub fn distinct(&self) -> u64 {
        (self.node_keys.len() + self.edge_keys.len()) as u64
    }

    pub fn repeat_share(&self) -> f64 {
        if self.elements == 0 {
            return 0.0;
        }
        1.0 - self.distinct() as f64 / self.elements as f64
    }

    pub fn to_json(&self) -> J {
        J::obj(vec![
            ("elements", J::Int(self.elements)),
            ("bytes", J::Int(self.bytes)),
            (
                "distinct_node_structures",
                J::Int(self.node_keys.len() as u64),
            ),
            (
                "distinct_edge_structures",
                J::Int(self.edge_keys.len() as u64),
            ),
            ("repeat_share", J::Num(self.repeat_share())),
        ])
    }
}

/// One JSONL line with its id fields lifted out, so the same element
/// can be re-emitted under translated ids without re-serializing it.
enum Head {
    Node { id: u64 },
    Edge { id: u64, src: u64, tgt: u64 },
}

/// A batch body whose ids can be shifted by a constant at render time:
/// the workloads replay seeded graphs under fresh ids, so every id the
/// system sees is new while generation cost stays in set-up.
pub struct Template {
    lines: Vec<(Head, String)>,
    /// Node lines, which come first.
    pub nodes: usize,
    /// Largest id in the template plus one.
    pub id_span: u64,
}

fn number_after<'a>(line: &'a str, key: &str) -> Option<(u64, &'a str)> {
    let rest = line.strip_prefix(key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    Some((rest[..end].parse().ok()?, &rest[end..]))
}

impl Template {
    /// Lift the ids out of a graph's JSONL dump (nodes first, then
    /// edges — the order `pg_store::jsonl::to_jsonl` writes).
    pub fn from_graph(g: &PropertyGraph) -> Template {
        let doc = pg_store::jsonl::to_jsonl(g);
        let mut t = Template {
            lines: Vec::new(),
            nodes: 0,
            id_span: 0,
        };
        for line in doc.lines() {
            let parsed = if let Some(rest) = line.strip_prefix(r#"{"kind":"node","#) {
                number_after(rest, r#""id":"#).map(|(id, tail)| (Head::Node { id }, tail))
            } else if let Some(rest) = line.strip_prefix(r#"{"kind":"edge","#) {
                number_after(rest, r#""id":"#).and_then(|(id, r)| {
                    let (src, r) = number_after(r, r#","src":"#)?;
                    let (tgt, r) = number_after(r, r#","tgt":"#)?;
                    Some((Head::Edge { id, src, tgt }, r))
                })
            } else {
                None
            };
            let (head, tail) =
                parsed.unwrap_or_else(|| panic!("unexpected JSONL line shape: {line}"));
            let id = match head {
                Head::Node { id } => {
                    t.nodes += 1;
                    id
                }
                Head::Edge { id, .. } => id,
            };
            t.id_span = t.id_span.max(id + 1);
            t.lines.push((head, tail.to_owned()));
        }
        t
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Render lines `range` with every id shifted by `offset`.
    pub fn render_range(&self, range: std::ops::Range<usize>, offset: u64, out: &mut Vec<u8>) {
        use std::io::Write as _;
        for (head, tail) in &self.lines[range] {
            let _ = match head {
                Head::Node { id } => write!(out, r#"{{"kind":"node","id":{}"#, id + offset),
                Head::Edge { id, src, tgt } => write!(
                    out,
                    r#"{{"kind":"edge","id":{},"src":{},"tgt":{}"#,
                    id + offset,
                    src + offset,
                    tgt + offset
                ),
            };
            out.extend_from_slice(tail.as_bytes());
            out.push(b'\n');
        }
    }

    /// Render the whole template with ids shifted by `offset`.
    pub fn render(&self, offset: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.lines.iter().map(|l| l.1.len() + 48).sum());
        self.render_range(0..self.lines.len(), offset, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_renders_the_dump_and_shifts_ids() {
        let g = graph(7, 400);
        let t = Template::from_graph(&g);
        assert_eq!(t.render(0), pg_store::jsonl::to_jsonl(&g).into_bytes());
        let shifted = String::from_utf8(t.render(1000)).unwrap();
        let back = pg_store::jsonl::from_jsonl(&shifted).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert!(back.nodes().all(|n| n.id.0 >= 1000));
    }
}
