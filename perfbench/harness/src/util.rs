//! Small shared helpers: order statistics, `/proc` readers, process
//! signals and resource usage, directory sizes, and a minimal JSON
//! writer for the result lines.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (nearest rank) of `values`, but only when at least
/// ten samples lie strictly beyond it; `None` otherwise.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    // Samples strictly beyond the rank: n - rank - 1 of them.
    (n - rank > 10).then(|| v[rank])
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// One numeric field of `/proc/<pid>/<file>` (`"VmHWM"` in `status`,
/// `"wchar"` in `io`), as the first integer on its line.
pub fn proc_field(pid: u32, file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()?;
    proc_value(&text, key)
}

/// The same for the calling process.
pub fn self_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    proc_value(&text, key)
}

fn proc_value(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of a live process, in bytes.
pub fn peak_rss_bytes(pid: u32) -> u64 {
    proc_field(pid, "status", "VmHWM").unwrap_or(0) * 1024
}

/// Bytes a live process has passed to write-like syscalls (`wchar`).
pub fn wchar(pid: u32) -> u64 {
    proc_field(pid, "io", "wchar").unwrap_or(0)
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `SIGINT`, the graceful-shutdown signal of `pg-hive serve`.
pub const SIGINT: i32 = 2;

/// Send `sig` to `pid`.
pub fn signal(pid: u32, sig: i32) -> bool {
    // SAFETY: kill(2) takes plain integers and has no memory effects.
    unsafe { kill(pid as i32, sig) == 0 }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A JSON value for the result lines. The vendored `serde_json` has no
/// `json!` macro; this keeps report assembly short and prints floats
/// with every digit (`{}` on `f64` is the shortest exact round-trip).
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: Vec<(K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(n) => {
                let _ = write!(out, "{n}");
            }
            J::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            J::Str(s) => write_str(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.99), None, "one sample beyond p99");
    }

    #[test]
    fn proc_values_parse() {
        assert_eq!(proc_value("VmHWM:\t  1234 kB\n", "VmHWM"), Some(1234));
        assert_eq!(proc_value("rchar: 5\nwchar: 77\n", "wchar"), Some(77));
        assert!(self_field("io", "wchar").is_some());
    }

    #[test]
    fn json_renders() {
        let j = J::obj(vec![("a", J::Num(0.5)), ("b", J::str("x\"y"))]);
        assert_eq!(j.render(), r#"{"a": 0.5, "b": "x\"y"}"#);
    }
}
