//! Machine-readable performance tracking (`mot3d … --bench-json`).
//!
//! The `mot3d` CLI times every sweep it runs; given `--bench-json
//! <path>` it writes a small JSON document there — per-sweep wall-clock,
//! run scale, worker thread count, and an FNV-1a checksum of each
//! sweep's record stream. The checksum pins *what* was computed
//! (bit-identical streams hash equal), so a perf trajectory assembled
//! from these files can tell a genuine regression apart from a workload
//! change. `mot3d perf check` ([`crate::perfcheck`]) reads the document
//! back; see README "Performance".

use mot3d_phys::json;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Sweep name, e.g. `fig7@200ns`.
    pub name: String,
    /// Wall-clock seconds the sweep took.
    pub wall_s: f64,
    /// Result rows produced.
    pub rows: usize,
    /// FNV-1a 64-bit hex checksum of the sweep's record stream.
    pub checksum: String,
}

/// Collects [`SweepRecord`]s and writes the `BENCH_results.json`
/// document on request.
///
/// # Examples
///
/// ```
/// use mot3d_bench::perf::Recorder;
/// use std::time::Duration;
///
/// let mut rec = Recorder::new(0.35, 4);
/// rec.add_raw("fig7@200ns", Duration::from_millis(1860), 8, 0xdead_beef);
/// let json = rec.to_json();
/// assert!(json.contains("\"fig7@200ns\""));
/// assert!(json.contains("\"threads\": 4"));
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    scale: f64,
    threads: usize,
    sweeps: Vec<SweepRecord>,
}

impl Recorder {
    /// A recorder for a run at `scale` on `threads` workers.
    pub fn new(scale: f64, threads: usize) -> Self {
        Recorder {
            scale,
            threads,
            sweeps: Vec::new(),
        }
    }

    /// Corrects the recorded worker count once the actual job count is
    /// known (an ad-hoc sweep's parallelism depends on its grid size,
    /// which is only resolved after the recorder is created).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Records one finished sweep: its wall-clock time, row count, and
    /// the FNV-1a checksum [`crate::sink::PerfSink`] folds over its
    /// record stream.
    pub fn add_raw(&mut self, name: &str, wall: Duration, rows: usize, checksum: u64) {
        self.sweeps.push(SweepRecord {
            name: name.to_string(),
            wall_s: wall.as_secs_f64(),
            rows,
            checksum: format!("{checksum:016x}"),
        });
    }

    /// The sweeps recorded so far.
    pub fn sweeps(&self) -> &[SweepRecord] {
        &self.sweeps
    }

    /// Renders the JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"sweeps\": [");
        for (i, s) in self.sweeps.iter().enumerate() {
            let comma = if i + 1 < self.sweeps.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"wall_s\": {:.6}, \"rows\": {}, \"checksum\": \"{}\"}}{}",
                json::json_string(&s.name),
                s.wall_s,
                s.rows,
                s.checksum,
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors, rendered as the zero-padded
        // hex the baseline stores.
        let mut rec = Recorder::new(0.35, 1);
        for bytes in [&b""[..], b"a", b"foobar"] {
            rec.add_raw("x", Duration::ZERO, 0, fnv1a64_fold(FNV_OFFSET, bytes));
        }
        let sums: Vec<&str> = rec.sweeps().iter().map(|s| s.checksum.as_str()).collect();
        assert_eq!(
            sums,
            ["cbf29ce484222325", "af63dc4c8601ec8c", "85944171f73967e8"]
        );
    }

    #[test]
    fn identical_tables_hash_equal_different_tables_do_not() {
        let mut rec = Recorder::new(0.35, 1);
        let hash = |table: &str| fnv1a64_fold(FNV_OFFSET, table.as_bytes());
        rec.add_raw("x", Duration::from_secs(1), 8, hash("table"));
        rec.add_raw("x", Duration::from_secs(2), 8, hash("table")); // time differs
        rec.add_raw("x", Duration::from_secs(1), 8, hash("other table"));
        let s = rec.sweeps();
        assert_eq!(s[0].checksum, s[1].checksum);
        assert_ne!(s[0].checksum, s[2].checksum);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut rec = Recorder::new(0.004, 4);
        rec.add_raw("fig6", Duration::from_millis(120), 8, 1);
        rec.add_raw("fig7@200ns", Duration::from_millis(340), 8, 2);
        let doc = json::parse(&rec.to_json()).unwrap();
        assert_eq!(doc.get("schema").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("scale").and_then(|v| v.num_text()), Some("0.004"));
        assert_eq!(doc.get("threads").and_then(|v| v.as_u64()), Some(4));
        let sweeps = doc.get("sweeps").and_then(|v| v.as_array()).unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(
            sweeps[1].get("name").and_then(|v| v.as_str()),
            Some("fig7@200ns")
        );
        assert_eq!(sweeps[1].get("rows").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(
            sweeps[1].get("checksum").and_then(|v| v.as_str()),
            Some("0000000000000002")
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut rec = Recorder::new(1.0, 1);
        rec.add_raw("a\"b\\c\nd", Duration::ZERO, 0, 0);
        let json = rec.to_json();
        assert!(json.contains("\"a\\\"b\\\\c\\nd\""), "{json}");
    }
}
