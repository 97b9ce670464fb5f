//! The output-correctness gate for sweep passes.
//!
//! Every pass over a plan folds its record stream — the canonical
//! `record_json_line` serialisation plus a newline per record, exactly
//! what `mot3d perf check` hashes — into an FNV-1a checksum. At the
//! default workload seed the checksum must equal the value committed in
//! `BENCH_results.json` for that sweep; at any other seed, where no
//! committed value exists, every pass must reproduce the first pass's
//! checksum.

use mot3d_bench::perfcheck::parse_baseline;
use mot3d_bench::plan::RunRecord;
use mot3d_bench::sink::{record_json_line, PlanMeta, RecordSink};
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// FNV-1a fold over a record stream, one line at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    hash: u64,
    rows: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            hash: FNV_OFFSET,
            rows: 0,
        }
    }
}

impl Checksum {
    /// Folds one record line (without its newline).
    pub fn push_line(&mut self, line: &str) {
        self.hash = fnv1a64_fold(self.hash, line.as_bytes());
        self.hash = fnv1a64_fold(self.hash, b"\n");
        self.rows += 1;
    }

    /// Folds one record in its canonical serialisation.
    pub fn push(&mut self, record: &RunRecord) {
        self.push_line(&record_json_line(record));
    }

    /// Records folded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The 16-hex-digit spelling `BENCH_results.json` uses.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// A record sink that checksums a plan's stream and notes when its
/// first record was emitted.
#[derive(Debug, Default)]
pub struct ChecksumSink {
    /// The running checksum.
    pub sum: Checksum,
    /// When the first record reached the sink.
    pub first_record: Option<Instant>,
}

impl RecordSink for ChecksumSink {
    fn begin(&mut self, _meta: &PlanMeta<'_>) -> io::Result<()> {
        *self = ChecksumSink::default();
        Ok(())
    }

    fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.first_record.get_or_insert_with(Instant::now);
        self.sum.push(record);
        Ok(())
    }
}

/// Expected checksums per sweep name, and the comparison rule.
#[derive(Debug, Default)]
pub struct Gate {
    committed: BTreeMap<String, (String, usize)>,
    first_pass: BTreeMap<String, Checksum>,
}

impl Gate {
    /// A gate holding the committed checksums of `baseline_json` (pass
    /// `None` for a non-default seed, where none apply).
    ///
    /// # Errors
    ///
    /// Describes a malformed baseline document.
    pub fn new(baseline_json: Option<&str>) -> Result<Gate, String> {
        let mut gate = Gate::default();
        if let Some(text) = baseline_json {
            for sweep in parse_baseline(text)?.sweeps {
                gate.committed
                    .insert(sweep.name, (sweep.checksum, sweep.rows));
            }
        }
        Ok(gate)
    }

    /// Whether `name` has a committed checksum to match.
    pub fn has_committed(&self, name: &str) -> bool {
        self.committed.contains_key(name)
    }

    /// Checks one pass's stream over sweep `name`.
    ///
    /// # Errors
    ///
    /// Describes the mismatch: against the committed value when one
    /// exists, otherwise against the first pass seen in this run.
    pub fn check(&mut self, name: &str, got: Checksum) -> Result<(), String> {
        if let Some((want, rows)) = self.committed.get(name) {
            if *want != got.hex() || *rows != got.rows() {
                return Err(format!(
                    "{name}: checksum {} over {} rows, committed {want} over {rows}",
                    got.hex(),
                    got.rows()
                ));
            }
        }
        match self.first_pass.get(name) {
            Some(first) if *first != got => Err(format!(
                "{name}: checksum {} over {} rows differs from the first pass's {} over {}",
                got.hex(),
                got.rows(),
                first.hex(),
                first.rows()
            )),
            Some(_) => Ok(()),
            None => {
                self.first_pass.insert(name.to_string(), got);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_bench::plan::ExperimentPlan;
    use mot3d_bench::ExperimentScale;
    use mot3d_workloads::SplashBenchmark;

    fn stream() -> Vec<String> {
        ExperimentPlan::new("unit")
            .splash([SplashBenchmark::Fft, SplashBenchmark::Radix])
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap()
            .iter()
            .map(record_json_line)
            .collect()
    }

    fn checksum(lines: &[String]) -> Checksum {
        let mut sum = Checksum::default();
        for line in lines {
            sum.push_line(line);
        }
        sum
    }

    fn baseline(name: &str, sum: Checksum) -> String {
        format!(
            "{{\"schema\": 1, \"scale\": 0.004, \"threads\": 1, \"sweeps\": [\
             {{\"name\": \"{name}\", \"wall_s\": 1.0, \"rows\": {}, \"checksum\": \"{}\"}}]}}",
            sum.rows(),
            sum.hex()
        )
    }

    #[test]
    fn committed_checksum_accepts_the_same_stream_and_rejects_one_corrupted_byte() {
        let lines = stream();
        let good = checksum(&lines);
        let mut gate = Gate::new(Some(&baseline("unit", good))).unwrap();
        assert!(gate.has_committed("unit"));
        assert_eq!(gate.check("unit", good), Ok(()));

        let mut corrupted = lines.clone();
        let mut bytes = corrupted[1].clone().into_bytes();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        corrupted[1] = String::from_utf8(bytes).unwrap();
        let bad = checksum(&corrupted);
        assert_eq!(bad.rows(), good.rows());
        let err = gate.check("unit", bad).unwrap_err();
        assert!(err.contains("committed"), "{err}");
    }

    #[test]
    fn without_a_committed_value_passes_must_repeat_the_first() {
        let lines = stream();
        let mut gate = Gate::new(None).unwrap();
        assert!(!gate.has_committed("unit"));
        let good = checksum(&lines);
        assert_eq!(gate.check("unit", good), Ok(()));
        assert_eq!(gate.check("unit", good), Ok(()));
        let short = checksum(&lines[..1]);
        assert!(gate.check("unit", short).is_err());
    }

    #[test]
    fn sink_and_record_fold_agree() {
        let records = ExperimentPlan::new("unit")
            .splash([SplashBenchmark::Fft])
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap();
        let mut sink = ChecksumSink::default();
        for r in &records {
            sink.record(r).unwrap();
        }
        assert!(sink.first_record.is_some());
        assert_eq!(sink.sum, checksum(&stream()[..1]));
    }
}
