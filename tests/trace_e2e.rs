//! Whole-workspace trace check: run a tiny benchmark through
//! `trace_spec`, then parse the emitted file with the workspace's own
//! JSON parser and verify it is one valid document carrying every track
//! family the tracer promises — the "Perfetto-loadable" acceptance
//! criterion, checked structurally rather than by eye.

use mot3d::phys::json::{self, JsonValue};
use mot3d::prelude::*;
use mot3d::trace::trace_spec;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mot3d-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Collects the `args.name` of every `ph: "M"` metadata event whose
/// `name` is `kind` (`process_name` or `thread_name`).
fn metadata_names(events: &[JsonValue], kind: &str) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(kind))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(String::from))
        .collect()
}

#[test]
fn traced_run_emits_one_valid_document_with_every_track_family() {
    let dir = scratch_dir();
    let path = dir.join("fft.trace.json");
    let spec = SplashBenchmark::Fft.spec().scaled(0.002);
    let config = SimConfig::date16();
    let (metrics, summary) = trace_spec(&spec, &config, &path).unwrap();

    // The traced run is a real run...
    assert!(metrics.cycles > 0);
    assert_eq!(summary.path, path);

    // ...and the file is a single valid JSON document.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len() as u64, summary.events);

    // Every promised track family is declared via metadata events.
    let processes = metadata_names(events, "process_name");
    for family in [
        "cores",
        "l2-banks",
        "interconnect",
        "miss-bus",
        "dram",
        "counters",
    ] {
        assert!(
            processes.iter().any(|p| p.contains(family)),
            "missing process track {family:?} in {processes:?}"
        );
    }
    let threads = metadata_names(events, "thread_name");
    for track in ["core 0", "core 15", "bank 0", "L2 hit rate", "row buffer"] {
        assert!(
            threads.iter().any(|t| t.contains(track)),
            "missing thread track {track:?}"
        );
    }

    // Span and counter events are well-formed: every B/E/C carries a
    // numeric timestamp, and counters carry a numeric value.
    let mut spans = 0usize;
    let mut counters = 0usize;
    for e in events {
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("B") | Some("E") => {
                assert!(e.get("ts").and_then(JsonValue::as_u64).is_some(), "{e:?}");
                spans += 1;
            }
            Some("C") => {
                assert!(e.get("ts").and_then(JsonValue::as_u64).is_some(), "{e:?}");
                let value = e.get("args").and_then(|a| a.get("value"));
                assert!(value.and_then(JsonValue::num_text).is_some(), "{e:?}");
                counters += 1;
            }
            Some("M") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(spans > 0, "no span events");
    assert!(counters > 0, "no counter events");

    std::fs::remove_dir_all(&dir).unwrap();
}
