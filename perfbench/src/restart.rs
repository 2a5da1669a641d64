//! `serve_restart`: repeated restarts of `serve --snapshot-dir D`, each
//! answering a short fixed script whose keys are all on disk.
//!
//! The set-up warms D with `snapshot --warm` for Fault List #1 × March SL
//! (target lanes and the 26 MB fault dictionary) and for the address-decoder
//! faults at 1024 cells, so set-up time is the snapshot write path.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use march_codex_cli::JsonValue;
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{ArtifactStore, ExecPolicy, SharedEngine, SnapshotStore};

use crate::mixed::{self, expected_line, Request};
use crate::serve::Server;
use crate::stats::{classify, median, Outcome};
use crate::trace::Tracer;
use crate::{splitmix, Run, Timed, Traced};

/// Cells of the warmed address-decoder scope.
const AF_CELLS: usize = 1024;
/// Snapshot keys the script reads: list-1 lanes, the March SL dictionary and
/// the decoder lanes.
const KEYS: u64 = 3;

/// The script of one run: the keys are fixed, the seed picks the diagnosed
/// cells and the decoder test.
fn script(seed: u64) -> Vec<Request> {
    let mut state = seed ^ 0x0005_7A47;
    let victim = (splitmix(&mut state) % 8) as usize;
    let aggressor = (victim + 1 + (splitmix(&mut state) % 7) as usize) % 8;
    let af_test = ["March SS", "March C-", "MATS+"][(splitmix(&mut state) % 3) as usize];
    vec![
        mixed::coverage("March SL", "1", None),
        mixed::diagnose("March SL", "1", 8, victim, aggressor),
        mixed::af_coverage(af_test, AF_CELLS),
    ]
}

/// Warms a fresh snapshot directory through the CLI: the set-up.
fn warm(bin: &Path, dir: &Path) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    let dir = dir.to_string_lossy();
    let warms: [&[&str]; 2] = [
        &["--list", "1", "--test", "March SL"],
        &["--faults", "af", "--cells", "1024"],
    ];
    warms.iter().all(|args| {
        Command::new(bin)
            .args(["snapshot", "--dir", &dir, "--warm"])
            .args(*args)
            .output()
            .is_ok_and(|output| output.status.success())
    })
}

/// One restart: start the server on `dir`, answer the script, read `stats`
/// once every response is in, stop. Returns the transcript, the stats line
/// and the server's peak resident set.
fn restart(
    bin: &Path,
    dir: Option<&Path>,
    script: &[Request],
) -> std::io::Result<(Vec<String>, String, f64)> {
    let extra: Vec<String> = dir
        .map(|dir| {
            vec![
                "--snapshot-dir".to_string(),
                dir.to_string_lossy().into_owned(),
            ]
        })
        .unwrap_or_default();
    let extra: Vec<&str> = extra.iter().map(String::as_str).collect();
    let mut server = Server::spawn(bin, &extra)?;
    let mut transcript = Vec::new();
    for request in script {
        transcript.push(server.request(&request.line)?);
    }
    let stats = server.request(r#"{"op": "stats"}"#)?;
    let peak = server.peak_rss_mb();
    server.shutdown()?;
    Ok((transcript, stats, peak))
}

/// Snapshot `(hits, misses, writes)` from a `stats` response.
fn snapshot_counts(stats: &str) -> Option<(u64, u64, u64)> {
    let value = JsonValue::parse(stats).ok()?;
    let snapshot = value.get("report")?.get("snapshot")?;
    let count = |key: &str| snapshot.get(key).and_then(JsonValue::as_u64);
    Some((count("hits")?, count("misses")?, count("writes")?))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|entry| entry.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|metadata| metadata.len())
                .sum()
        })
        .unwrap_or(0)
}

struct Prepared {
    setup_s: Vec<f64>,
    dir: PathBuf,
    script: Vec<Request>,
    cold: Vec<String>,
    warmed: bool,
}

/// Set-ups (timed), then the cold transcript every restart must reproduce.
fn prepare(run: &Run) -> Prepared {
    let mut setup_s = Vec::new();
    let mut warmed = true;
    let dir = run.work.join("restart");
    for _ in 0..run.setups {
        let start = Instant::now();
        warmed &= warm(&run.bin, &dir);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let script = script(run.seed);
    let cold = restart(&run.bin, None, &script)
        .map(|(transcript, _, _)| transcript)
        .unwrap_or_default();
    Prepared {
        setup_s,
        dir,
        script,
        cold,
        warmed,
    }
}

/// Whether a warm transcript reproduces the cold one with every key read
/// from disk.
fn check(prepared: &Prepared, transcript: &[String], stats: &str) -> Outcome {
    if transcript.len() != prepared.cold.len() || prepared.cold.len() != prepared.script.len() {
        return Outcome::Unanswered;
    }
    for (expected, actual) in prepared.cold.iter().zip(transcript) {
        let outcome = classify(expected, Some(actual));
        if outcome != Outcome::Ok {
            return outcome;
        }
    }
    match snapshot_counts(stats) {
        Some((hits, 0, 0)) if hits >= KEYS => Outcome::Ok,
        _ => Outcome::Wrong,
    }
}

pub fn timed(run: &Run) -> Timed {
    let prepared = prepare(run);
    let mut timed = Timed {
        correct: prepared.warmed,
        setup_s: prepared.setup_s.clone(),
        ..Timed::default()
    };
    let mut peaks = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < run.seconds || timed.latencies_ms.len() < run.min_jobs {
        let start = Instant::now();
        let result = restart(&run.bin, Some(&prepared.dir), &prepared.script);
        timed.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        timed.units += 1.0;
        let outcome = match result {
            Ok((transcript, stats, peak)) => {
                peaks.push(peak);
                check(&prepared, &transcript, &stats)
            }
            Err(_) => Outcome::Unanswered,
        };
        timed.tally.record(&outcome);
    }
    timed.wall_s = started.elapsed().as_secs_f64();
    timed.peak_rss_mb = median(&peaks);
    timed.notes.push(format!(
        "snapshot directory {} MB; peak_rss_mb is the median over restarts of each server's peak",
        dir_bytes(&prepared.dir) as f64 / 1e6
    ));
    timed
}

/// One in-process restart: open the snapshot store, load every key, answer
/// the script. Returns the transcript.
fn replay_restart(tracer: &Tracer, threads: usize, dir: &Path, script: &[Request]) -> Vec<String> {
    let snapshots = SnapshotStore::open(&dir.to_string_lossy());
    let store = Arc::new(ArtifactStore::new());
    store.attach_snapshots(Arc::clone(&snapshots));
    let engine = SharedEngine::with_store(ExecPolicy::default().with_threads(threads), store);
    {
        let _load = tracer.span("snapshot.load");
        let session = engine.session();
        session
            .target_lanes(&FaultList::list_1())
            .expect("list 1 scope");
        let _ = session.dictionary(&catalog::march_sl(), &FaultList::list_1());
        engine
            .session()
            .with_memory_cells(AF_CELLS)
            .target_lanes(&FaultList::address_decoder())
            .expect("decoder scope");
    }
    let transcript = script
        .iter()
        .enumerate()
        .map(|(seq, request)| expected_line(seq, request, &mixed::replay(tracer, &engine, request)))
        .collect();
    let stats = snapshots.stats();
    tracer.add("snapshot.loads", stats.hits as f64);
    tracer.add("snapshot.bytes", dir_bytes(dir) as f64);
    tracer.add("store.hits", engine.cache_hits() as f64);
    tracer.add(
        "store.lookups",
        (engine.cache_hits() + engine.cached_artifacts() + engine.cached_dictionaries()) as f64,
    );
    transcript
}

/// Builds the script's artifacts in process: without snapshots (the cold
/// build, spans `enumerate` and `dictionary.build`) and then with a fresh
/// snapshot directory attached (build plus write). Returns the write share,
/// in ms.
fn store_cost(tracer: &Tracer, run: &Run) -> f64 {
    let build = |snapshots: Option<Arc<SnapshotStore>>, trace: bool| {
        let store = Arc::new(ArtifactStore::new());
        if let Some(snapshots) = snapshots {
            store.attach_snapshots(snapshots);
        }
        let engine =
            SharedEngine::with_store(ExecPolicy::default().with_threads(run.threads), store);
        let session = engine.session();
        let off = Tracer::off();
        let tracer = if trace { tracer } else { &off };
        let start = Instant::now();
        {
            let _enumerate = tracer.span("enumerate");
            session
                .target_lanes(&FaultList::list_1())
                .expect("list 1 scope");
            engine
                .session()
                .with_memory_cells(AF_CELLS)
                .target_lanes(&FaultList::address_decoder())
                .expect("decoder scope");
        }
        let dictionary = {
            let _build = tracer.span("dictionary.build");
            session.dictionary(&catalog::march_sl(), &FaultList::list_1())
        };
        tracer.add("dictionary.entries", dictionary.len() as f64);
        start.elapsed().as_secs_f64() * 1e3
    };
    let cold = build(None, true);
    let dir = run.work.join("restart-store");
    let _ = std::fs::remove_dir_all(&dir);
    let warm = build(Some(SnapshotStore::open(&dir.to_string_lossy())), false);
    let _ = std::fs::remove_dir_all(&dir);
    warm - cold
}

pub fn traced(run: &Run) -> Traced {
    let prepared = prepare(run);
    let reference = prepared.cold.join("\n");
    let mut traced = crate::trace_jobs(
        run,
        false,
        &mut |threads| {
            replay_restart(&Tracer::off(), threads, &prepared.dir, &prepared.script).join("\n")
        },
        &mut |tracer, threads| {
            replay_restart(tracer, threads, &prepared.dir, &prepared.script).join("\n")
        },
    );
    let build_tracer = Tracer::default();
    let store_ms = store_cost(&build_tracer, run);
    let cold_build = crate::layer_metrics(&build_tracer, 1, run.threads);
    for name in [
        "enumerate.ms",
        "dictionary.build_ms",
        "dictionary.entries",
        "store.build_ms",
    ] {
        traced.layers.insert(name, cold_build[name]);
    }
    traced.layers.insert("snapshot.store_ms", store_ms);
    // The end-to-end reference: one real restart must match the cold
    // transcript, as must every in-process replay.
    // Its `stats` give the server-side `serve.*` metrics; the store ones stay
    // those of the in-process replays.
    let end_to_end = match restart(&run.bin, Some(&prepared.dir), &prepared.script) {
        Ok((transcript, stats, _)) => {
            if let Some(stats) = mixed::serve_stats(&stats) {
                let mut server = std::collections::BTreeMap::new();
                stats.record(&mut server);
                for name in ["serve.execute_ms", "serve.errors", "serve.timeouts"] {
                    traced.layers.insert(name, server[name]);
                }
            }
            check(&prepared, &transcript, &stats)
        }
        Err(_) => Outcome::Unanswered,
    };
    let replay_matches = {
        let replayed = replay_restart(&Tracer::off(), run.threads, &prepared.dir, &prepared.script);
        replayed.join("\n") == reference
    };
    for ok in [end_to_end == Outcome::Ok, replay_matches, prepared.warmed] {
        traced.correct &= ok;
        traced
            .tally
            .record(if ok { &Outcome::Ok } else { &Outcome::Wrong });
    }
    traced.notes.push(format!(
        "decode vs rebuild: snapshot.load_ms {:.3} against enumerate.ms + dictionary.build_ms {:.3}",
        traced.layers["snapshot.load_ms"],
        traced.layers["enumerate.ms"] + traced.layers["dictionary.build_ms"]
    ));
    traced
}
