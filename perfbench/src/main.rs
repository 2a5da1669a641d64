//! `perfbench`: the march-codex benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_cold|campaign_af_1m|serve_mixed|serve_restart|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The launcher builds the release
//! `march-codex` binary from source, records the host, and re-runs itself as
//! the measuring process, so that the peak resident set of spawned
//! `march-codex` processes is not mixed with the build's. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
//! The last line of standard output is one JSON object.

mod campaign;
mod mixed;
mod packed;
mod restart;
mod serve;
mod stats;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::env;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{self, Command};
use std::sync::Arc;
use std::time::Instant;

use stats::{median, tail, Tally};
use trace::Tracer;

/// Engine worker threads for every workload.
pub const THREADS: usize = 2;
/// Concurrently executing requests of the resident server.
pub const MAX_IN_FLIGHT: usize = 2;
/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seconds after which a measuring process gives up.
const WATCHDOG_S: f64 = 170.0;

const WORKLOADS: [&str; 4] = [
    "table1_cold",
    "campaign_af_1m",
    "serve_mixed",
    "serve_restart",
];

/// The end-to-end metrics of `BENCHMARK.json`, in order, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, in order, with units. Every
/// workload reports all of them; a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("store.lookups", "count"),
    ("store.hits", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.build_ms", "ms"),
    ("enumerate.targets", "count"),
    ("enumerate.lanes", "count"),
    ("enumerate.ms", "ms"),
    ("snapshot.loads", "count"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.load_mb_per_s", "MB/s"),
    ("snapshot.store_ms", "ms"),
    ("pack.calls", "count"),
    ("pack.ms", "ms"),
    ("pack.plane_bytes", "bytes"),
    ("passes.waves", "count"),
    ("passes.cell_ops", "count"),
    ("passes.ms", "ms"),
    ("passes.lane_fill", "ratio"),
    ("batch.scores", "count"),
    ("batch.score_ms", "ms"),
    ("batch.advance_ms", "ms"),
    ("campaign.draws", "count"),
    ("campaign.sample_ms", "ms"),
    ("campaign.decode_ms", "ms"),
    ("pool.items", "count"),
    ("pool.busy_ms", "ms"),
    ("pool.wall_ms", "ms"),
    ("pool.efficiency", "ratio"),
    ("dictionary.build_ms", "ms"),
    ("dictionary.entries", "count"),
    ("diagnose.ms", "ms"),
    ("report.encode_us", "us"),
    ("report.bytes", "bytes"),
    ("generate.ms", "ms"),
    ("generate.iterations", "count"),
    ("generate.candidates_scored", "count"),
    ("generate.repair_rounds", "count"),
    ("minimise.ms", "ms"),
    ("minimise.ops_removed", "count"),
    ("coverage.ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.execute_ms", "ms"),
    ("serve.errors", "count"),
    ("serve.timeouts", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.jobs", "count"),
    ("scale.t1_job_ms", "ms"),
    ("scale.tmax_job_ms", "ms"),
    ("scale.tmax_efficiency", "ratio"),
    ("scale.t1_pool_efficiency", "ratio"),
    ("scale.tmax_pool_efficiency", "ratio"),
    ("scale.over_pool_efficiency", "ratio"),
];

/// One run's settings, shared by every workload.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub nproc: usize,
    pub setups: usize,
    /// Jobs a timed run completes even past `seconds`, so the tail
    /// percentile always has ten samples beyond it.
    pub min_jobs: usize,
    /// The release `march-codex` binary.
    pub bin: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// Work units completed in `wall_s` (passes, draws, requests, restarts).
    pub units: f64,
    pub tally: Tally,
    pub peak_rss_mb: f64,
    pub correct: bool,
    /// Further named results, `(name, value, unit)`.
    pub extra: Vec<(String, f64, String)>,
    pub notes: Vec<String>,
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub correct: bool,
    pub notes: Vec<String>,
    pub tracer: Option<Arc<Tracer>>,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            process::exit(2);
        }
    };
    if env::var_os(table1::SETUP_ENV).is_some() {
        process::exit(table1::setup_process(run.threads));
    }
    let code = match env::var_os("PERFBENCH_BIN") {
        Some(bin) => measure(Run {
            bin: PathBuf::from(bin),
            ..run
        }),
        None => launch(&args, &run),
    };
    process::exit(code);
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: THREADS,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        setups: SETUPS,
        min_jobs: 2 * stats::TAIL_BEYOND + 1,
        bin: PathBuf::new(),
        work: PathBuf::from(".perfbench"),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()? as f64,
            "--trace" => run.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

/// Builds `march-codex` from the checkout, records the host and re-runs this
/// program as the measuring process.
fn launch(args: &[String], run: &Run) -> i32 {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root (crates/cli is missing)");
        return 1;
    }
    let built = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "march-codex-cli",
            "--bin",
            "march-codex",
        ])
        .status();
    if !built.is_ok_and(|status| status.success()) {
        eprintln!("perfbench: building march-codex failed");
        return 1;
    }
    let target =
        env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("march-codex");
    if !bin.is_file() {
        eprintln!("perfbench: {} was not built", bin.display());
        return 1;
    }
    let bin = bin.canonicalize().unwrap_or(bin);
    let Ok(me) = env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return 1;
    };
    let host = host_record(run);
    let status = Command::new(me)
        .args(args)
        .env("PERFBENCH_BIN", &bin)
        .env("PERFBENCH_HOST", host)
        .status();
    match status {
        Ok(status) => status.code().unwrap_or(1),
        Err(error) => {
            eprintln!("perfbench: cannot start the measuring process: {error}");
            1
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The seed and host record printed with every result.
fn host_record(run: &Run) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        r#"{{"seed": {}, "commit": "{}", "rustc": "{}", "nproc": {}, "cpu": "{}", "threads": {}, "max_in_flight": {}}}"#,
        run.seed,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        run.nproc,
        cpu,
        run.threads,
        MAX_IN_FLIGHT,
    )
}

/// The measuring process: runs the workload(s) and prints the result.
fn measure(run: Run) -> i32 {
    if let Err(error) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {error}", run.work.display());
        return 1;
    }
    println!("host: {}", env::var("PERFBENCH_HOST").unwrap_or_default());
    let cpu_before = cpu_times();
    let workloads: Vec<&str> = if run.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![run.workload.as_str()]
    };
    // A hung server must not hang the benchmark: past the limit the run
    // fails without a result. Servers see their stdin close and exit. The
    // thread is left detached on purpose: process exit ends it.
    let limit = (3.0 * run.seconds).max(WATCHDOG_S) * workloads.len() as f64;
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(limit));
        eprintln!("perfbench: no result after {limit} s");
        process::exit(3);
    });
    let mut correct = true;
    let mut tally = Tally::default();
    let several = workloads.len() > 1;
    let mut metrics = Vec::new();
    for workload in workloads {
        let run = Run {
            workload: workload.to_string(),
            ..run.clone()
        };
        println!(
            "== {workload} (seed {}, {} s, trace {})",
            run.seed,
            run.seconds,
            u8::from(run.trace)
        );
        // One workload's metrics keep their names; `all` prefixes each.
        let prefix = if several {
            format!("{workload}.")
        } else {
            String::new()
        };
        let (ok, jobs, json) = if run.trace {
            report_traced(&run, traced(&run), &prefix)
        } else {
            report_timed(timed(&run), &prefix)
        };
        correct &= ok;
        tally.merge(jobs);
        metrics.push(json);
    }
    // Time the hypervisor gave to other guests: runs on this kind of host
    // slow down when it grows, so it is printed beside every result.
    if let (Some(before), Some(after)) = (cpu_before, cpu_times()) {
        let total = after.0.saturating_sub(before.0).max(1);
        let steal = after.1.saturating_sub(before.1);
        println!(
            "cpu steal during the run: {:.1}%",
            100.0 * steal as f64 / total as f64
        );
    }
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn timed(run: &Run) -> Timed {
    match run.workload.as_str() {
        "table1_cold" => table1::timed(run),
        "campaign_af_1m" => campaign::timed(run),
        "serve_mixed" => mixed::timed(run),
        _ => restart::timed(run),
    }
}

fn traced(run: &Run) -> Traced {
    match run.workload.as_str() {
        "table1_cold" => table1::traced(run),
        "campaign_af_1m" => campaign::traced(run),
        "serve_mixed" => mixed::traced(run),
        _ => restart::traced(run),
    }
}

fn metric_json(prefix: &str, name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!(r#""{prefix}{name}": {{"value": {value}, "unit": "{unit}"}}"#)
}

/// Prints the end-to-end table and returns `(correct, tally, metrics JSON)`.
fn report_timed(timed: Timed, prefix: &str) -> (bool, Tally, String) {
    let tail = tail(&timed.latencies_ms);
    let values = [
        median(&timed.setup_s),
        median(&timed.latencies_ms),
        tail.map_or(f64::NAN, |tail| tail.value),
        timed.units / timed.wall_s,
        timed.peak_rss_mb,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        println!("  {name:<22} {value:>14.4} {unit}");
    }
    if let Some(tail) = tail {
        println!(
            "  {:<22} p{:.2} of {} jobs, {} beyond",
            "  (tail)",
            tail.percentile,
            timed.latencies_ms.len(),
            tail.beyond
        );
    }
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|&q| format!("{:.3}", stats::quantile(&timed.latencies_ms, q)))
        .collect();
    println!(
        "  {:<22} p10/p25/p50/p75/p90 {} ms",
        "  (latency)",
        deciles.join(" / ")
    );
    println!(
        "  {:<22} {:>14.4} fraction",
        "failed_ratio",
        timed.tally.failed_ratio()
    );
    for (name, value, unit) in &timed.extra {
        println!("  {name:<22} {value:>14.4} {unit}");
    }
    for (name, unit) in [("march_length_n", "n"), ("fidelity_gap", "count")] {
        if !timed.extra.iter().any(|(extra, _, _)| extra == name) {
            println!("  {name:<22} {:>14} {unit} (table1_cold only)", "n/a");
        }
    }
    for note in &timed.notes {
        println!("  {note}");
    }
    let correct = timed.correct && timed.tally.failed == 0 && tail.is_some();
    let json = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| metric_json(prefix, name, value, unit))
        .collect::<Vec<_>>()
        .join(", ");
    (correct, timed.tally, json)
}

/// Prints the per-layer table, writes the spans, and returns `(correct,
/// tally, metrics JSON)`.
fn report_traced(run: &Run, traced: Traced, prefix: &str) -> (bool, Tally, String) {
    let mut json = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = traced.layers.get(name).copied().unwrap_or(0.0);
        if value != 0.0 {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        json.push(metric_json(prefix, name, value, unit));
    }
    for note in &traced.notes {
        println!("  {note}");
    }
    if let Some(tracer) = &traced.tracer {
        let path = run
            .work
            .join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
        if std::fs::write(&path, tracer.dump()).is_ok() {
            println!("  spans written to {}", path.display());
        }
    }
    (
        traced.correct && traced.tally.failed == 0,
        traced.tally,
        json.join(", "),
    )
}

/// The per-layer metrics of `tracer` after `jobs` traced jobs, per job.
pub fn layer_metrics(tracer: &Tracer, jobs: usize, threads: usize) -> BTreeMap<&'static str, f64> {
    let jobs = jobs.max(1) as f64;
    let own = tracer.self_ms();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0) / jobs;
    let count = |name: &str| tracer.counter(name) / jobs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let busy = tracer.total_ms("batch.score") + tracer.total_ms("campaign.shard");
    let wall = tracer.total_ms("pool.map");
    let load_ms = ms("snapshot.load");
    let encodes = tracer.counter("report.encodes");
    let mut layers = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        layers.insert(name, value);
    };
    put("store.lookups", count("store.lookups"));
    put("store.hits", count("store.hits"));
    put(
        "store.hit_ratio",
        ratio(count("store.hits"), count("store.lookups")),
    );
    put("store.build_ms", ms("enumerate") + ms("dictionary.build"));
    put("enumerate.targets", count("enumerate.targets"));
    put("enumerate.lanes", count("enumerate.lanes"));
    put("enumerate.ms", ms("enumerate"));
    put("snapshot.loads", count("snapshot.loads"));
    put("snapshot.load_ms", load_ms);
    put(
        "snapshot.load_mb_per_s",
        ratio(count("snapshot.bytes") / 1e6, load_ms / 1e3),
    );
    put("pack.calls", count("pack.calls"));
    put("pack.ms", ms("pack"));
    put("pack.plane_bytes", count("pack.plane_bytes"));
    put("passes.waves", count("passes.waves"));
    put("passes.cell_ops", count("passes.cell_ops"));
    put("passes.ms", ms("passes"));
    put(
        "passes.lane_fill",
        ratio(
            tracer.counter("passes.live_lanes"),
            tracer.counter("passes.slots"),
        ),
    );
    put("batch.scores", count("batch.scores"));
    put("batch.score_ms", ms("batch.score"));
    put("batch.advance_ms", ms("batch.advance"));
    put("campaign.draws", count("campaign.draws"));
    put("campaign.sample_ms", ms("campaign.sample"));
    put("campaign.decode_ms", ms("campaign.decode"));
    put("pool.items", count("pool.items"));
    put("pool.busy_ms", busy / jobs);
    put("pool.wall_ms", wall / jobs);
    put("pool.efficiency", ratio(busy, wall * threads as f64));
    put("dictionary.build_ms", ms("dictionary.build"));
    put("dictionary.entries", count("dictionary.entries"));
    put("diagnose.ms", ms("diagnose"));
    put(
        "report.encode_us",
        ratio(tracer.total_ms("report.encode") * 1e3, encodes),
    );
    put(
        "report.bytes",
        ratio(tracer.counter("report.bytes"), encodes),
    );
    put("generate.ms", ms("generate"));
    put("generate.iterations", count("generate.iterations"));
    put(
        "generate.candidates_scored",
        count("generate.candidates_scored"),
    );
    put("generate.repair_rounds", count("generate.repair_rounds"));
    put("minimise.ms", ms("minimise"));
    put("minimise.ops_removed", count("minimise.ops_removed"));
    put("coverage.ms", ms("coverage"));
    put(
        "serve.parse_us",
        ratio(
            own.get("serve.parse").copied().unwrap_or(0.0) * 1e3,
            tracer.counter("serve.parses"),
        ),
    );
    layers
}

/// The shared traced-run loop of the batch workloads.
///
/// Untraced and traced jobs alternate at the configured thread count; every
/// result must equal the first untraced one, and the tracing overhead is the
/// difference of their median job times. With `scaling`, traced jobs then run
/// at 1..=nproc threads and at twice nproc, for the parallel-efficiency
/// sweep.
pub fn trace_jobs(
    run: &Run,
    scaling: bool,
    untraced: &mut dyn FnMut(usize) -> String,
    traced: &mut dyn FnMut(&Arc<Tracer>, usize) -> String,
) -> Traced {
    let tracer = Arc::new(Tracer::default());
    let mut out = Traced {
        correct: true,
        ..Traced::default()
    };
    let budget = if scaling {
        0.6 * run.seconds
    } else {
        run.seconds
    };
    let started = Instant::now();
    let mut reference: Option<String> = None;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    while traced_ms.len() < 2 || started.elapsed().as_secs_f64() < budget {
        let start = Instant::now();
        let result = untraced(run.threads);
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let reference = reference.get_or_insert(result.clone());
        tracer.begin_job();
        let start = Instant::now();
        let traced_result = traced(&tracer, run.threads);
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for outcome in [&result, &traced_result] {
            let ok = outcome == reference;
            out.correct &= ok;
            out.tally.record(if ok {
                &stats::Outcome::Ok
            } else {
                &stats::Outcome::Wrong
            });
        }
    }
    out.layers = layer_metrics(&tracer, traced_ms.len(), run.threads);
    out.layers
        .insert("trace.overhead_ms", median(&traced_ms) - median(&plain_ms));
    out.layers.insert("trace.jobs", traced_ms.len() as f64);
    out.notes.push(format!(
        "untraced job {:.3} ms, traced job {:.3} ms (medians of {} each)",
        median(&plain_ms),
        median(&traced_ms),
        traced_ms.len()
    ));
    if scaling {
        let reference = reference.unwrap_or_default();
        let mut counts: Vec<usize> = (1..=run.nproc).collect();
        counts.push(2 * run.nproc);
        let slice = 0.4 * run.seconds / counts.len() as f64;
        let mut sweep = Vec::new();
        for &threads in &counts {
            let sweep_tracer = Arc::new(Tracer::default());
            let started = Instant::now();
            let mut job_ms = Vec::new();
            while job_ms.is_empty() || started.elapsed().as_secs_f64() < slice {
                sweep_tracer.begin_job();
                let start = Instant::now();
                let result = traced(&sweep_tracer, threads);
                job_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let ok = result == reference;
                out.correct &= ok;
                out.tally.record(if ok {
                    &stats::Outcome::Ok
                } else {
                    &stats::Outcome::Wrong
                });
            }
            let layers = layer_metrics(&sweep_tracer, job_ms.len(), threads);
            let mut line = format!(
                "scaling {threads} thread(s): job {:.3} ms, pool.efficiency {:.3}, self ms per job:",
                median(&job_ms),
                layers["pool.efficiency"]
            );
            for (name, value) in sweep_tracer.self_ms() {
                let _ = write!(line, " {name}={:.3}", value / job_ms.len() as f64);
            }
            out.notes.push(line);
            sweep.push((threads, median(&job_ms), layers["pool.efficiency"]));
        }
        let (_, t1_ms, t1_eff) = sweep[0];
        let (tmax, tmax_ms, tmax_eff) = sweep[run.nproc - 1];
        out.layers.insert("scale.t1_job_ms", t1_ms);
        out.layers.insert("scale.tmax_job_ms", tmax_ms);
        out.layers
            .insert("scale.tmax_efficiency", t1_ms / tmax_ms / tmax as f64);
        out.layers.insert("scale.t1_pool_efficiency", t1_eff);
        out.layers.insert("scale.tmax_pool_efficiency", tmax_eff);
        out.layers
            .insert("scale.over_pool_efficiency", sweep[run.nproc].2);
    }
    out.tracer = Some(tracer);
    out
}

/// `(total, steal)` CPU time of the machine so far, in clock ticks, from the
/// first line of `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
}

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    pid_peak_rss_mb(process::id())
}

/// Peak resident set of a live process, in MB (0 if unreadable).
pub fn pid_peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| status_kb(&status, "VmHWM:"))
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set of any waited-for child process, in MB.
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the platform
    // layout (two timevals then fourteen longs).
    let result = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if result == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// A splitmix64 step: the benchmark's only source of randomness, so every
/// input is a function of `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
