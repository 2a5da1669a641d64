//! `serve_mixed`: an open loop at a fixed offered rate against one resident
//! `march-codex serve`, with a seeded mix of coverage, campaign, diagnose,
//! minimise and generate requests. Most requests reuse a scope the set-up
//! already put in the artifact store; about one in ten names a new scope.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use march_codex_cli::{run_from_args, JsonValue};
use march_gen::{GeneratorConfig, MarchGenerator, SessionExt};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{ExecPolicy, InjectedFault, Report, SharedEngine};

use crate::serve::Server;
use crate::stats::{classify, median, normalise, Outcome, Tally};
use crate::trace::Tracer;
use crate::{splitmix, Run, Timed, Traced, THREADS};

/// Offered load, requests per second: well below what one server answers
/// closed-loop once its scopes are warm (`loadgen.capacity_per_s` of the
/// traced run, about 750/s on the reference host). Nearer half that
/// capacity the median is set by queueing behind the slow requests and
/// varied too much from seed to seed to serve as a gate.
pub const RATE: f64 = 100.0;
/// How long unanswered requests are waited for after the last due time.
const GRACE: Duration = Duration::from_secs(10);

const TESTS: [&str; 4] = ["March SS", "March SL", "March C-", "March LR"];
const LISTS: [&str; 3] = ["1", "2", "unlinked"];

/// One request: its serve line, the CLI arguments giving the same report,
/// and its op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub line: String,
    pub cli: Vec<String>,
    pub op: &'static str,
}

fn request(op: &'static str, fields: &[(&str, String)], cli: &[String]) -> Request {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!(r#", "{key}": {value}"#))
        .collect();
    let mut args: Vec<String> = cli.to_vec();
    args.extend([
        "--threads".to_string(),
        THREADS.to_string(),
        "--json".to_string(),
    ]);
    Request {
        line: format!(r#"{{"op": "{op}"{}}}"#, body.concat()),
        cli: args,
        op,
    }
}

fn quoted(text: &str) -> String {
    format!("\"{text}\"")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|arg| (*arg).to_string()).collect()
}

pub fn coverage(test: &str, list: &str, cells: Option<usize>) -> Request {
    let mut fields = vec![("test", quoted(test)), ("list", quoted(list))];
    let mut cli = strings(&["coverage", "--test", test, "--list", list]);
    if let Some(cells) = cells {
        fields.push(("cells", cells.to_string()));
        cli.extend(["--cells".to_string(), cells.to_string()]);
    }
    request("coverage", &fields, &cli)
}

pub fn diagnose(test: &str, list: &str, cells: usize, victim: usize, aggressor: usize) -> Request {
    let fault = "<0w1;0/1/->";
    request(
        "diagnose",
        &[
            ("test", quoted(test)),
            ("fault", quoted(fault)),
            ("victim", victim.to_string()),
            ("aggressor", aggressor.to_string()),
            ("cells", cells.to_string()),
            ("list", quoted(list)),
        ],
        &[
            strings(&["diagnose", "--test", test, "--fault", fault, "--list", list]),
            vec![
                "--victim".into(),
                victim.to_string(),
                "--aggressor".into(),
                aggressor.to_string(),
                "--cells".into(),
                cells.to_string(),
            ],
        ]
        .concat(),
    )
}

fn campaign(seed: u64) -> Request {
    request(
        "campaign",
        &[
            ("test", quoted("March SS")),
            ("list", quoted("2")),
            ("cells", "16".into()),
            ("sample", "512".into()),
            ("seed", seed.to_string()),
        ],
        &[
            strings(&[
                "coverage", "--test", "March SS", "--list", "2", "--cells", "16",
            ]),
            vec![
                "--sample".into(),
                "512".into(),
                "--seed".into(),
                seed.to_string(),
            ],
        ]
        .concat(),
    )
}

fn minimise(test: &str, list: &str) -> Request {
    request(
        "minimise",
        &[("test", quoted(test)), ("list", quoted(list))],
        &strings(&["minimise", "--test", test, "--list", list]),
    )
}

fn generate(list: &str) -> Request {
    request(
        "generate",
        &[("list", quoted(list))],
        &strings(&["generate", "--list", list]),
    )
}

pub fn af_coverage(test: &str, cells: usize) -> Request {
    request(
        "coverage",
        &[
            ("test", quoted(test)),
            ("faults", quoted("af")),
            ("cells", cells.to_string()),
        ],
        &[
            strings(&["coverage", "--test", test, "--faults", "af"]),
            vec!["--cells".into(), cells.to_string()],
        ]
        .concat(),
    )
}

/// The requests whose scopes the set-up puts in the store: one of each
/// resident kind.
fn resident() -> Vec<Request> {
    let mut out = Vec::new();
    for test in TESTS {
        for list in LISTS {
            out.push(coverage(test, list, None));
        }
    }
    out.push(af_coverage("March SS", 256));
    out.push(diagnose("March SS", "unlinked", 6, 4, 1));
    out.push(diagnose("March SL", "2", 8, 3, 1));
    out.push(minimise("March SL", "2"));
    out.push(minimise("March SS", "2"));
    out.push(generate("2"));
    out
}

/// The request kinds of the mix and how many of each one deck of 200
/// requests holds. Seven in ten requests are sub-millisecond hits, so the
/// median falls inside that group rather than on its edge, where a small
/// shift in queueing would move it a lot.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Coverage of Fault List #2 or the unlinked faults on a resident scope.
    Resident,
    /// Coverage of Fault List #1 on a resident scope (a few ms).
    ResidentList1,
    /// Address-decoder coverage on a resident scope.
    Decoder,
    Campaign,
    Diagnose,
    Minimise,
    /// Generation for Fault List #2 (a few ms).
    GenerateSmall,
    /// Generation for Fault List #1 (over 100 ms).
    GenerateLarge,
    /// Coverage on a memory size no earlier request used: a store build.
    NewScope,
}

const DECK: [(Kind, usize); 9] = [
    (Kind::Resident, 75),
    (Kind::ResidentList1, 15),
    (Kind::Decoder, 10),
    (Kind::Campaign, 25),
    (Kind::Diagnose, 30),
    (Kind::Minimise, 8),
    (Kind::GenerateSmall, 16),
    (Kind::GenerateLarge, 1),
    (Kind::NewScope, 20),
];

/// The seeded request stream of one run. The stream is dealt in decks that
/// hold every kind in fixed proportion, shuffled by the seed, so runs on
/// different seeds differ in order and parameters but not in their mix.
pub fn mix(seed: u64, count: usize) -> Vec<Request> {
    let mut state = seed ^ 0x5EED_5E4E;
    let mut next = |bound: u64| splitmix(&mut state) % bound;
    let campaign_seeds: Vec<u64> = (0..8).map(|_| next(1 << 32)).collect();
    // Fresh scopes for the new-scope requests, never repeated in a run.
    let mut fresh: Vec<(&str, usize)> = ["2", "unlinked"]
        .into_iter()
        .flat_map(|list| (9..=300).map(move |cells| (list, cells)))
        .collect();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, next(i as u64 + 1) as usize);
    }
    let mut fresh = fresh.into_iter();
    let mut deck: Vec<Kind> = DECK
        .iter()
        .flat_map(|&(kind, copies)| std::iter::repeat_n(kind, copies))
        .collect();
    let mut dealt = 0usize;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for i in (1..deck.len()).rev() {
            deck.swap(i, next(i as u64 + 1) as usize);
        }
        for &kind in &deck {
            let test = TESTS[dealt % TESTS.len()];
            let list = ["2", "unlinked"][(dealt / TESTS.len()) % 2];
            dealt += 1;
            out.push(match kind {
                Kind::Resident => coverage(test, list, None),
                Kind::ResidentList1 => coverage(test, "1", None),
                Kind::Decoder => af_coverage("March SS", 256),
                Kind::Campaign => campaign(campaign_seeds[next(8) as usize]),
                Kind::Diagnose => {
                    let (list, cells, test) = if dealt.is_multiple_of(2) {
                        ("unlinked", 6, "March SS")
                    } else {
                        ("2", 8, "March SL")
                    };
                    let victim = next(cells as u64) as usize;
                    let aggressor = (victim + 1 + next(cells as u64 - 1) as usize) % cells;
                    diagnose(test, list, cells, victim, aggressor)
                }
                Kind::Minimise => minimise(["March SL", "March SS"][dealt % 2], "2"),
                Kind::GenerateSmall => generate("2"),
                Kind::GenerateLarge => generate("1"),
                Kind::NewScope => match fresh.next() {
                    Some((list, cells)) => coverage(test, list, Some(cells)),
                    None => coverage(test, list, None),
                },
            });
        }
    }
    out.truncate(count);
    out
}

/// The CLI `--json` report of every distinct request: what each response
/// must carry.
fn oracle(requests: &[Request]) -> BTreeMap<String, String> {
    let mut expected = BTreeMap::new();
    for request in requests {
        if !expected.contains_key(&request.line) {
            let report = run_from_args(request.cli.clone())
                .map(|text| served_part(text.trim()).to_string())
                .unwrap_or_else(|error| format!("cli error: {error}"));
            expected.insert(request.line.clone(), report);
        }
    }
    expected
}

/// The part of a CLI `--json` report that `serve` answers with. `generate`
/// and `minimise` wrap their report with verification and session counters
/// (`{"generation": {...}, "verification": ..., "session": ...}`); serve
/// answers with the wrapped report alone.
fn served_part(report: &str) -> &str {
    let Some(rest) = report.strip_prefix("{\"") else {
        return report;
    };
    let Some(at) = rest.find("\": {\"report\": ") else {
        return report;
    };
    let inner = &rest[at + 3..];
    let (mut depth, mut quoted, mut escaped) = (0usize, false, false);
    for (index, byte) in inner.bytes().enumerate() {
        match byte {
            _ if escaped => escaped = false,
            b'\\' if quoted => escaped = true,
            b'"' => quoted = !quoted,
            b'{' if !quoted => depth += 1,
            b'}' if !quoted => {
                depth -= 1;
                if depth == 0 {
                    return &inner[..=index];
                }
            }
            _ => {}
        }
    }
    report
}

pub fn expected_line(seq: usize, request: &Request, report: &str) -> String {
    format!(
        r#"{{"seq": {seq}, "ok": true, "op": "{}", "report": {report}}}"#,
        request.op
    )
}

/// Starts a server and warms its store with the resident scopes: the set-up.
fn warm_server(run: &Run) -> std::io::Result<Server> {
    let mut server = Server::spawn(&run.bin, &[])?;
    for request in resident() {
        server.request(&request.line)?;
    }
    Ok(server)
}

struct Measured {
    timed: Timed,
    /// Requests per second answered when the whole stream is sent at once
    /// (closed loop, bounded by `--max-in-flight`), after the open loop.
    capacity_per_s: Option<f64>,
    stats: Option<String>,
    latencies: Vec<f64>,
    send_lag_ms: Vec<f64>,
    requests: Vec<Request>,
    expected: BTreeMap<String, String>,
}

fn measure(run: &Run, capacity: bool) -> Measured {
    let mut timed = Timed {
        correct: true,
        ..Timed::default()
    };
    let count = (run.seconds * RATE).ceil() as usize;
    let requests = mix(run.seed, count);
    let start = Instant::now();
    let expected = oracle(&[resident(), requests.clone()].concat());
    timed
        .extra
        .push(("oracle_s".into(), start.elapsed().as_secs_f64(), "s".into()));
    let mut server = None;
    // A set-up takes tens of ms, so it is repeated more often.
    for _ in 0..3 * run.setups {
        if let Some(previous) = server.take() {
            let _ = Server::shutdown(previous);
        }
        let start = Instant::now();
        let warmed = warm_server(run);
        timed.setup_s.push(start.elapsed().as_secs_f64());
        match warmed {
            Ok(warmed) => server = Some(warmed),
            Err(_) => timed.correct = false,
        }
    }
    let Some(mut server) = server else {
        return Measured {
            timed,
            capacity_per_s: None,
            stats: None,
            latencies: Vec::new(),
            send_lag_ms: Vec::new(),
            requests,
            expected,
        };
    };
    let lines: Vec<String> = requests
        .iter()
        .map(|request| request.line.clone())
        .collect();
    let observed = server.open_loop(&lines, resident().len(), RATE, GRACE);
    let mut latencies = Vec::new();
    for (seq, request) in requests.iter().enumerate() {
        let want = expected_line(resident().len() + seq, request, &expected[&request.line]);
        let outcome = classify(&want, observed.responses[seq].as_deref());
        if outcome != Outcome::Ok && timed.tally.failed == 0 {
            timed.notes.push(format!(
                "first failure ({outcome:?}): expected {want}, got {:?}",
                observed.responses[seq]
            ));
        }
        timed.tally.record(&outcome);
        if let Some(latency) = observed.latencies_ms[seq] {
            latencies.push(latency);
        }
    }
    timed.latencies_ms = latencies.clone();
    timed.units = latencies.len() as f64;
    timed.wall_s = observed.wall_s;
    // `stats` runs on a worker, so it is asked only after every response.
    let stats = server.request(r#"{"op": "stats"}"#).ok();
    timed.peak_rss_mb = server.peak_rss_mb();
    let capacity_per_s = capacity.then(|| {
        let first_seq = resident().len() + requests.len() + 1;
        let burst = server.open_loop(&lines, first_seq, f64::INFINITY, GRACE);
        for (seq, request) in requests.iter().enumerate() {
            let want = expected_line(first_seq + seq, request, &expected[&request.line]);
            timed
                .tally
                .record(&classify(&want, burst.responses[seq].as_deref()));
        }
        burst.responses.iter().flatten().count() as f64 / burst.wall_s
    });
    let _ = server.shutdown();
    let lag = &observed.send_lag_ms;
    timed.notes.push(format!(
        "offered {RATE}/s, {} requests; send lag median {:.3} ms, max {:.3} ms",
        requests.len(),
        median(lag),
        lag.iter().copied().fold(0.0, f64::max)
    ));
    Measured {
        timed,
        capacity_per_s,
        stats,
        latencies,
        send_lag_ms: observed.send_lag_ms,
        requests,
        expected,
    }
}

pub fn timed(run: &Run) -> Timed {
    measure(run, false).timed
}

/// The server-side counters of a `stats` response.
pub struct ServeStats {
    /// Mean execution time of the answered requests, in ms.
    pub execute_ms: f64,
    errors: f64,
    timeouts: f64,
    hits: f64,
    /// Store builds: cached artifacts plus cached dictionaries.
    builds: f64,
}

impl ServeStats {
    /// Records the `serve.*` and `store.*` layer metrics.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("serve.execute_ms", self.execute_ms);
        layers.insert("serve.errors", self.errors);
        layers.insert("serve.timeouts", self.timeouts);
        layers.insert("store.lookups", self.hits + self.builds);
        layers.insert("store.hits", self.hits);
        layers.insert(
            "store.hit_ratio",
            self.hits / (self.hits + self.builds).max(1.0),
        );
    }
}

/// Parses a `stats` response line.
pub fn serve_stats(line: &str) -> Option<ServeStats> {
    let value = JsonValue::parse(line).ok()?;
    let stats = value.get("report")?;
    let ops = ["coverage", "campaign", "generate", "minimise", "diagnose"];
    let sum = |field: &str| -> f64 {
        ops.iter()
            .map(|op| stat(stats, &["requests", op, field]))
            .sum()
    };
    Some(ServeStats {
        execute_ms: sum("total_micros") / 1e3 / sum("count").max(1.0),
        errors: stat(stats, &["errors"]),
        timeouts: stat(stats, &["timeouts"]),
        hits: stat(stats, &["cache_hits"]),
        builds: stat(stats, &["cached_artifacts"]) + stat(stats, &["cached_dictionaries"]),
    })
}

fn stat(value: &JsonValue, path: &[&str]) -> f64 {
    let mut node = value;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_u64().unwrap_or(0) as f64
}

/// Executes one distinct request in process, as the server's executor does,
/// with spans around parse, execute and encode.
pub fn replay(tracer: &Tracer, engine: &SharedEngine, request: &Request) -> String {
    let value = {
        let _parse = tracer.span("serve.parse");
        JsonValue::parse(&request.line).expect("generated requests are valid JSON")
    };
    tracer.add("serve.parses", 1.0);
    let text = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    let number = |key: &str| value.get(key).and_then(JsonValue::as_usize);
    let list = match (text("faults").as_deref(), text("list").as_deref()) {
        (Some("af"), _) => FaultList::address_decoder(),
        (_, Some("1")) => FaultList::list_1(),
        (_, Some("2")) => FaultList::list_2(),
        _ => FaultList::unlinked_static(),
    };
    let test = catalog::by_name(&text("test").unwrap_or_else(|| "March SS".into()))
        .expect("catalogue test");
    let mut session = engine.session();
    if let Some(cells) = number("cells") {
        session = session.with_memory_cells(cells);
    }
    let report: Box<dyn Report> = {
        let _execute = tracer.span(match request.op {
            "diagnose" => "diagnose",
            "generate" => "generate",
            "minimise" => "minimise",
            _ => "coverage",
        });
        match request.op {
            "campaign" => Box::new(
                session
                    .try_campaign(
                        &test,
                        &list,
                        &sram_sim::CampaignConfig::default()
                            .with_draws(
                                value.get("sample").and_then(JsonValue::as_u64).unwrap_or(1),
                            )
                            .with_seed(value.get("seed").and_then(JsonValue::as_u64).unwrap_or(0)),
                    )
                    .expect("valid campaign"),
            ),
            "diagnose" => {
                let notation = text("fault").unwrap_or_default();
                let primitive = sram_fault_model::Ffm::all_fault_primitives()
                    .into_iter()
                    .find(|primitive| primitive.notation() == notation)
                    .expect("catalogued primitive");
                let cells = number("cells").unwrap_or(8);
                let injected = InjectedFault::coupling(
                    primitive,
                    number("aggressor").unwrap_or(0),
                    number("victim").unwrap_or(0),
                    cells,
                )
                .expect("valid placement");
                let syndrome = session.observe(&test, &injected).expect("observable");
                let entries_before = engine.cached_dictionaries();
                let dictionary = {
                    let _build = tracer.span("dictionary.build");
                    session.dictionary(&test, &list)
                };
                if engine.cached_dictionaries() > entries_before {
                    tracer.add("dictionary.entries", dictionary.len() as f64);
                }
                Box::new(session.diagnose(&syndrome, &dictionary))
            }
            "minimise" => Box::new(session.minimise(&test, &list)),
            "generate" => {
                let config = GeneratorConfig {
                    memory_cells: session.memory_cells(),
                    strategy: session.strategy(),
                    backgrounds: session.backgrounds().to_vec(),
                    exec: session.policy(),
                    ..GeneratorConfig::default()
                };
                Box::new(
                    MarchGenerator::with_config(list, config)
                        .named("March GEN")
                        .generate_with(&session),
                )
            }
            _ => Box::new(session.try_coverage(&test, &list).expect("valid scope")),
        }
    };
    let json = {
        let _encode = tracer.span("report.encode");
        report.to_json()
    };
    tracer.add("report.encodes", 1.0);
    tracer.add("report.bytes", json.len() as f64);
    json
}

pub fn traced(run: &Run) -> Traced {
    let measured = measure(run, true);
    let mut out = Traced {
        correct: measured.timed.correct,
        tally: measured.timed.tally,
        ..Traced::default()
    };
    let tracer = Arc::new(Tracer::default());
    // The distinct requests, replayed in process on one engine in stream
    // order; each report must equal the CLI's.
    let engine = SharedEngine::new(ExecPolicy::default().with_threads(run.threads));
    let mut replayed: BTreeSet<&str> = BTreeSet::new();
    let mut replay_tally = Tally::default();
    for request in resident().iter().chain(&measured.requests) {
        if !replayed.insert(&request.line) {
            continue;
        }
        tracer.begin_job();
        let json = replay(&tracer, &engine, request);
        let ok = normalise(&json) == normalise(&measured.expected[&request.line]);
        replay_tally.record(if ok { &Outcome::Ok } else { &Outcome::Wrong });
    }
    out.correct &= replay_tally.failed == 0;
    out.tally.merge(replay_tally);
    let replays = replay_tally.attempted as usize;
    out.layers = crate::layer_metrics(&tracer, replays, run.threads);
    let encode_us = out.layers["report.encode_us"];
    let parse_us = out.layers["serve.parse_us"];
    match measured.stats.as_deref().and_then(serve_stats) {
        Some(stats) => {
            let mean_latency =
                measured.latencies.iter().sum::<f64>() / measured.latencies.len().max(1) as f64;
            let residual_ms = mean_latency - stats.execute_ms - (parse_us + encode_us) / 1e3;
            out.notes
                .push(format!("serve.residual_ms {residual_ms:.4} ms"));
            stats.record(&mut out.layers);
        }
        None => out.correct = false,
    }
    // The open-loop figures exist only on this workload, which
    // `BENCHMARK.json` does not gate, so they are printed, not reported.
    let send_lag_ms =
        measured.send_lag_ms.iter().sum::<f64>() / measured.send_lag_ms.len().max(1) as f64;
    out.notes
        .push(format!("loadgen.send_lag_ms {send_lag_ms:.4} ms"));
    out.notes.push(format!(
        "loadgen.capacity_per_s {:.4} 1/s",
        measured.capacity_per_s.unwrap_or(0.0)
    ));
    out.layers.insert("trace.jobs", replays as f64);
    out.notes.push(format!(
        "{replays} distinct requests replayed in process; the open loop itself is not instrumented, so trace.overhead_ms is 0"
    ));
    out.notes.extend(measured.timed.notes);
    out.tracer = Some(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_cli_reports_unwrap_to_the_served_report() {
        let wrapped =
            r#"{"minimisation": {"report": "minimisation", "name": "x}{"}, "session": {"a": 1}}"#;
        assert_eq!(
            served_part(wrapped),
            r#"{"report": "minimisation", "name": "x}{"}"#
        );
        let plain = r#"{"report": "coverage", "total": 1}"#;
        assert_eq!(served_part(plain), plain);
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        assert_eq!(mix(7, 300), mix(7, 300));
        assert_ne!(mix(7, 300), mix(8, 300));
        let requests = mix(7, 4000);
        let fresh = requests
            .iter()
            .filter(|request| {
                request.line.contains("\"cells\"")
                    && request.op == "coverage"
                    && !request.line.contains("af")
            })
            .count();
        assert_eq!(fresh, 400, "one request in ten opens a new scope");
    }
}
