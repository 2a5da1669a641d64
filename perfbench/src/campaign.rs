//! `campaign_af_1m`: seeded address-decoder fault campaigns on a 2^20-cell
//! memory through `march-codex coverage --faults af --sample N --seed S`.
//!
//! One job is a MATS campaign (about one draw in six escapes, so the escape
//! trace is exercised) followed by a March SS campaign on the same seed.
//! Every job draws a fresh campaign seed from the workload seed; after the
//! timed jobs, the first job is run again and must reproduce its reports
//! byte for byte.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use march_test::{catalog, MarchTest};
use sram_fault_model::FaultList;
use sram_sim::{
    enumerate_targets, sample_draw_indices, wilson_interval, CampaignConfig, CampaignSpace,
    CoverageLane, ExecPolicy, JsonObject, Report, Session,
};

use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{packed, splitmix, Run, Timed, Traced};

pub const CELLS: usize = 1 << 20;
/// Draws per worker-pool shard, as `Session::try_campaign` shards them.
const SHARD: usize = 2048;
/// Draws per campaign: one full shard for each engine thread, so every
/// worker has a shard and `memsim::parallel` and wave filling both show in
/// the draw rate. Documented campaigns are larger (10^5 to 10^6 draws); a
/// pair at this size takes about 2.4 s at 2 threads, which keeps 21 jobs
/// within one run.
pub const DRAWS: u64 = (SHARD * crate::THREADS) as u64;

fn tests() -> [MarchTest; 2] {
    [catalog::mats(), catalog::march_ss()]
}

/// The CLI report of one campaign, timed.
fn cli_campaign(run: &Run, test: &str, draws: u64, seed: u64) -> Result<String, String> {
    let output = Command::new(&run.bin)
        .args(["coverage", "--test", test, "--faults", "af", "--cells"])
        .arg(CELLS.to_string())
        .args(["--sample", &draws.to_string(), "--seed", &seed.to_string()])
        .args(["--threads", &run.threads.to_string(), "--json"])
        .output()
        .map_err(|error| error.to_string())?;
    if !output.status.success() {
        return Err(String::from_utf8_lossy(&output.stderr).into_owned());
    }
    Ok(String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Checks the parts of a report that do not need a second run.
fn plausible(report: &str, test: &str, draws: u64, seed: u64) -> bool {
    let Ok(value) = march_codex_cli::JsonValue::parse(report) else {
        return false;
    };
    let number = |key: &str| value.get(key).and_then(|v| v.as_u64());
    value.get("test").and_then(|v| v.as_str()) == Some(test)
        && number("draws") == Some(draws)
        && number("seed") == Some(seed)
        && number("detected")
            .zip(number("escapes"))
            .map(|(d, e)| d + e)
            == Some(draws)
}

/// A stream of campaign seeds, a pure function of `seed`.
fn seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::repeat_with(move || splitmix(&mut state) >> 16)
}

/// One job: the MATS and March SS reports for `seed`, each checked.
fn job(run: &Run, seed: u64) -> Vec<(Outcome, String)> {
    tests()
        .iter()
        .map(|test| match cli_campaign(run, test.name(), DRAWS, seed) {
            Err(error) => (Outcome::Refused, error),
            Ok(report) if !plausible(&report, test.name(), DRAWS, seed) => (Outcome::Wrong, report),
            Ok(report) => (Outcome::Ok, report),
        })
        .collect()
}

pub fn timed(run: &Run) -> Timed {
    let mut timed = Timed {
        correct: true,
        ..Timed::default()
    };
    // The job seeds are the stream the workload seed starts, as in the
    // traced run; set-ups draw theirs from a second stream.
    let mut job_seeds = seeds(run.seed);
    let mut setup_seeds = seeds(!run.seed);
    // A set-up is one single-draw campaign: launch, parsing, the space and
    // one 2^20-cell wave. Every job is a fresh launch, so one set-up is timed
    // before each job; their median then spans the whole run, as the job
    // latencies do, instead of the first half second of it.
    let mut first: Option<(u64, Vec<(Outcome, String)>)> = None;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < run.seconds || timed.latencies_ms.len() < run.min_jobs {
        let start = Instant::now();
        let setup = cli_campaign(run, "MATS", 1, setup_seeds.next().expect("endless seeds"));
        timed.setup_s.push(start.elapsed().as_secs_f64());
        timed.correct &= setup.is_ok();
        let seed = job_seeds.next().expect("endless seeds");
        let start = Instant::now();
        let reports = job(run, seed);
        timed.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        timed.units += (2 * DRAWS) as f64;
        for (outcome, _) in &reports {
            timed.tally.record(outcome);
        }
        first.get_or_insert((seed, reports));
    }
    timed.wall_s = started.elapsed().as_secs_f64() - timed.setup_s.iter().sum::<f64>();
    if let Some((seed, reports)) = first {
        let again = job(run, seed);
        let same = again == reports;
        timed
            .tally
            .record(if same { &Outcome::Ok } else { &Outcome::Wrong });
        timed
            .notes
            .push(format!("seed {seed} reproduced byte for byte: {same}"));
        timed.notes.push(format!(
            "MATS seed {seed}: {}",
            &reports[0].1[..reports[0].1.len().min(160)]
        ));
    }
    timed.peak_rss_mb = crate::children_peak_rss_mb();
    timed
}

fn session(threads: usize) -> Session {
    Session::new(ExecPolicy::default().with_threads(threads)).with_memory_cells(CELLS)
}

/// One campaign through `Session::try_campaign`, as the CLI runs it.
fn campaign(threads: usize, test: &MarchTest, list: &FaultList, seed: u64) -> String {
    let config = CampaignConfig::default().with_draws(DRAWS).with_seed(seed);
    session(threads)
        .try_campaign(test, list, &config)
        .map(|report| report.to_json())
        .unwrap_or_else(|error| error.to_string())
}

/// `Session::try_campaign` composed from the public campaign and backend
/// functions; returns the report JSON, rebuilt byte for byte.
///
/// The space's per-slot target is crate-private, so it is rebuilt from
/// `enumerate_targets`, the order `CampaignSpace::build` walks; the slot
/// counts are checked equal and the rebuilt report is compared with the
/// engine's own.
pub fn traced_campaign(
    tracer: &Arc<Tracer>,
    threads: usize,
    test: &MarchTest,
    list: &FaultList,
    seed: u64,
) -> String {
    let session = session(threads);
    let config = CampaignConfig::default().with_draws(DRAWS).with_seed(seed);
    let (space, indices) = {
        let _sample = tracer.span("campaign.sample");
        let space = Arc::new(
            CampaignSpace::build(list, CELLS, session.backgrounds()).expect("the AF space builds"),
        );
        let indices = sample_draw_indices(seed, space.total(), config.draws);
        (space, indices)
    };
    tracer.add("campaign.draws", indices.len() as f64);
    let targets = Arc::new(enumerate_targets(list));
    assert_eq!(
        targets.len(),
        space.target_count(),
        "slot order is enumerate_targets order"
    );
    let shards: Arc<Vec<Vec<u64>>> = Arc::new(indices.chunks(SHARD).map(<[_]>::to_vec).collect());
    tracer.add("pool.items", shards.len() as f64);
    let verdicts: Vec<bool> = {
        let _map = tracer.span("pool.map");
        let parent = tracer.current();
        let tracer = Arc::clone(tracer);
        let test = test.clone();
        let space = Arc::clone(&space);
        let targets = Arc::clone(&targets);
        let shard_verdicts = move |shard: &Vec<u64>| -> Vec<bool> {
            let _shard = tracer.span_under("campaign.shard", parent);
            let mut groups: BTreeMap<usize, (Vec<usize>, Vec<CoverageLane>)> = BTreeMap::new();
            {
                let _decode = tracer.span("campaign.decode");
                for (position, &index) in shard.iter().enumerate() {
                    let (slot, lane) = space.decode(index);
                    let group = groups.entry(slot).or_default();
                    group.0.push(position);
                    group.1.push(lane);
                }
            }
            let mut verdicts = vec![false; shard.len()];
            for (slot, (positions, lanes)) in groups {
                let group = packed::verdicts(&tracer, &test, &targets[slot], &lanes, CELLS, false);
                for (position, verdict) in positions.into_iter().zip(group) {
                    verdicts[position] = verdict;
                }
            }
            verdicts
        };
        if session.is_parallel() {
            session
                .execute(Arc::clone(&shards), shard_verdicts)
                .into_iter()
                .flatten()
                .collect()
        } else {
            shards.iter().flat_map(shard_verdicts).collect()
        }
    };
    let draws = indices.len() as u64;
    let detected = verdicts.iter().filter(|&&hit| hit).count() as u64;
    let mut trace = Vec::new();
    let mut truncated = false;
    for (position, (&index, _)) in indices
        .iter()
        .zip(&verdicts)
        .enumerate()
        .filter(|(_, (_, &hit))| !hit)
    {
        if trace.len() >= config.max_escapes {
            truncated = true;
            break;
        }
        let (slot, lane) = {
            let _decode = tracer.span("campaign.decode");
            space.decode(index)
        };
        trace.push(
            JsonObject::new()
                .number("draw", position as u64)
                .string("target", &targets[slot].to_string())
                .string("cells", &lane.cells.to_string())
                .string("background", &format!("{:?}", lane.background))
                .build(),
        );
    }
    let _encode = tracer.span("report.encode");
    let (low, high) = wilson_interval(detected, draws, config.confidence);
    let json = JsonObject::new()
        .string("report", "campaign")
        .string("test", test.name())
        .string("list", list.name())
        .number("space", space.total())
        .number("draws", draws)
        .number("detected", detected)
        .number("escapes", draws - detected)
        .float("estimate_percent", 100.0 * detected as f64 / draws as f64)
        .float("confidence", config.confidence)
        .float("ci_low_percent", 100.0 * low)
        .float("ci_high_percent", 100.0 * high)
        .number("seed", seed)
        .boolean("without_replacement", draws >= space.total())
        .boolean("trace_truncated", truncated)
        .raw_array("trace", trace)
        .build();
    tracer.add("report.encodes", 1.0);
    tracer.add("report.bytes", json.len() as f64);
    json
}

pub fn traced(run: &Run) -> Traced {
    let list = FaultList::address_decoder();
    let seed = seeds(run.seed).next().expect("endless seeds");
    let cli: Vec<String> = tests()
        .iter()
        .map(|test| cli_campaign(run, test.name(), DRAWS, seed).unwrap_or_default())
        .collect();
    let reference = cli.join("\n");
    let mut traced = crate::trace_jobs(
        run,
        true,
        &mut |threads| {
            tests()
                .iter()
                .map(|test| campaign(threads, test, &list, seed))
                .collect::<Vec<_>>()
                .join("\n")
        },
        &mut |tracer, threads| {
            tests()
                .iter()
                .map(|test| traced_campaign(tracer, threads, test, &list, seed))
                .collect::<Vec<_>>()
                .join("\n")
        },
    );
    let in_process = tests()
        .iter()
        .map(|test| campaign(run.threads, test, &list, seed))
        .collect::<Vec<_>>()
        .join("\n");
    let same = in_process == reference;
    traced.correct &= same;
    traced
        .tally
        .record(if same { &Outcome::Ok } else { &Outcome::Wrong });
    traced.notes.push(format!(
        "CLI reports equal the in-process and traced reports: {same}"
    ));
    traced
}
