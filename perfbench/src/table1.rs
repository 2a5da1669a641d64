//! `table1_cold`: the paper's Table 1 experiment, one job at a time, each on
//! a fresh engine and artifact store.
//!
//! One job generates March GABL, GRABL and GABL1 exactly as the `table1`
//! binary configures them, verifies each against its list, and then measures
//! exhaustive coverage of the paper's own March ABL, RABL and ABL1.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use march_gen::{
    exhaustive_candidates, library_candidates, minimise_with, GeneratorConfig, MarchGenerator,
};
use march_test::{catalog, MarchElement, MarchTest, MarchTestBuilder};
use sram_fault_model::FaultList;
use sram_sim::{CandidateBatch, ExecPolicy, PlacementStrategy, Session, SharedEngine, TargetBatch};

use crate::packed;
use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{Run, Timed, Traced};

/// What one job produced; equal across jobs and across traced and untraced
/// jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Notation of each generated test.
    pub notations: Vec<String>,
    /// Summed complexity (the `n` multiplier) of the generated tests.
    pub length_n: usize,
    /// Whether every generated test covers its whole list.
    pub complete: bool,
    /// Fault-list entries the paper's tests miss under exhaustive placement.
    pub fidelity_gap: usize,
}

/// Table 1 as the repository reproduces it today: the three generated tests,
/// their summed length (35n + 29n + 7n) and the coverage the paper's own
/// tests miss under exhaustive placement (6 + 31 + 0). A speed-up must leave
/// every job equal to this; a change that moves it on purpose (a generator
/// change, the fidelity audit) updates it here and names the change.
const EXPECTED_NOTATIONS: [&str; 3] = [
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇓(r0,w0,r0,w1)",
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇑(r1,w1,w1,r1,w0); ⇓(r0,w0,w1)",
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1)",
];
const EXPECTED_LENGTH_N: usize = 71;
const EXPECTED_FIDELITY_GAP: usize = 37;

impl Table1 {
    /// Whether this is today's Table 1 with every generated test complete.
    pub fn as_expected(&self) -> bool {
        self.complete
            && self.notations == EXPECTED_NOTATIONS
            && self.length_n == EXPECTED_LENGTH_N
            && self.fidelity_gap == EXPECTED_FIDELITY_GAP
    }
}

struct Row {
    name: &'static str,
    list: FaultList,
    config: GeneratorConfig,
}

fn rows(list1: &FaultList, list2: &FaultList) -> Vec<Row> {
    vec![
        Row {
            name: "March GABL",
            list: list1.clone(),
            config: GeneratorConfig::without_redundancy_removal(),
        },
        Row {
            name: "March GRABL",
            list: list1.clone(),
            config: GeneratorConfig::default(),
        },
        Row {
            name: "March GABL1",
            list: list2.clone(),
            config: GeneratorConfig::default(),
        },
    ]
}

fn paper_tests(list1: &FaultList, list2: &FaultList) -> Vec<(MarchTest, FaultList)> {
    vec![
        (catalog::march_abl(), list1.clone()),
        (catalog::march_rabl(), list1.clone()),
        (catalog::march_abl1(), list2.clone()),
    ]
}

/// One untraced job through the high-level API.
pub fn job(threads: usize, list1: &FaultList, list2: &FaultList) -> Table1 {
    let engine = SharedEngine::new(ExecPolicy::default().with_threads(threads));
    let session = engine.session();
    let mut out = Table1 {
        notations: Vec::new(),
        length_n: 0,
        complete: true,
        fidelity_gap: 0,
    };
    for row in rows(list1, list2) {
        let generated = MarchGenerator::with_config(row.list.clone(), row.config)
            .named(row.name)
            .generate_with(&session);
        let report = session.coverage(generated.test(), &row.list);
        out.complete &= report.is_complete();
        out.length_n += generated.test().complexity();
        out.notations.push(generated.test().notation());
    }
    let exhaustive = engine
        .session()
        .with_strategy(PlacementStrategy::Exhaustive);
    for (test, list) in paper_tests(list1, list2) {
        let report = exhaustive.coverage(&test, &list);
        out.fidelity_gap += report.total() - report.covered();
    }
    out
}

/// One traced job: the same work, composed from the layer functions.
pub fn traced_job(
    tracer: &Arc<Tracer>,
    threads: usize,
    list1: &FaultList,
    list2: &FaultList,
) -> Table1 {
    let engine = SharedEngine::new(ExecPolicy::default().with_threads(threads));
    let session = engine.session();
    let mut out = Table1 {
        notations: Vec::new(),
        length_n: 0,
        complete: true,
        fidelity_gap: 0,
    };
    for row in rows(list1, list2) {
        let test = generate(tracer, &session, row.name, &row.list, &row.config);
        let (covered, total) = covered_targets(tracer, &session, &test, &row.list);
        out.complete &= covered == total;
        out.length_n += test.complexity();
        out.notations.push(test.notation());
    }
    let exhaustive = engine
        .session()
        .with_strategy(PlacementStrategy::Exhaustive);
    for (test, list) in paper_tests(list1, list2) {
        let (covered, total) = covered_targets(tracer, &exhaustive, &test, &list);
        out.fidelity_gap += total - covered;
    }
    let store = engine.store();
    tracer.add("store.hits", store.hits() as f64);
    tracer.add(
        "store.lookups",
        (store.hits() + store.enumerations() + store.cached_dictionaries()) as f64,
    );
    out
}

/// `(covered, total)` fault targets of `test` under every lane of the
/// session's scope: the coverage report's counts, rebuilt from the lanes and
/// the packed chunk loop.
fn covered_targets(
    tracer: &Tracer,
    session: &Session,
    test: &MarchTest,
    list: &FaultList,
) -> (usize, usize) {
    let _coverage = tracer.span("coverage");
    let lanes = enumerate(
        tracer,
        session,
        list,
        session.memory_cells(),
        session.strategy(),
        session.backgrounds(),
    );
    let covered = lanes
        .iter()
        .filter(|(target, lanes)| {
            packed::verdicts(tracer, test, target, lanes, session.memory_cells(), true)
                .iter()
                .all(|&hit| hit)
        })
        .count();
    (covered, lanes.len())
}

fn enumerate(
    tracer: &Tracer,
    session: &Session,
    list: &FaultList,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: &[sram_sim::InitialState],
) -> Arc<sram_sim::TargetLanes> {
    let hits_before = session.cache_hits();
    let lanes = {
        let _enumerate = tracer.span("enumerate");
        session
            .target_lanes_scoped(list, memory_cells, strategy, backgrounds)
            .expect("the default scope hosts the list")
    };
    if session.cache_hits() == hits_before {
        tracer.add("enumerate.targets", lanes.len() as f64);
        tracer.add(
            "enumerate.lanes",
            lanes.iter().map(|(_, lanes)| lanes.len()).sum::<usize>() as f64,
        );
    }
    lanes
}

/// The greedy generator of `MarchGenerator::generate_with`, step by step.
fn generate(
    tracer: &Arc<Tracer>,
    session: &Session,
    name: &str,
    list: &FaultList,
    config: &GeneratorConfig,
) -> MarchTest {
    let _generate = tracer.span("generate");
    let policy = session.policy();
    let lanes = enumerate(
        tracer,
        session,
        list,
        config.memory_cells,
        config.strategy,
        &config.backgrounds,
    );
    let mut batches: Vec<TargetBatch> = lanes
        .iter()
        .map(|(target, lanes)| {
            TargetBatch::new_with_width(
                target.clone(),
                lanes.clone(),
                config.memory_cells,
                policy.backend,
                policy.lane_width,
            )
            .with_wave_cost_factor(policy.wave_cost_factor)
        })
        .collect();
    let init = MarchElement::initialise(config.initial_write);
    let mut elements = vec![init.clone()];
    advance(tracer, &mut batches, &init);

    let orders = |pool: Vec<MarchElement>| -> Vec<MarchElement> {
        pool.into_iter()
            .filter(|element| config.allowed_orders.contains(&element.order()))
            .collect()
    };
    let library = orders(library_candidates());
    while !batches.is_empty() && elements.len() < config.max_elements {
        let choice = best(tracer, session, &library, &batches)
            .filter(|(_, covered)| *covered > 0)
            .or_else(|| {
                if config.repair {
                    tracer.add("generate.repair_rounds", 1.0);
                    let pool = orders(exhaustive_candidates(config.repair_max_length));
                    best(tracer, session, &pool, &batches).filter(|(_, covered)| *covered > 0)
                } else {
                    None
                }
            });
        let Some((element, _)) = choice else {
            break;
        };
        advance(tracer, &mut batches, &element);
        elements.push(element);
        tracer.add("generate.iterations", 1.0);
    }
    let uncovered = !batches.is_empty();
    let mut builder = MarchTestBuilder::new(name);
    for element in elements {
        builder = builder.push(element);
    }
    let mut test = builder
        .build()
        .expect("the initialisation element is present");
    if config.redundancy_removal && !uncovered {
        let _minimise = tracer.span("minimise");
        let (minimised, removed) = minimise_with(session, &test, list, config);
        tracer.add("minimise.ops_removed", removed as f64);
        test = minimised.with_name(name);
    }
    test
}

fn advance(tracer: &Tracer, batches: &mut Vec<TargetBatch>, element: &MarchElement) {
    let _advance = tracer.span("batch.advance");
    for batch in batches.iter_mut() {
        batch.advance(element);
    }
    batches.retain(|batch| batch.pending() > 0);
}

/// `score_candidates_with` plus the generator's selection scan: candidates
/// are length-sorted into pools, the `(pool × target batch)` grid runs on
/// the session's workers and scores merge back in candidate order.
fn best(
    tracer: &Arc<Tracer>,
    session: &Session,
    candidates: &[MarchElement],
    batches: &[TargetBatch],
) -> Option<(MarchElement, usize)> {
    tracer.add("generate.candidates_scored", candidates.len() as f64);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&index| candidates[index].len());
    let sorted: Vec<MarchElement> = order
        .iter()
        .map(|&index| candidates[index].clone())
        .collect();
    let pools = Arc::new(CandidateBatch::chunked(&sorted, session.policy().batch));
    let mut offsets = Vec::with_capacity(pools.len());
    let mut offset = 0;
    for pool in pools.iter() {
        offsets.push(offset);
        offset += pool.len();
    }
    let jobs: Arc<Vec<(usize, usize)>> = Arc::new(
        (0..pools.len())
            .flat_map(|pool| (0..batches.len()).map(move |batch| (pool, batch)))
            .collect(),
    );
    tracer.add("batch.scores", jobs.len() as f64);
    tracer.add("pool.items", jobs.len() as f64);
    let results: Vec<Vec<usize>> = {
        let _map = tracer.span("pool.map");
        let parent = tracer.current();
        let score = {
            let tracer = Arc::clone(tracer);
            let pools = Arc::clone(&pools);
            let batches = Arc::new(batches.to_vec());
            move |&(pool, batch): &(usize, usize)| {
                let _score = tracer.span_under("batch.score", parent);
                batches[batch].score_pool(&pools[pool])
            }
        };
        if session.is_parallel() {
            session.execute(Arc::clone(&jobs), score)
        } else {
            jobs.iter().map(score).collect()
        }
    };
    let mut scores = vec![0usize; candidates.len()];
    for (&(pool, _), pool_scores) in jobs.iter().zip(results) {
        for (index, score) in pool_scores.into_iter().enumerate() {
            scores[order[offsets[pool] + index]] += score;
        }
    }
    let mut best: Option<(MarchElement, usize)> = None;
    for (candidate, covered) in candidates.iter().zip(scores) {
        let better = match &best {
            None => true,
            Some((current, current_covered)) => {
                covered > *current_covered
                    || (covered == *current_covered && candidate.len() < current.len())
            }
        };
        if better {
            best = Some((candidate.clone(), covered));
        }
    }
    best
}

/// Jobs per timed set-up.
const SETUP_EVERY: usize = 8;
/// Set in the environment of a process that performs one set-up and exits.
pub const SETUP_ENV: &str = "PERFBENCH_TABLE1_SETUP";

/// Runs one set-up in a fresh copy of this program; true if its warm-up job
/// was today's Table 1.
fn setup_in_child() -> bool {
    std::env::current_exe()
        .and_then(|me| {
            Command::new(me)
                .args(std::env::args().skip(1))
                .env(SETUP_ENV, "1")
                .status()
        })
        .is_ok_and(|status| status.success())
}

/// The body of a set-up process: the fault lists and one warm-up job.
/// Returns the exit code.
pub fn setup_process(threads: usize) -> i32 {
    let list1 = FaultList::list_1();
    let list2 = FaultList::list_2();
    i32::from(!job(threads, &list1, &list2).as_expected())
}

/// Runs the workload untraced for `seconds`, timing set-ups along the way.
pub fn timed(run: &Run) -> Timed {
    let mut timed = Timed {
        correct: true,
        ..Timed::default()
    };
    // Every job starts from a fresh engine, so a set-up is what a user pays
    // before the first job: a fresh process, the fault lists, and one
    // warm-up Table 1 that faults in code and heap and pays any one-time
    // initialisation. One is timed before every `SETUP_EVERY` jobs, so their
    // median spans the run as the job latencies do.
    let list1 = FaultList::list_1();
    let list2 = FaultList::list_2();
    let mut first: Option<Table1> = None;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < run.seconds || timed.latencies_ms.len() < run.min_jobs {
        if timed.latencies_ms.len() % SETUP_EVERY == 0 {
            let start = Instant::now();
            let ok = setup_in_child();
            timed.setup_s.push(start.elapsed().as_secs_f64());
            timed.correct &= ok;
        }
        let start = Instant::now();
        let out = job(run.threads, &list1, &list2);
        timed.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        timed.tally.record(if out.as_expected() {
            &Outcome::Ok
        } else {
            &Outcome::Wrong
        });
        first.get_or_insert(out);
        timed.units += 3.0;
    }
    timed.wall_s = started.elapsed().as_secs_f64() - timed.setup_s.iter().sum::<f64>();
    timed.peak_rss_mb = crate::own_peak_rss_mb();
    let first = first.expect("at least one job");
    timed
        .extra
        .push(("march_length_n".into(), first.length_n as f64, "n".into()));
    timed.extra.push((
        "fidelity_gap".into(),
        first.fidelity_gap as f64,
        "count".into(),
    ));
    for notation in &first.notations {
        timed.notes.push(format!("generated: {notation}"));
    }
    timed
}

/// The traced run: untraced and traced jobs alternate at the configured
/// thread count, then a traced scaling sweep covers 1..=nproc threads.
pub fn traced(run: &Run) -> Traced {
    let list1 = FaultList::list_1();
    let list2 = FaultList::list_2();
    let mut traced = crate::trace_jobs(
        run,
        true,
        &mut |threads| format!("{:?}", job(threads, &list1, &list2)),
        &mut |tracer, threads| format!("{:?}", traced_job(tracer, threads, &list1, &list2)),
    );
    // Every traced and untraced result equals the first untraced one, and
    // that one must be today's Table 1.
    let expected = job(run.threads, &list1, &list2).as_expected();
    traced.correct &= expected;
    traced.tally.record(if expected {
        &Outcome::Ok
    } else {
        &Outcome::Wrong
    });
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn today() -> Table1 {
        Table1 {
            notations: EXPECTED_NOTATIONS.map(String::from).to_vec(),
            length_n: EXPECTED_LENGTH_N,
            complete: true,
            fidelity_gap: EXPECTED_FIDELITY_GAP,
        }
    }

    #[test]
    fn a_changed_table1_is_not_expected() {
        assert!(today().as_expected());
        let mut reordered = today();
        reordered.notations.swap(0, 1);
        for changed in [
            reordered,
            Table1 {
                length_n: EXPECTED_LENGTH_N - 1,
                ..today()
            },
            Table1 {
                fidelity_gap: EXPECTED_FIDELITY_GAP - 1,
                ..today()
            },
            Table1 {
                complete: false,
                ..today()
            },
        ] {
            assert!(!changed.as_expected(), "{changed:?}");
        }
    }
}
