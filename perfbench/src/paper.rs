//! `paper_queries`: the six paper queries on seeded generated data. Each
//! is optimised and answered from its SQL text (parse and bind, cover
//! bags, ConCov filter, Algorithm 2 `best` under the DBMS-estimate cost,
//! then plan and Yannakakis), and evaluated under a sample of random
//! ConCov decompositions (Figure 6, right).

use crate::check::{self, Decomp, Edges};
use crate::layers::Layers;
use crate::stats::{median, median_of_means, quantile, tail_quantile, Report};
use crate::{timed_rounds, Args};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softhw_core::constraints::concov_exact_filter;
use softhw_core::ctd_opt::{best, sample_random};
use softhw_core::soft::{cover_bags, soft_bags};
use softhw_core::TreeDecomposition;
use softhw_engine::{Database, EvalStats, Relation};
use softhw_hypergraph::{BitSet, Hypergraph};
use softhw_query::{
    atom_relations, bind, build_plan, execute, parse_sql, Agg, ConjunctiveQuery, CostContext,
    DbmsEstimateCost,
};
use std::time::Instant;

/// Random ConCov decompositions evaluated per query and round.
const SAMPLES: usize = 2;
/// The baseline's materialisation cap: past it the binary-join plan
/// counts as not finishing, and the answers are checked against each
/// other instead.
const BASELINE_CAP: u64 = 2_000_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Every run completes at least this many rounds, so the evaluation
/// class holds at least 48 samples and its tail is the 75th percentile.
const MIN_ROUNDS: usize = 4;
/// The query whose binary-join plan exceeds the baseline cap (Figure 6:
/// the baseline times out); its answers are checked against each other.
const BASELINE_TIMES_OUT: &str = "q_hto";

/// One query with its generated database.
struct Query {
    name: &'static str,
    sql: &'static str,
    k: usize,
    db: Database,
    /// Bound at set-up, for the evaluations.
    cq: ConjunctiveQuery,
    h: Hypergraph,
    atoms: Vec<Relation>,
    /// The ConCov-filtered `Soft_{H,k}` the samples are drawn from.
    concov: Vec<BitSet>,
}

/// The data come from `seed`; the sampled decompositions do not (see
/// `sample_seed`).
fn generate(seed: u64) -> Result<Vec<Query>, String> {
    let mut out = Vec::new();
    for (name, sql, k) in softhw_workloads::queries::all_queries() {
        let db = softhw_workloads::database_for(name, seed);
        let cq = parse_bind(sql, &db)?;
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        let concov = concov_exact_filter(&h, k, &soft_bags(&h, k));
        out.push(Query {
            name,
            sql,
            k,
            db,
            cq,
            h,
            atoms,
            concov,
        });
    }
    Ok(out)
}

/// The sampling seed of decomposition `j` of query `qi`. It is the same
/// for every workload seed: the evaluation times of random ConCov
/// decompositions differ by two orders of magnitude, so a seeded draw
/// would make the workload's cost depend on which plans it hit.
fn sample_seed(qi: usize, j: usize) -> u64 {
    (100 * qi + j) as u64
}

fn parse_bind(sql: &str, db: &Database) -> Result<ConjunctiveQuery, String> {
    let ast = parse_sql(sql).map_err(|e| format!("{e:?}"))?;
    bind(&ast, db).map_err(|e| format!("{e:?}"))
}

/// Times `f` into `layer` when tracing.
fn step<T>(layers: &mut Option<&mut Layers>, layer: &str, f: impl FnOnce() -> T) -> T {
    match layers {
        Some(l) => l.time(layer, None, f),
        None => f(),
    }
}

/// What optimising a query's SQL text yields.
struct Optimised {
    cq: ConjunctiveQuery,
    h: Hypergraph,
    atoms: Vec<Relation>,
    td: TreeDecomposition,
}

/// SQL text → the cheapest ConCov decomposition under the DBMS-estimate
/// cost.
fn optimise(q: &Query, mut layers: Option<&mut Layers>) -> Result<Optimised, String> {
    let cq = step(&mut layers, "query.parse_bind_ms", || {
        parse_bind(q.sql, &q.db)
    })?;
    let h = cq.hypergraph();
    let atoms = step(&mut layers, "query.atoms_ms", || atom_relations(&cq, &q.db));
    let bags = step(&mut layers, "soft.cover_bags_ms", || {
        cover_bags(&h, q.k, true)
    });
    let concov = step(&mut layers, "constraints.concov_ms", || {
        concov_exact_filter(&h, q.k, &bags)
    });
    let cx = CostContext::new(&cq, &h, &atoms, &q.db);
    let chosen = step(&mut layers, "ctd_opt.best_ms", || {
        best(&h, &concov, &DbmsEstimateCost { cx: &cx }).map(|(td, _)| td)
    });
    let td =
        chosen.ok_or_else(|| format!("{}: no ConCov decomposition of width {}", q.name, q.k))?;
    drop(cx);
    Ok(Optimised { cq, h, atoms, td })
}

/// Plans and evaluates `td`.
fn evaluate_td(
    cq: &ConjunctiveQuery,
    h: &Hypergraph,
    atoms: &[Relation],
    td: &TreeDecomposition,
    mut layers: Option<&mut Layers>,
) -> Result<Option<u64>, String> {
    let plan = step(&mut layers, "query.plan_ms", || build_plan(cq, h, td))
        .map_err(|e| format!("{e:?}"))?;
    let res = step(&mut layers, "engine.execute_ms", || {
        execute(cq, atoms, &plan)
    });
    if let Some(l) = layers {
        count_eval(l, &res.stats);
    }
    Ok(res.value)
}

/// SQL text → answer, through `best`.
fn answer(q: &Query, mut layers: Option<&mut Layers>) -> Result<Option<u64>, String> {
    let o = optimise(q, layers.as_deref_mut())?;
    evaluate_td(&o.cq, &o.h, &o.atoms, &o.td, layers)
}

fn count_eval(l: &mut Layers, s: &EvalStats) {
    l.count("engine.tuples_materialised", s.tuples_materialised as usize);
    l.count("engine.semijoins", s.semijoins as usize);
    l.count("engine.semijoin_tuples", s.semijoin_tuples as usize);
}

/// Sampled decomposition `j` of query `qi`, planned and evaluated.
fn evaluate(
    q: &Query,
    qi: usize,
    j: usize,
    mut layers: Option<&mut Layers>,
) -> Result<Option<u64>, String> {
    let mut rng = SmallRng::seed_from_u64(sample_seed(qi, j));
    let td = step(&mut layers, "ctd_opt.sample_ms", || {
        sample_random(&q.h, &q.concov, &mut rng)
    })
    .ok_or_else(|| format!("{}: no ConCov decomposition to sample", q.name))?;
    evaluate_td(&q.cq, &q.h, &q.atoms, &td, layers)
}

/// The binary-join baseline's answer, or `None` past its cap.
fn baseline(q: &Query) -> Option<Option<u64>> {
    let res = softhw_engine::baseline::run_baseline(&q.atoms, &[q.cq.agg_var], BASELINE_CAP)?;
    Some(match q.cq.agg {
        Agg::Min => res.answer.min_of(q.cq.agg_var),
        Agg::Max => res.answer.max_of(q.cq.agg_var),
        Agg::Count => Some(res.answer.len() as u64),
    })
}

/// What one query gives in a round: the decomposition `best` chose, the
/// answer through it, and the value under each sampled decomposition.
#[derive(Debug, PartialEq)]
struct Outcome {
    chosen: Vec<(Option<usize>, Vec<usize>)>,
    answer: Option<u64>,
    samples: Vec<Option<u64>>,
}

/// One round over the queries: per query, optimise, answer, then the
/// sampled evaluations, each timed into `lat` (evaluate, answer,
/// optimise) when given.
fn round(queries: &[Query], mut lat: Option<&mut [Vec<f64>; 3]>) -> Result<Vec<Outcome>, String> {
    let mut clock = |class: usize, t: Instant| {
        if let Some(lat) = lat.as_deref_mut() {
            lat[class].push(t.elapsed().as_secs_f64() * 1e3);
        }
    };
    let mut out = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let chosen = Decomp::of(&optimise(q, None)?.td).nodes;
        clock(2, t);
        let t = Instant::now();
        let answer = answer(q, None)?;
        clock(1, t);
        let mut samples = Vec::with_capacity(SAMPLES);
        for j in 0..SAMPLES {
            let t = Instant::now();
            samples.push(evaluate(q, qi, j, None)?);
            clock(0, t);
        }
        out.push(Outcome {
            chosen,
            answer,
            samples,
        });
    }
    Ok(out)
}

/// Checks a round's outcomes: each chosen decomposition is a ConCov
/// witness of width k, and every value equals the binary-join
/// baseline's — except for the query whose baseline times out, whose
/// values must all agree.
fn check(queries: &[Query], outcomes: &[Outcome]) -> Result<(), String> {
    for (q, o) in queries.iter().zip(outcomes) {
        let d = Decomp {
            nodes: o.chosen.clone(),
        };
        check::concov_witness(&Edges::of(&q.h), &d, q.k)
            .map_err(|e| format!("{}: chosen decomposition: {e}", q.name))?;
        let truth = if q.name == BASELINE_TIMES_OUT {
            o.answer
        } else {
            baseline(q).ok_or_else(|| format!("{}: baseline exceeded its cap", q.name))?
        };
        if o.answer != truth || o.samples.iter().any(|v| *v != truth) {
            return Err(format!(
                "{}: answers disagree (expected {truth:?}, best {:?}, samples {:?})",
                q.name, o.answer, o.samples
            ));
        }
    }
    Ok(())
}

fn setup(seed: u64) -> Result<(Vec<Query>, f64), String> {
    let mut setups = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        queries = generate(seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    Ok((queries, median(&setups)))
}

/// Runs `paper_queries`.
pub fn run(args: &Args) -> Result<Report, String> {
    let (queries, setup_s) = setup(args.seed)?;
    // An untimed first round; every timed round must repeat it.
    let first = round(&queries, None)?;
    // Latencies per class (evaluate, answer, optimise), per round.
    let mut lat: [Vec<Vec<f64>>; 3] = Default::default();
    let mut errors = Vec::new();
    let round_secs = timed_rounds(args.seconds, MIN_ROUNDS, |_| {
        let mut cur: [Vec<f64>; 3] = Default::default();
        let start = Instant::now();
        match round(&queries, Some(&mut cur)) {
            Ok(outcomes) if outcomes == first => {}
            Ok(_) => errors.push("a round's outcomes differ from the first round's".to_string()),
            Err(e) => errors.push(e),
        }
        let secs = start.elapsed().as_secs_f64();
        for (class, samples) in lat.iter_mut().zip(cur) {
            class.push(samples);
        }
        secs
    });
    // Read before the checks, which run the baseline.
    let rss = crate::own_peak_rss_mb();
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    check(&queries, &first)?;
    let per_round = queries.len() * (2 + SAMPLES);
    let attempted = (round_secs.len() * per_round) as u64;
    let mut r = Report {
        correct: true,
        attempted,
        failed: 0,
        ..Report::default()
    };
    let [evals, answers, optimised] = &lat;
    let min_evals = MIN_ROUNDS * queries.len() * SAMPLES;
    crate::push_common(&mut r, setup_s, rss, per_round as f64 / median(&round_secs));
    // Means over the whole list, like decide_mix: the sampled plans'
    // times differ by two orders of magnitude, so a median is one plan.
    r.push("latency_ms", median_of_means(evals), "ms");
    r.push(
        "tail_ms",
        quantile(&evals.concat(), tail_quantile(min_evals)),
        "ms",
    );
    r.push("second_ms", median_of_means(answers), "ms");
    r.push("third_ms", median_of_means(optimised), "ms");
    Ok(r)
}

/// The layers of the answer and evaluation paths.
const LAYERS: [&str; 8] = [
    "query.parse_bind_ms",
    "query.atoms_ms",
    "soft.cover_bags_ms",
    "constraints.concov_ms",
    "ctd_opt.best_ms",
    "ctd_opt.sample_ms",
    "query.plan_ms",
    "engine.execute_ms",
];

/// One answer or evaluation, traced into the given layers or not.
type Operation<'a> = dyn Fn(Option<&mut Layers>) -> Result<Option<u64>, String> + 'a;

/// The query path's per-layer figures: one round of answers and
/// evaluations, each run untraced and then with a timer around every
/// step.
pub fn layer_pass(seed: u64, out: &mut Report) -> Result<usize, String> {
    let queries = generate(seed)?;
    // Each operation runs untraced, then traced, in the same process
    // state; both must give the same value.
    let mut layers = Layers::default();
    let (mut traced_s, mut untraced_s, mut ops) = (0.0, 0.0, 0);
    let mut pair = |f: &Operation, layers: &mut Layers| -> Result<(), String> {
        let t = Instant::now();
        let plain = f(None)?;
        untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let timed = f(Some(layers))?;
        traced_s += t.elapsed().as_secs_f64();
        ops += 1;
        if plain != timed {
            return Err("traced answers differ from untraced ones".into());
        }
        Ok(())
    };
    for (qi, q) in queries.iter().enumerate() {
        pair(&|l| answer(q, l), &mut layers)?;
        for j in 0..SAMPLES {
            pair(&|l| evaluate(q, qi, j, l), &mut layers)?;
        }
    }
    for name in LAYERS {
        out.push(name, layers.ms(name), "ms");
    }
    for name in [
        "engine.tuples_materialised",
        "engine.semijoins",
        "engine.semijoin_tuples",
    ] {
        out.push(name, layers.get_count(name), "count");
    }
    let sum = layers.sum_ms(&LAYERS);
    crate::push_ledger(out, "paper_queries", "ms", untraced_s * 1e3, sum);
    let n = ops as f64;
    out.push(
        "trace.paper_queries.overhead_ops_per_s",
        n / untraced_s - n / traced_s,
        "1/s",
    );
    Ok(2 * ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_catches_wrong_answers_and_witnesses() {
        let queries = generate(1).unwrap();
        let q_ds = &queries[..1];
        assert_eq!(q_ds[0].name, "q_ds");
        let mut outcomes = round(q_ds, None).unwrap();
        assert_eq!(check(q_ds, &outcomes), Ok(()));
        outcomes[0].samples[0] = outcomes[0].samples[0].map(|v| v + 1).or(Some(1));
        assert!(check(q_ds, &outcomes).is_err());
        let mut outcomes = round(q_ds, None).unwrap();
        let root = outcomes[0].chosen[0].clone();
        outcomes[0].chosen = vec![(None, root.1[..1].to_vec())];
        assert!(check(q_ds, &outcomes).is_err());
    }
}
