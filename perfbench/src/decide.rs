//! `decide_mix`: cold `shw` decisions and exact width sweeps through the
//! library front door (`SolveSpec` → `DecompCache::solve`, a fresh cache
//! per operation) over a fixed list of instances.

use crate::check::{self, Decomp, Edges};
use crate::layers::{word_split, Layers};
use crate::stats::{median, median_of_means, quantile, tail_quantile, Report};
use crate::{timed_rounds, Args};
use softhw_core::ctd::CtdInstance;
use softhw_core::reduce_solve::lift_td;
use softhw_core::soft::soft_bag_ids;
use softhw_core::{DecompCache, SoftLimits, SolveSpec, Solved, TreeDecomposition};
use softhw_hypergraph::random::{random_hypergraph, RandomConfig};
use softhw_hypergraph::{
    named, parse_hypergraph, reduce, render_hypergraph, BlockIndex, Hypergraph,
};
use std::borrow::Cow;
use std::time::Instant;

/// What an instance is, for the checks that know its answer.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// The `n × n` grid.
    Grid(usize),
    /// A 3-row ladder (the `3 × m` grid): `shw ≤ 2` holds.
    Ladder,
    /// One of the paper's named hypergraphs.
    Named,
    /// A seeded random hypergraph.
    Random,
    /// A file of `data/hyperbench`, parsed inside the operation.
    HyperBench,
}

struct Instance {
    name: String,
    kind: Kind,
    /// The HyperBench text the program is given.
    text: String,
    /// Parsed at set-up; `None` for the HyperBench files, which each
    /// operation parses itself.
    h: Option<Hypergraph>,
    vertices: usize,
}

/// Operation classes: bounded decisions (the primary class), exact
/// sweeps, and HyperBench parse-and-decide.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Bounded,
    Exact,
    HyperBench,
}

#[derive(Clone, Copy)]
struct Op {
    inst: usize,
    /// `Some(k)`: decide `shw ≤ k`; `None`: the exact width.
    k: Option<usize>,
    class: Class,
}

/// An answer: the width (exact sweeps) or k (decisions), the verdict,
/// and the witness as `(parent, bag)` nodes.
#[derive(Clone, PartialEq)]
struct Answer {
    width: usize,
    accepted: bool,
    td: Option<Vec<(Option<usize>, Vec<usize>)>>,
}

/// Sides of the bounded grids (all rejected at k = 2).
const GRID_SIDES: [usize; 6] = [6, 7, 8, 9, 10, 12];
/// Lengths of the 3-row ladders (all accepted at k = 2): 24, 48 and 72
/// vertices.
const LADDER_LENGTHS: [usize; 3] = [8, 16, 24];
/// `(vertices, edges)` of the seeded random hypergraphs, arity 2–4; two
/// instances of each.
const RANDOM_SHAPES: [(usize, usize); 8] = [
    (16, 9),
    (20, 11),
    (24, 13),
    (32, 17),
    (40, 21),
    (56, 29),
    (72, 37),
    (90, 46),
];
/// The HyperBench files decided at k = 1.
const HYPERBENCH_FILES: [&str; 2] = [
    "data/hyperbench/grid24x24.hg",
    "data/hyperbench/rand1200.hg",
];
/// Times each HyperBench file is decided per round: one decision takes
/// about 25 ms, and two samples a round made their mean swing by a
/// fifth between runs.
const HYPERBENCH_REPEATS: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;
/// Every run completes at least this many rounds, so the bounded class
/// holds at least 108 samples and its tail is the 90th percentile.
const MIN_ROUNDS: usize = 4;

struct Workload {
    instances: Vec<Instance>,
    ops: Vec<Op>,
}

/// The instance list and the operation list made from `seed`: a
/// `shw ≤ k` decision for each k an instance lists, and the exact sweep
/// on every instance of at most 24 vertices.
fn generate(seed: u64) -> Result<Workload, String> {
    let mut listed: Vec<(Instance, &[usize])> = Vec::new();
    let mut add = |name: String, kind: Kind, text: String, ks: &'static [usize]| {
        let inst = Instance {
            name,
            kind,
            text,
            h: None,
            vertices: 0,
        };
        listed.push((inst, ks));
    };
    for n in GRID_SIDES {
        add(
            format!("grid{n}x{n}"),
            Kind::Grid(n),
            render_hypergraph(&named::grid(n, n)),
            &[2],
        );
    }
    for m in LADDER_LENGTHS {
        add(
            format!("ladder3x{m}"),
            Kind::Ladder,
            render_hypergraph(&named::grid(3, m)),
            &[2],
        );
    }
    for (i, &(v, e)) in RANDOM_SHAPES.iter().enumerate() {
        let cfg = RandomConfig {
            num_vertices: v,
            num_edges: e,
            min_arity: 2,
            max_arity: 4,
            connect: true,
        };
        for j in 0..2 {
            let key = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((2 * i + j) as u64);
            let text = render_hypergraph(&random_hypergraph(&cfg, key));
            add(format!("random{v}.{j}"), Kind::Random, text, &[2]);
        }
    }
    add(
        "h2".into(),
        Kind::Named,
        render_hypergraph(&named::h2()),
        &[],
    );
    add(
        "h3".into(),
        Kind::Named,
        render_hypergraph(&named::h3()),
        &[2, 3],
    );
    add(
        "cycle8".into(),
        Kind::Named,
        render_hypergraph(&named::cycle(8)),
        &[],
    );
    add(
        "grid4x4".into(),
        Kind::Grid(4),
        render_hypergraph(&named::grid(4, 4)),
        &[],
    );
    for path in HYPERBENCH_FILES {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        add(path.to_string(), Kind::HyperBench, text, &[1]);
    }
    // The program gets the text; parsing it is part of set-up (the
    // HyperBench files are parsed again inside their operations).
    let mut instances = Vec::new();
    let mut ops = Vec::new();
    for (i, (mut inst, ks)) in listed.into_iter().enumerate() {
        let h = parse_hypergraph(&inst.text).map_err(|e| format!("{}: {e:?}", inst.name))?;
        inst.vertices = h.num_vertices();
        let (class, repeats) = match inst.kind {
            Kind::HyperBench => (Class::HyperBench, HYPERBENCH_REPEATS),
            _ => (Class::Bounded, 1),
        };
        for &k in ks {
            for _ in 0..repeats {
                ops.push(Op {
                    inst: i,
                    k: Some(k),
                    class,
                });
            }
        }
        if inst.kind != Kind::HyperBench {
            if inst.vertices <= 24 {
                ops.push(Op {
                    inst: i,
                    k: None,
                    class: Class::Exact,
                });
            }
            inst.h = Some(h);
        }
        instances.push(inst);
    }
    Ok(Workload { instances, ops })
}

fn to_answer(k: Option<usize>, solved: Solved) -> Answer {
    match solved {
        Solved::ShwDecision(td) => Answer {
            width: k.unwrap_or(0),
            accepted: td.is_some(),
            td: td.map(|td| Decomp::of(&td).nodes),
        },
        Solved::ShwWidth(w, td) => Answer {
            width: w,
            accepted: true,
            td: Some(Decomp::of(&td).nodes),
        },
        _ => Answer {
            width: 0,
            accepted: false,
            td: None,
        },
    }
}

fn spec(k: Option<usize>) -> SolveSpec {
    match k {
        Some(k) => SolveSpec::shw_leq(k),
        None => SolveSpec::shw(),
    }
}

/// The instance's hypergraph: parsed at set-up, or (HyperBench files)
/// parsed now.
fn hypergraph(inst: &Instance) -> Result<Cow<'_, Hypergraph>, String> {
    match &inst.h {
        Some(h) => Ok(Cow::Borrowed(h)),
        None => parse_hypergraph(&inst.text)
            .map(Cow::Owned)
            .map_err(|e| format!("{}: {e:?}", inst.name)),
    }
}

/// One operation through the front door, with a fresh cache.
fn run_op(w: &Workload, op: Op) -> Result<Answer, String> {
    let inst = &w.instances[op.inst];
    let h = hypergraph(inst)?;
    let solved = DecompCache::new()
        .solve(&h, &spec(op.k))
        .map_err(|e| format!("{}: {e}", inst.name))?;
    Ok(to_answer(op.k, solved))
}

/// Checks one answer against computations made apart from the solver.
fn check_answer(w: &Workload, op: Op, a: &Answer) -> Result<(), String> {
    let inst = &w.instances[op.inst];
    let h = &*hypergraph(inst)?;
    let edges = Edges::of(h);
    let ctx = |e: String| format!("{} (k={:?}): {e}", inst.name, op.k);
    if a.accepted {
        let nodes =
            a.td.clone()
                .ok_or_else(|| ctx("accepted without a witness".into()))?;
        check::witness(&edges, &Decomp { nodes }, a.width).map_err(ctx)?;
    }
    if let Kind::Grid(n) = inst.kind {
        if let Some(k) = op.k {
            check::grid_decision(n, k, a.accepted).map_err(ctx)?;
        }
    }
    if inst.kind == Kind::Ladder && !a.accepted {
        return Err(ctx("rejected a 3-row ladder, which has shw <= 2".into()));
    }
    match op.k {
        Some(k) => check::known_decision(&inst.name, k, a.accepted).map_err(ctx)?,
        None => {
            if let Some(known) = check::known_width(&inst.name, "shw") {
                if known != a.width {
                    return Err(ctx(format!(
                        "width {} but the paper gives {known}",
                        a.width
                    )));
                }
            }
        }
    }
    match op.k {
        // A rejection no bound above proves must agree with the
        // reduce-before-solve pipeline, and `hw ≤ k` would force an
        // acceptance (shw ≤ hw).
        Some(k) if !a.accepted => {
            let proved = matches!(inst.kind, Kind::Grid(n) if check::grid_rules_out(n, k))
                || check::known_width(&inst.name, "shw").is_some_and(|w| w > k);
            if !proved {
                if softhw_core::reduce_solve::shw_leq(h, k).is_some() {
                    return Err(ctx("rejected, but the reduced pieces all accept".into()));
                }
                if softhw_core::hw::hw_leq(h, k).is_some() {
                    return Err(ctx("rejected, but hw <= k".into()));
                }
            }
        }
        // An exact width must match the reduce-free sweep and be minimal.
        None => {
            let raw = DecompCache::new()
                .solve(h, &SolveSpec::shw().with_reduce(false))
                .map_err(|e| ctx(e.to_string()))?;
            if raw.width() != Some(a.width) {
                return Err(ctx(format!(
                    "width {} but the reduce-free sweep gives {:?}",
                    a.width,
                    raw.width()
                )));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Runs `decide_mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        w = Some(generate(args.seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let w = w.expect("SETUP_REPS > 0");

    // An untimed first pass (a fresh process pays for growing its heap
    // here); every timed round must repeat its answers.
    let expected = w
        .ops
        .iter()
        .map(|&op| run_op(&w, op))
        .collect::<Result<Vec<Answer>, String>>()?;

    // Latencies per class, per round.
    let mut lat: [Vec<Vec<f64>>; 3] = Default::default();
    let mut mismatches = Vec::new();
    let round_secs = timed_rounds(args.seconds, MIN_ROUNDS, |_| {
        for class in &mut lat {
            class.push(Vec::new());
        }
        let start = Instant::now();
        for (i, &op) in w.ops.iter().enumerate() {
            let t = Instant::now();
            let a = run_op(&w, op);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(round) = lat[op.class as usize].last_mut() {
                round.push(ms);
            }
            match a {
                Ok(a) if a == expected[i] => {}
                Ok(_) => mismatches.push(format!("op {i}: answer changed between rounds")),
                Err(e) => mismatches.push(e),
            }
        }
        start.elapsed().as_secs_f64()
    });
    // Read before the checks, which run other solvers.
    let rss = crate::own_peak_rss_mb();
    if let Some(e) = mismatches.first() {
        return Err(e.clone());
    }
    // Each distinct (instance, k) once: the rounds repeated its answer.
    let mut checked = Vec::new();
    for (&op, a) in w.ops.iter().zip(&expected) {
        if !checked.contains(&(op.inst, op.k)) {
            check_answer(&w, op, a)?;
            checked.push((op.inst, op.k));
        }
    }
    let attempted = (round_secs.len() * w.ops.len()) as u64;
    let mut r = Report {
        correct: true,
        attempted,
        failed: 0,
        ..Report::default()
    };
    let per_round = w.ops.iter().filter(|o| o.class == Class::Bounded).count();
    let [bounded, exact, hb] = &lat;
    let ops_per_s = w.ops.len() as f64 / median(&round_secs);
    crate::push_common(&mut r, median(&setups), rss, ops_per_s);
    // Means over the whole list: a median would be whichever instance
    // the seeded random hypergraphs push to the middle.
    r.push("latency_ms", median_of_means(bounded), "ms");
    let all: Vec<f64> = bounded.concat();
    r.push(
        "tail_ms",
        quantile(&all, tail_quantile(MIN_ROUNDS * per_round)),
        "ms",
    );
    r.push("second_ms", median_of_means(exact), "ms");
    r.push("third_ms", median_of_means(hb), "ms");
    Ok(r)
}

/// The layered replay of one operation: the same work as the front door,
/// with a timer around each public call. Returns the answer.
fn replay(w: &Workload, op: Op, layers: &mut Layers) -> Result<Answer, String> {
    let inst = &w.instances[op.inst];
    let limits = SoftLimits::default();
    let split = Some(word_split(inst.vertices));
    let parsed;
    let h = match &inst.h {
        Some(h) => h,
        None => {
            let text = &inst.text;
            parsed = layers
                .time("parse.hyperbench_ms", split, || parse_hypergraph(text))
                .map_err(|e| format!("{e:?}"))?;
            &parsed
        }
    };
    // Cold-rebuild `shw ≤ k` on one piece with its index.
    let decide = |index: &mut BlockIndex, k: usize, layers: &mut Layers| {
        let bags = layers
            .time("soft.enumerate_ms", split, || {
                soft_bag_ids(index, k, &limits)
            })
            .map_err(|e| format!("{}: {e:?}", inst.name))?;
        layers.count("soft.bags", bags.len());
        let ci = layers.time("ctd.build_ms", split, || CtdInstance::build(index, &bags));
        layers.count("ctd.blocks", ci.blocks.len());
        let sat = layers.time("ctd.satisfy_ms", split, || ci.satisfy());
        layers.count("ctd.satisfied_blocks", sat.basis.iter().flatten().count());
        if !sat.accept {
            return Ok::<Option<TreeDecomposition>, String>(None);
        }
        Ok(layers.time("ctd.extract_ms", split, || ci.extract(&sat)))
    };
    match op.k {
        Some(k) => {
            let mut index = layers.time("blocks.index_ms", split, || BlockIndex::new(h));
            let td = decide(&mut index, k, layers)?;
            Ok(Answer {
                width: k,
                accepted: td.is_some(),
                td: td.map(|td| Decomp::of(&td).nodes),
            })
        }
        None => {
            let red = layers.time("reduce.reduce_ms", split, || reduce(h));
            layers.count("reduce.pieces", red.pieces.len());
            let pieces: Vec<&Hypergraph> = if red.is_trivial() {
                vec![h]
            } else {
                red.pieces.iter().map(|p| &p.h).collect()
            };
            let mut width = 1;
            let mut tds = Vec::new();
            for piece in pieces {
                let mut index = layers.time("blocks.index_ms", split, || BlockIndex::new(piece));
                let mut k = 1;
                let td = loop {
                    if let Some(td) = decide(&mut index, k, layers)? {
                        break td;
                    }
                    k += 1;
                    if k > piece.num_edges().max(1) {
                        return Err(format!("{}: no width accepted", inst.name));
                    }
                };
                width = width.max(k);
                tds.push(td);
            }
            let td = if red.is_trivial() {
                tds.pop().expect("one piece")
            } else {
                lift_td(h, &red, &tds)
            };
            Ok(Answer {
                width,
                accepted: true,
                td: Some(Decomp::of(&td).nodes),
            })
        }
    }
}

/// The layers whose sum the front door is compared against.
const LAYERS: [&str; 7] = [
    "parse.hyperbench_ms",
    "reduce.reduce_ms",
    "blocks.index_ms",
    "soft.enumerate_ms",
    "ctd.build_ms",
    "ctd.satisfy_ms",
    "ctd.extract_ms",
];

/// The decision path's per-layer figures: every operation once as the
/// layered replay and once through the front door.
pub fn layer_pass(seed: u64, out: &mut Report) -> Result<usize, String> {
    let w = generate(seed)?;
    // Each operation runs layered, then through the front door, so both
    // see the same process state (a first pass in a fresh process pays
    // for growing the heap).
    let mut whole = Layers::default();
    let mut layers = Layers::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for &op in &w.ops {
        let t = Instant::now();
        let a = replay(&w, op, &mut layers)?;
        traced_s += t.elapsed().as_secs_f64();
        let split = Some(word_split(w.instances[op.inst].vertices));
        let t = Instant::now();
        let b = whole.time("front_door_ms", split, || run_op(&w, op))?;
        untraced_s += t.elapsed().as_secs_f64();
        if (a.accepted, a.width) != (b.accepted, b.width) {
            return Err(format!(
                "{}: layered replay disagrees",
                w.instances[op.inst].name
            ));
        }
    }
    for name in LAYERS {
        for suffix in ["", ".le64", ".gt64"] {
            let key = format!("{name}{suffix}");
            out.push(key.clone(), layers.ms(&key), "ms");
        }
    }
    for suffix in ["", ".le64", ".gt64"] {
        let names: Vec<String> = LAYERS.iter().map(|n| format!("{n}{suffix}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let residual = whole.ms(&format!("front_door_ms{suffix}")) - layers.sum_ms(&refs);
        out.push(format!("cache.residual_ms{suffix}"), residual, "ms");
    }
    for name in [
        "reduce.pieces",
        "soft.bags",
        "ctd.blocks",
        "ctd.satisfied_blocks",
    ] {
        out.push(name, layers.get_count(name), "count");
    }
    let whole_ms = whole.ms("front_door_ms");
    let sum = layers.sum_ms(&LAYERS);
    crate::push_ledger(out, "decide_mix", "ms", whole_ms, sum);
    let n = w.ops.len() as f64;
    out.push(
        "trace.decide_mix.overhead_ops_per_s",
        n / untraced_s - n / traced_s,
        "1/s",
    );
    Ok(2 * w.ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-instance workload around `h`.
    fn workload(name: &str, kind: Kind, h: Hypergraph) -> Workload {
        Workload {
            instances: vec![Instance {
                name: name.into(),
                kind,
                text: render_hypergraph(&h),
                vertices: h.num_vertices(),
                h: Some(h),
            }],
            ops: Vec::new(),
        }
    }

    fn op(k: Option<usize>) -> Op {
        Op {
            inst: 0,
            k,
            class: Class::Bounded,
        }
    }

    #[test]
    fn right_answers_pass() {
        let w = workload("cycle8", Kind::Named, named::cycle(8));
        for k in [Some(1), Some(2), None] {
            let a = run_op(&w, op(k)).unwrap();
            assert_eq!(check_answer(&w, op(k), &a), Ok(()));
        }
    }

    #[test]
    fn a_wrong_rejection_disagrees_with_the_other_solvers() {
        // A seeded random hypergraph, so no bound or known width applies.
        let w = workload("random", Kind::Random, named::cycle(6));
        let wrong = Answer {
            width: 2,
            accepted: false,
            td: None,
        };
        assert!(check_answer(&w, op(Some(2)), &wrong).is_err());
    }

    #[test]
    fn a_corrupted_witness_is_caught() {
        let w = workload("random", Kind::Random, named::cycle(6));
        let mut a = run_op(&w, op(Some(2))).unwrap();
        let nodes = a.td.as_mut().unwrap();
        nodes[0].1.pop();
        assert!(check_answer(&w, op(Some(2)), &a).is_err());
    }

    #[test]
    fn a_grid_acceptance_and_a_wrong_width_are_caught() {
        let w = workload("grid6x6", Kind::Grid(6), named::grid(6, 6));
        let wrong = Answer {
            width: 2,
            accepted: true,
            td: None,
        };
        assert!(check_answer(&w, op(Some(2)), &wrong).is_err());
        let w = workload("cycle8", Kind::Named, named::cycle(8));
        let mut a = run_op(&w, op(None)).unwrap();
        a.width = 3;
        assert!(check_answer(&w, op(None), &a).is_err());
    }

    #[test]
    fn a_ladder_rejection_is_caught() {
        let w = workload("ladder3x8", Kind::Ladder, named::grid(3, 8));
        let wrong = Answer {
            width: 2,
            accepted: false,
            td: None,
        };
        assert!(check_answer(&w, op(Some(2)), &wrong).is_err());
    }
}
