//! `trader_churn`: one thread drives one trader holding 4000 offers of
//! four service types with queries of varying selectivity, preference
//! and `return_card`, interleaved with exports, withdraws, modifies and
//! standing-query refreshes. Every answer is checked afterwards by
//! replaying the run on the benchmark's own mirror of the offer table.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use adapta_idl::{TypeCode, Value};
use adapta_orb::{ObjRef, Orb};
use adapta_trading::{
    Constraint, ExportRequest, OfferId, OfferMatch, Preference, PropDef, PropMode, PropValue,
    Query, QueryHandle, ServiceTypeDef, Trader, TradingService,
};

use super::{set_up, telemetry_layers, WARMUP_SHARE};
use crate::alloc::thread_allocs;
use crate::check::{Mirror, Pref, Props, QuerySpec, Shape, REGIONS};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::{ns32, Config, Outcome, Phase, PhaseMark};

/// Operations per second of `--seconds`.
const RATE: u64 = 400;
/// Deployments built per run (one takes about 25 ms).
const SETUPS: usize = 15;
/// Service types of the churned offers.
const TYPES: u8 = 4;
/// Offers exported at set-up.
const OFFERS: u32 = 4000;
/// Every this many operations one is the fixed `max Discount` query.
const FIXED_EVERY: usize = 100;
/// The type of the fixed query's six offers.
const FIXED_TYPE: u8 = TYPES;
/// Discounts of the fixed offers; `None` fails to score.
const FIXED_DISCOUNTS: [Option<f64>; 6] = [None, Some(10.0), None, Some(30.0), None, Some(20.0)];

fn type_name(ty: u8) -> String {
    if ty == FIXED_TYPE {
        "Fixed".to_owned()
    } else {
        format!("Svc{ty}")
    }
}

/// The standing queries refreshed through `QueryHandle`s.
fn handles() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            ty: 0,
            shape: Shape::CostBelow(30.0),
            pref: Pref::MinCost,
            card: 50,
        },
        QuerySpec {
            ty: 1,
            shape: Shape::RegionCost("eu", 50.0),
            pref: Pref::First,
            card: 1000,
        },
        QuerySpec {
            ty: 2,
            shape: Shape::TierLoad(3, 5.0),
            pref: Pref::MaxLoad,
            card: 20,
        },
        QuerySpec {
            ty: 3,
            shape: Shape::LoadOrTier(1.0, 5),
            pref: Pref::WithEu,
            card: 100,
        },
    ]
}

fn query_of(q: &QuerySpec) -> Query {
    Query::new(type_name(q.ty))
        .constraint(q.shape.constraint())
        .preference(q.pref.source())
        .return_card(q.card)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn props(rng: &mut Rng, ix: u32) -> Props {
    let mut roll = rng.unit();
    let region = REGIONS
        .iter()
        .find(|(_, share)| {
            let hit = roll < *share;
            roll -= share;
            hit
        })
        .map_or("eu", |(r, _)| *r);
    Props {
        cost: round2(rng.unit() * 100.0),
        load: round2(rng.unit() * 10.0),
        region,
        tier: 1 + rng.below(5) as i64,
        name: format!("n{ix:05}"),
        discount: rng.chance(0.3).then(|| round2(rng.unit() * 50.0)),
    }
}

fn export_request(ty: u8, ix: u32, p: &Props) -> ExportRequest {
    let target = ObjRef::new("inproc://tc-servers", format!("svc-{ix}"), type_name(ty));
    p.to_values()
        .into_iter()
        .fold(ExportRequest::new(type_name(ty), target), |r, (k, v)| {
            r.with_property(k, v)
        })
}

enum Op {
    Query(QuerySpec, Query),
    Fixed(QuerySpec, Query),
    Export(u8, u32, Props, Option<ExportRequest>),
    Withdraw(u64),
    Modify(u64, f64, f64),
    Refresh(usize),
}

/// What an operation returned, kept for the replay check.
#[derive(Debug, Clone)]
enum Rec {
    Done,
    Ids(Range<usize>),
    Delta(Range<usize>, Range<usize>, Range<usize>),
    Chosen(u32),
    Failed,
}

struct Inputs {
    population: Vec<(u8, Props)>,
    plan: Vec<Op>,
}

fn inputs(seed: u64, total_ops: usize) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let mut population: Vec<(u8, Props)> = (0..OFFERS)
        .map(|ix| ((ix % u32::from(TYPES)) as u8, props(&mut rng, ix)))
        .collect();
    for (k, discount) in FIXED_DISCOUNTS.iter().enumerate() {
        let ix = OFFERS + k as u32;
        let mut p = props(&mut Rng::new(0, 99), ix);
        p.discount = *discount;
        population.push((FIXED_TYPE, p));
    }
    let fixed = QuerySpec {
        ty: FIXED_TYPE,
        shape: Shape::All,
        pref: Pref::MaxDiscount,
        card: 10,
    };
    let mut next_ix = population.len() as u32;
    let plan = (0..total_ops)
        .map(|i| {
            if (i + 1) % FIXED_EVERY == 0 {
                return Op::Fixed(fixed.clone(), query_of(&fixed));
            }
            match rng.below(1000) {
                0..=549 => {
                    let q = query_spec(&mut rng);
                    let query = query_of(&q);
                    Op::Query(q, query)
                }
                550..=674 => {
                    let ty = rng.below(u64::from(TYPES)) as u8;
                    let p = props(&mut rng, next_ix);
                    let req = export_request(ty, next_ix, &p);
                    next_ix += 1;
                    Op::Export(ty, next_ix - 1, p, Some(req))
                }
                675..=799 => Op::Withdraw(rng.next_u64()),
                800..=899 => Op::Modify(
                    rng.next_u64(),
                    round2(rng.unit() * 100.0),
                    round2(rng.unit() * 10.0),
                ),
                _ => Op::Refresh(rng.index(4)),
            }
        })
        .collect();
    Inputs { population, plan }
}

fn query_spec(rng: &mut Rng) -> QuerySpec {
    let shape = match rng.below(7) {
        0 => Shape::CostBelow(round2(60.0 + rng.unit() * 40.0)),
        1 => Shape::LoadOrTier(round2(2.0 + rng.unit() * 6.0), 2 + rng.below(4) as i64),
        2 => Shape::All,
        3 => Shape::RegionCost(
            REGIONS[rng.index(REGIONS.len())].0,
            round2(5.0 + rng.unit() * 20.0),
        ),
        4 => Shape::TierLoad(1 + rng.below(5) as i64, round2(0.5 + rng.unit() * 1.5)),
        5 => Shape::NameHas(format!("n{:04}", rng.below(u64::from(OFFERS) / 10))),
        _ => Shape::DiscountAbove(round2(40.0 + rng.unit() * 9.0)),
    };
    let pref = [
        Pref::First,
        Pref::Random,
        Pref::MinCost,
        Pref::MaxLoad,
        Pref::WithEu,
    ][rng.index(5)];
    QuerySpec {
        ty: rng.below(u64::from(TYPES)) as u8,
        shape,
        pref,
        card: [1, 5, 20, 100, 1000][rng.index(5)],
    }
}

struct Deployment {
    _orb: Orb,
    trader: Trader,
    handles: Vec<QueryHandle>,
    /// Offer id → creation index.
    ids: HashMap<OfferId, u32>,
    /// Creation index → offer id, for live offers.
    by_ix: HashMap<u32, OfferId>,
    live: Vec<u32>,
    /// Results of the handles' first refresh.
    first: Vec<Vec<u32>>,
}

fn build(inputs: &Inputs) -> Deployment {
    let orb = Orb::new("tc-trader");
    let trader = Trader::new(&orb);
    for ty in 0..=FIXED_TYPE {
        let def = [
            ("Cost", TypeCode::Double),
            ("Load", TypeCode::Double),
            ("Region", TypeCode::Str),
            ("Tier", TypeCode::Long),
            ("Name", TypeCode::Str),
            ("Discount", TypeCode::Double),
        ]
        .into_iter()
        .fold(ServiceTypeDef::new(type_name(ty)), |d, (n, t)| {
            d.with_property(PropDef::new(n, t, PropMode::Normal))
        });
        trader.add_type(def).expect("fresh trader accepts the type");
    }
    let mut d = Deployment {
        _orb: orb,
        trader: trader.clone(),
        handles: Vec::new(),
        ids: HashMap::new(),
        by_ix: HashMap::new(),
        live: Vec::new(),
        first: Vec::new(),
    };
    for (ix, (ty, p)) in inputs.population.iter().enumerate() {
        let id = trader
            .export(export_request(*ty, ix as u32, p))
            .expect("export of a declared offer");
        d.ids.insert(id.clone(), ix as u32);
        d.by_ix.insert(ix as u32, id);
        if *ty != FIXED_TYPE {
            d.live.push(ix as u32);
        }
    }
    let service: Arc<dyn TradingService> = Arc::new(trader);
    for q in handles() {
        let h = QueryHandle::new(service.clone(), query_of(&q));
        let delta = h.refresh().expect("standing query runs");
        d.first
            .push(delta.added.iter().map(|m| d.ids[&m.id]).collect());
        d.handles.push(h);
    }
    d
}

/// Per-layer sums of the traced run.
#[derive(Default)]
struct Shadow {
    mirror: Mirror,
    values: HashMap<u32, Vec<(String, Value)>>,
    queries: u64,
    query_ns: f64,
    parse_ns: f64,
    eval_ns: f64,
    evals: u64,
    order_ns: f64,
    considered: u64,
    allocs: u64,
}

impl Shadow {
    /// Times the parts of `q` that the benchmark can replay on its mirror.
    fn measure(&mut self, q: &QuerySpec) {
        let source = q.shape.constraint();
        let started = Instant::now();
        let constraint = Constraint::parse(&source).expect("workload constraints parse");
        self.parse_ns += started.elapsed().as_nanos() as f64;
        let candidates = self.mirror.candidates(q.ty);
        let props: Vec<&Vec<(String, Value)>> =
            candidates.iter().map(|ix| &self.values[ix]).collect();
        let started = Instant::now();
        let matched: Vec<usize> = (0..props.len())
            .filter(|&i| constraint.matches(props[i]))
            .collect();
        self.eval_ns += started.elapsed().as_nanos() as f64;
        self.evals += props.len() as u64;
        self.considered += props.len() as u64;
        let owned: Vec<Vec<(String, Value)>> = matched.iter().map(|&i| props[i].clone()).collect();
        let mut rng = Rng::new(0, 7);
        let started = Instant::now();
        let pref = Preference::parse(q.pref.source()).expect("workload preferences parse");
        let order = pref.order(&owned, &mut |v: &mut Vec<usize>| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.index(i + 1));
            }
        });
        self.order_ns += started.elapsed().as_nanos() as f64;
        std::hint::black_box(order);
    }

    fn export(&mut self, ix: u32, ty: u8, p: &Props) {
        self.values.insert(ix, p.to_values());
        self.mirror.export(ix, ty, p.clone());
    }
}

fn ixs(d: &Deployment, ms: &[OfferMatch], arena: &mut Vec<u32>) -> Range<usize> {
    let start = arena.len();
    arena.extend(
        ms.iter()
            .map(|m| d.ids.get(&m.id).copied().unwrap_or(u32::MAX)),
    );
    start..arena.len()
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let n = config.ops(RATE) / FIXED_EVERY * FIXED_EVERY;
    let warm = n / WARMUP_SHARE / FIXED_EVERY * FIXED_EVERY;
    let mut inputs = inputs(config.seed, warm + n);
    let (mut d, setups) = set_up(SETUPS, || build(&inputs), drop);
    let mut out = Outcome {
        setups,
        ..Outcome::default()
    };
    let mut shadow = config.traced.then(|| {
        let mut s = Shadow::default();
        for (ix, (ty, p)) in inputs.population.iter().enumerate() {
            s.export(ix as u32, *ty, p);
        }
        s
    });
    let mut tracer = Tracer::new();
    let mut recs: Vec<Rec> = Vec::with_capacity(inputs.plan.len());
    let mut arena: Vec<u32> = Vec::new();
    out.latencies_ns.reserve_exact(n);
    let mut mark = PhaseMark::now();
    for (i, op) in inputs.plan.iter_mut().enumerate() {
        if i == warm {
            mark = PhaseMark::now();
        }
        let op_start = Instant::now();
        let allocs_in = thread_allocs();
        let (started, rec, layer) = match op {
            Op::Query(_, query) | Op::Fixed(_, query) => {
                let started = Instant::now();
                let r = d.trader.query(query);
                let rec = match &r {
                    Ok(ms) => Rec::Ids(ixs(&d, ms, &mut arena)),
                    Err(_) => Rec::Failed,
                };
                (started, rec, "trading.query")
            }
            Op::Export(_, ix, _, req) => {
                let started = Instant::now();
                let r = d.trader.export(req.take().expect("each export runs once"));
                let rec = match r {
                    Ok(id) => {
                        d.ids.insert(id.clone(), *ix);
                        d.by_ix.insert(*ix, id);
                        d.live.push(*ix);
                        Rec::Done
                    }
                    Err(_) => Rec::Failed,
                };
                (started, rec, "trading.export")
            }
            Op::Withdraw(r) => {
                let k = (*r % d.live.len() as u64) as usize;
                let ix = d.live.swap_remove(k);
                let id = d.by_ix.remove(&ix).expect("live offers have ids");
                let started = Instant::now();
                let rec = match d.trader.withdraw(&id) {
                    Ok(()) => Rec::Chosen(ix),
                    Err(_) => Rec::Failed,
                };
                (started, rec, "trading.withdraw")
            }
            Op::Modify(r, cost, load) => {
                let ix = d.live[(*r % d.live.len() as u64) as usize];
                let props = vec![
                    ("Cost".to_owned(), PropValue::Static(Value::Double(*cost))),
                    ("Load".to_owned(), PropValue::Static(Value::Double(*load))),
                ];
                let started = Instant::now();
                let rec = match d.trader.modify(&d.by_ix[&ix], props) {
                    Ok(()) => Rec::Chosen(ix),
                    Err(_) => Rec::Failed,
                };
                (started, rec, "trading.modify")
            }
            Op::Refresh(h) => {
                let started = Instant::now();
                let rec = match d.handles[*h].refresh() {
                    Ok(delta) => Rec::Delta(
                        ixs(&d, &delta.added, &mut arena),
                        ixs(&d, &delta.kept, &mut arena),
                        ixs(&d, &delta.removed, &mut arena),
                    ),
                    Err(_) => Rec::Failed,
                };
                (started, rec, "trading.refresh")
            }
        };
        let ended = Instant::now();
        if i >= warm {
            out.latencies_ns.push(ns32(ended - started));
            crate::op_done();
        }
        if let Some(s) = shadow.as_mut() {
            let root = Span {
                name: "op",
                parent: None,
                start: op_start,
                end: ended,
            };
            let name = match op {
                Op::Query(q, _) if q.shape.broad() => "trading.query_broad",
                Op::Query(..) => "trading.query_selective",
                Op::Fixed(..) => "trading.query_fixed",
                _ => layer,
            };
            if i >= warm {
                tracer.record(&[root, Span::new(name, 0, started, ended)]);
            }
            match (&*op, &rec) {
                (Op::Query(q, _), _) if i >= warm => {
                    s.queries += 1;
                    s.query_ns += (ended - started).as_nanos() as f64;
                    s.allocs += thread_allocs() - allocs_in;
                    s.measure(q);
                }
                (Op::Export(ty, ix, p, _), Rec::Done) => s.export(*ix, *ty, p),
                (Op::Withdraw(_), Rec::Chosen(ix)) => {
                    s.mirror.withdraw(*ix);
                    s.values.remove(ix);
                }
                (Op::Modify(_, cost, load), Rec::Chosen(ix)) => {
                    s.mirror.modify(*ix, *cost, *load);
                    let v = s.values.get_mut(ix).expect("modified offers are live");
                    v[0].1 = Value::Double(*cost);
                    v[1].1 = Value::Double(*load);
                }
                _ => {}
            }
        }
        recs.push(rec);
    }
    out.phase = Phase::since(mark);
    out.attempted = n as u64;

    // Replay on a fresh mirror and check every answer.
    let mut mirror = Mirror::default();
    for (ix, (ty, p)) in inputs.population.iter().enumerate() {
        mirror.export(ix as u32, *ty, p.clone());
    }
    let specs = handles();
    let mut standing: Vec<BTreeSet<u32>> = specs
        .iter()
        .zip(&d.first)
        .map(|(q, first)| {
            mirror
                .check_refresh(q, &BTreeSet::new(), first, &[], &[])
                .unwrap_or_else(|e| {
                    out.violation(format!("set-up: {e}"));
                    first.iter().copied().collect()
                })
        })
        .collect();
    for (i, (op, rec)) in inputs.plan.iter().zip(&recs).enumerate() {
        let timed = i >= warm;
        let result = match (op, rec) {
            (_, Rec::Failed) => Err("the trader returned an error".to_owned()),
            (Op::Query(q, _), Rec::Ids(r)) => mirror.check_query(q, &arena[r.clone()]),
            (Op::Fixed(q, _), Rec::Ids(r)) => {
                // A known fault: `max` sorts offers that fail to score
                // first. Counted as a failed operation, not a wrong one.
                if mirror.check_query(q, &arena[r.clone()]).is_err() && timed {
                    out.failed += 1;
                }
                Ok(())
            }
            (Op::Export(ty, ix, p, _), Rec::Done) => {
                mirror.export(*ix, *ty, p.clone());
                Ok(())
            }
            (Op::Withdraw(_), Rec::Chosen(ix)) => {
                if mirror.withdraw(*ix) {
                    Ok(())
                } else {
                    Err(format!("withdrew offer {ix}, which was not live"))
                }
            }
            (Op::Modify(_, cost, load), Rec::Chosen(ix)) => {
                mirror.modify(*ix, *cost, *load);
                Ok(())
            }
            (Op::Refresh(h), Rec::Delta(a, k, r)) => mirror
                .check_refresh(
                    &specs[*h],
                    &standing[*h],
                    &arena[a.clone()],
                    &arena[k.clone()],
                    &arena[r.clone()],
                )
                .map(|set| standing[*h] = set),
            _ => Err("operation and record disagree".to_owned()),
        };
        if let Err(e) = result {
            if timed && matches!(rec, Rec::Failed) {
                out.failed += 1;
            }
            out.violation(format!("op {i}: {e}"));
        }
    }

    if let Some(s) = shadow {
        layers(&mut out, &tracer, &s);
        out.tracer = Some(tracer);
    }
    out
}

fn layers(out: &mut Outcome, tracer: &Tracer, s: &Shadow) {
    telemetry_layers(out);
    let us = |name: &str| tracer.get(name).mean_ns() / 1e3;
    let (b, sel) = (
        tracer.get("trading.query_broad"),
        tracer.get("trading.query_selective"),
    );
    let q = s.queries.max(1) as f64;
    out.layer(
        "trading.query_us",
        (b.dur_ns + sel.dur_ns) / (b.count + sel.count).max(1) as f64 / 1e3,
        "us",
    );
    out.layer("trading.query_broad_us", b.mean_ns() / 1e3, "us");
    out.layer("trading.query_selective_us", sel.mean_ns() / 1e3, "us");
    out.layer("trading.export_us", us("trading.export"), "us");
    out.layer("trading.withdraw_us", us("trading.withdraw"), "us");
    out.layer("trading.modify_us", us("trading.modify"), "us");
    out.layer("trading.refresh_us", us("trading.refresh"), "us");
    out.layer("trading.constraint_parse_us", s.parse_ns / q / 1e3, "us");
    out.layer(
        "trading.constraint_eval_ns",
        s.eval_ns / s.evals.max(1) as f64,
        "ns",
    );
    out.layer("trading.preference_order_us", s.order_ns / q / 1e3, "us");
    out.layer(
        "trading.scan_ns_per_offer",
        (s.query_ns - s.parse_ns - s.eval_ns - s.order_ns) / s.considered.max(1) as f64,
        "ns",
    );
    out.layer("trading.allocs_per_query", s.allocs as f64 / q, "count");
    out.notes.push(format!(
        "trace: {} queries over {:.0} offers each on average; layer spans cover {:.1}% of operation time",
        s.queries,
        s.considered as f64 / q,
        tracer.coverage() * 100.0
    ));
}
