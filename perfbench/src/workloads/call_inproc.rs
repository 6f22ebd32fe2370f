//! `call_inproc`: one caller thread makes smallest-argument calls over
//! the in-process transport (full marshalling), alternating a bound
//! smart proxy and a balanced (`p2c_ewma`) smart proxy over native echo
//! replicas exported to a trader, with a share of oneways.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_core::SmartProxy;
use adapta_idl::{InterfaceRepository, TypeCode, Value};
use adapta_orb::{decode_value, encode_value, ObjRef, Orb};
use adapta_trading::{ExportRequest, PropDef, PropMode, ServiceTypeDef, Trader, TradingService};

use super::servant::{
    self, ClientStamps, Counts, ServerStamps, Slots, OP_BALANCED, OP_BOUND, OP_NOTE,
};
use super::{probe_ns, set_up, telemetry_layers, WARMUP_SHARE};
use crate::alloc::thread_allocs;
use crate::check::{self, ServantCounts};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::{ns32, Config, Outcome, Phase, PhaseMark};

/// Operations per second of `--seconds`.
const RATE: u64 = 100_000;
/// Deployments built per run (one takes about 0.07 ms).
const SETUPS: usize = 1001;
/// Echo replicas behind the proxies.
const REPLICAS: usize = 4;
/// Seeded operations generated before timing and cycled.
const BLOCK: usize = 1 << 16;
const TYPE: &str = "BenchEcho";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bound,
    Balanced,
    BoundNote,
    BalancedNote,
}

/// 40% bound two-way, 40% balanced two-way, 10% oneway through each.
fn plan(seed: u64) -> Vec<(Kind, i64)> {
    let mut rng = Rng::new(seed, 1);
    (0..BLOCK)
        .map(|_| {
            let kind = match rng.below(10) {
                0..=3 => Kind::Bound,
                4..=7 => Kind::Balanced,
                8 => Kind::BoundNote,
                _ => Kind::BalancedNote,
            };
            (kind, rng.next_u64() as i64)
        })
        .collect()
}

struct Deployment {
    client: Orb,
    replicas: Vec<(Orb, ObjRef, Arc<Counts>)>,
    bound: SmartProxy,
    balanced: SmartProxy,
    sent: ServantCounts,
}

fn build(slots: Option<&Arc<Slots>>) -> Deployment {
    let client = Orb::new("ci-client");
    if let Some(s) = slots {
        client.add_client_interceptor(ClientStamps(s.clone()));
    }
    let trader = Trader::new(&client);
    trader
        .add_type(
            ServiceTypeDef::new(TYPE)
                .with_property(PropDef::new("Replica", TypeCode::Long, PropMode::Normal))
                .with_property(PropDef::new("Zone", TypeCode::Str, PropMode::Normal)),
        )
        .expect("fresh trader accepts the type");
    let replicas: Vec<_> = (0..REPLICAS)
        .map(|i| {
            let orb = Orb::new(&format!("ci-replica{i}"));
            if let Some(s) = slots {
                orb.add_server_interceptor(ServerStamps(s.clone()));
            }
            let counts = Arc::new(Counts::default());
            let target = orb
                .activate("echo", servant::echo(TYPE, counts.clone(), slots.cloned()))
                .expect("fresh orb accepts the servant");
            trader
                .export(
                    ExportRequest::new(TYPE, target.clone())
                        .with_property("Replica", Value::Long(i as i64))
                        .with_property("Zone", Value::from(if i == 0 { "a" } else { "b" })),
                )
                .expect("export of a declared offer");
            (orb, target, counts)
        })
        .collect();
    let repo = InterfaceRepository::new();
    let service: Arc<dyn TradingService> = Arc::new(trader);
    let bound = SmartProxy::builder(&client, &repo, service.clone(), TYPE)
        .constraint("Zone == 'a'")
        .build()
        .expect("bound proxy selects replica 0");
    let balanced = SmartProxy::builder(&client, &repo, service, TYPE)
        .balanced("p2c_ewma")
        .build()
        .expect("balanced proxy finds the replicas");
    let first = vec![Value::Long(0), Value::Long(0)];
    bound
        .invoke(OP_BOUND, first.clone())
        .expect("first bound call");
    balanced
        .invoke(OP_BALANCED, first)
        .expect("first balanced call");
    Deployment {
        client,
        replicas,
        bound,
        balanced,
        sent: ServantCounts {
            bound: 1,
            balanced: 1,
            oneway: 0,
        },
    }
}

/// Per-call totals of the traced run.
#[derive(Default)]
struct CallAllocs {
    calls: u64,
    orb: u64,
    proxy: u64,
}

/// Runs one operation; returns an error message on a failed call or a
/// wrong reply.
fn call(d: &mut Deployment, kind: Kind, payload: i64) -> Result<(), String> {
    let args = vec![Value::Long(0), Value::Long(payload)];
    match kind {
        Kind::Bound | Kind::Balanced => {
            let (proxy, op) = if kind == Kind::Bound {
                d.sent.bound += 1;
                (&d.bound, OP_BOUND)
            } else {
                d.sent.balanced += 1;
                (&d.balanced, OP_BALANCED)
            };
            let reply = proxy.invoke(op, args).map_err(|e| e.to_string())?;
            check::echo(&Value::Long(payload), &reply)
        }
        Kind::BoundNote | Kind::BalancedNote => {
            d.sent.oneway += 1;
            let proxy = if kind == Kind::BoundNote {
                &d.bound
            } else {
                &d.balanced
            };
            proxy
                .invoke_oneway(OP_NOTE, args)
                .map_err(|e| e.to_string())
        }
    }
}

/// Records the spans of the operation just made.
fn spans(
    tracer: &mut Tracer,
    slots: &Slots,
    kind: Kind,
    op: (Instant, Instant),
    proxy: (Instant, Instant),
) {
    let s = slots.slot(0);
    let get =
        |a: &std::sync::atomic::AtomicU64| slots.at(a.load(std::sync::atomic::Ordering::Relaxed));
    let root = Span {
        name: "op",
        parent: None,
        start: op.0,
        end: op.1,
    };
    match kind {
        Kind::Bound | Kind::Balanced => {
            let name = if kind == Kind::Bound {
                "core.proxy_bound"
            } else {
                "core.proxy_balanced"
            };
            let (send, recv, s_in, s_out, reply) = (
                get(&s.send),
                get(&s.recv),
                get(&s.servant_in),
                get(&s.servant_out),
                get(&s.reply),
            );
            tracer.record(&[
                root,
                Span::new(name, 0, proxy.0, proxy.1),
                Span::new("orb.request_path", 1, send, recv),
                Span::new("orb.dispatch", 1, recv, s_in),
                Span::new("orb.servant", 1, s_in, s_out),
                Span::new("orb.reply_path", 1, s_out, reply),
            ]);
        }
        Kind::BoundNote | Kind::BalancedNote => {
            tracer.record(&[
                root,
                Span::new("core.proxy_oneway", 0, proxy.0, proxy.1),
                Span::new("orb.oneway_send", 1, get(&s.send), proxy.1),
            ]);
        }
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let plan = plan(config.seed);
    let slots = config.traced.then(|| Slots::new(1));
    let (mut d, setups) = set_up(SETUPS, || build(slots.as_ref()), drop);
    let mut out = Outcome {
        setups,
        ..Outcome::default()
    };
    let n = config.ops(RATE);
    let warm = n / WARMUP_SHARE;
    for &(kind, payload) in plan.iter().cycle().take(warm) {
        if let Err(e) = call(&mut d, kind, payload) {
            out.violation(format!("warm-up: {e}"));
        }
    }

    let mut tracer = Tracer::new();
    let mut allocs = CallAllocs::default();
    out.latencies_ns.reserve_exact(n);
    let wire_before = d.client.stats();
    let mark = PhaseMark::now();
    for &(kind, payload) in plan.iter().cycle().skip(warm).take(n) {
        let op_start = Instant::now();
        let allocs_in = if slots.is_some() { thread_allocs() } else { 0 };
        let started = Instant::now();
        let result = call(&mut d, kind, payload);
        let ended = Instant::now();
        out.latencies_ns.push(ns32(ended - started));
        crate::op_done();
        out.attempted += 1;
        if let Err(e) = result {
            out.failed += 1;
            out.violation(e);
        }
        if let Some(s) = &slots {
            let total = thread_allocs() - allocs_in;
            if matches!(kind, Kind::Bound | Kind::Balanced) {
                let slot = s.slot(0);
                let ld =
                    |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
                let orb = ld(&slot.reply_allocs) - ld(&slot.send_allocs);
                allocs.calls += 1;
                allocs.orb += orb - ld(&slot.servant_allocs);
                allocs.proxy += total - orb;
            }
            spans(
                &mut tracer,
                s,
                kind,
                (op_start, Instant::now()),
                (started, ended),
            );
        }
    }
    out.phase = Phase::since(mark);
    let wire_after = d.client.stats();

    // Oneways are served on the replicas' oneway threads: wait for them
    // before comparing the servants' counts with the calls made.
    let deadline = Instant::now() + Duration::from_secs(10);
    let served_oneways = |d: &Deployment| d.replicas.iter().map(|r| r.2.get().oneway).sum::<u64>();
    while served_oneways(&d) < d.sent.oneway && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let counts: Vec<ServantCounts> = d.replicas.iter().map(|r| r.2.get()).collect();
    let bound_target = d.bound.current_target();
    let bound_ix = d
        .replicas
        .iter()
        .position(|r| Some(&r.1) == bound_target.as_ref())
        .unwrap_or(usize::MAX);
    for v in check::servant_counts(&counts, bound_ix, d.sent) {
        out.violation(v);
    }

    if config.traced {
        let wire = wire_after.bytes_sent + wire_after.bytes_received
            - wire_before.bytes_sent
            - wire_before.bytes_received;
        layers(&mut out, &mut d, &plan, &tracer, &allocs, wire);
        out.tracer = Some(tracer);
    }
    out
}

fn layers(
    out: &mut Outcome,
    d: &mut Deployment,
    plan: &[(Kind, i64)],
    tracer: &Tracer,
    allocs: &CallAllocs,
    wire_bytes: u64,
) {
    let ops = out.attempted.max(1) as f64;
    let us = |name: &str| tracer.get(name).mean_ns() / 1e3;
    telemetry_layers(out);
    out.layer("orb.request_path_us", us("orb.request_path"), "us");
    out.layer("orb.dispatch_us", us("orb.dispatch"), "us");
    out.layer("orb.servant_us", us("orb.servant"), "us");
    out.layer("orb.reply_path_us", us("orb.reply_path"), "us");
    out.layer("orb.wire_bytes_per_op", wire_bytes as f64 / ops, "B");
    out.layer(
        "orb.ctx_switches_per_op",
        out.phase.ctx_switches as f64 / ops,
        "count",
    );
    let calls = allocs.calls.max(1) as f64;
    out.layer("orb.allocs_per_call", allocs.orb as f64 / calls, "count");
    out.layer(
        "core.allocs_per_invoke",
        allocs.proxy as f64 / calls,
        "count",
    );
    out.layer("core.proxy_bound_us", us("core.proxy_bound"), "us");
    out.layer("core.proxy_balanced_us", us("core.proxy_balanced"), "us");
    let (b, p) = (
        tracer.get("core.proxy_bound"),
        tracer.get("core.proxy_balanced"),
    );
    out.layer(
        "core.proxy_self_us",
        (b.self_ns + p.self_ns) / (b.count + p.count).max(1) as f64 / 1e3,
        "us",
    );

    // Probes after the timed phase, on the workload's own inputs.
    let payloads: Vec<Value> = plan
        .iter()
        .take(4096)
        .map(|&(_, p)| Value::Seq(vec![Value::Long(0), Value::Long(p)]))
        .collect();
    let marshal = probe_ns(payloads.len() * 8, |i| {
        let bytes = encode_value(&payloads[i % payloads.len()]);
        std::hint::black_box(decode_value(&bytes).expect("own encoding decodes"));
    });
    out.layer("orb.marshal_small_ns", marshal, "ns");
    let set = d
        .balanced
        .balancer()
        .expect("balanced proxy has a replica set");
    let pick = probe_ns(50_000, |_| {
        std::hint::black_box(set.pick(None));
    });
    out.layer("balancer.pick_ns", pick, "ns");
    let refresh = probe_ns(500, |_| {
        std::hint::black_box(set.refresh().expect("refresh of a live set"));
    });
    out.layer("balancer.refresh_us", refresh / 1e3, "us");
    out.notes.push(format!(
        "trace: {} two-way calls, layer spans cover {:.1}% of operation time",
        allocs.calls,
        tracer.coverage() * 100.0
    ));
}
