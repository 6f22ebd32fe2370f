//! `adapt_loop`: the paper's Section V load-sharing program in virtual
//! time. Each host runs the Figure-3 LoadAverage monitor in Rua;
//! auto-adaptive clients subscribe with the Figure-4 predicate and run
//! the Figure-7 strategy installed as Rua source; background load moves
//! between hosts on a seeded schedule. One operation is one monitoring
//! cycle: advance the clock, tick every host's monitors (events are
//! delivered during the tick), then let each client make its call,
//! which handles postponed events first.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adapta_bridge::ScriptActor;
use adapta_core::policies::LoadSharingConfig;
use adapta_core::{Infrastructure, ServerHandle, ServerSpec, SmartProxy, Subscription};
use adapta_script::Value as Script;
use adapta_trading::{
    ExportRequest, OfferId, OfferMatch, PropValue, Query, ServiceTypeDef, Trader, TradingService,
};

use super::{probe_ns, set_up, telemetry_layers, WARMUP_SHARE};
use crate::check::{self, Move};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::{ns32, Config, Outcome, Phase, PhaseMark};

/// Cycles per second of `--seconds`.
const RATE: u64 = 2_400;
/// Deployments built per run (one takes about 4 ms). Each dropped
/// deployment leaves its script-actor threads running (known fault 6),
/// so the count is kept modest.
const SETUPS: usize = 21;
const HOSTS: usize = 4;
const CLIENTS: usize = 8;
/// Virtual time per monitoring cycle.
const CYCLE: Duration = Duration::from_secs(30);
/// Cycles between load moves.
const PHASE_CYCLES: usize = 16;
/// Cycles a client may stay on a newly loaded host.
const GRACE: usize = 8;
/// Selection and notification threshold (load average).
const THRESHOLD: f64 = 3.0;
/// Background jobs on the loaded host.
const LOAD_JOBS: f64 = 6.0;
const TYPE: &str = "LoadShared";

/// The Figure-7 strategy, as Rua source, with the simulated thresholds.
fn figure7(cfg: &LoadSharingConfig) -> String {
    format!(
        r#"
smartproxy._strategies = {{
    LoadIncrease = function(self)
        self._loadavg = self._loadavgmon:getvalue()
        local query
        query = "{constraint}"
        if not self:_select(query) then
            self._loadavgmon:attachEventObserver(
                self._observer,
                "LoadIncrease",
                [[{relaxed}]])
        end
    end
}}
"#,
        constraint = cfg.constraint(),
        relaxed = cfg.predicate(cfg.relaxed_threshold),
    )
}

/// The seeded load schedule: every [`PHASE_CYCLES`] cycles the load
/// moves to another host.
fn schedule(seed: u64, cycles: usize) -> Vec<Move> {
    let mut rng = Rng::new(seed, 4);
    let mut host = rng.below(HOSTS as u64) as u8;
    (PHASE_CYCLES / 2..cycles)
        .step_by(PHASE_CYCLES)
        .map(|cycle| {
            host = ((u64::from(host) + 1 + rng.below(HOSTS as u64 - 1)) % HOSTS as u64) as u8;
            Move { cycle, host }
        })
        .collect()
}

/// A trader front that times every query (the traced run's view of the
/// reselection queries, which evaluate dynamic properties through
/// `evalDP` round trips to the monitors).
struct TimedTrader {
    inner: Trader,
    spans: QuerySpans,
}

/// The `(start, end)` of each query, drained after every invoke.
type QuerySpans = Arc<Mutex<Vec<(Instant, Instant)>>>;

impl TradingService for TimedTrader {
    fn add_type(&self, def: ServiceTypeDef) -> adapta_trading::Result<()> {
        self.inner.add_type(def)
    }
    fn export(&self, request: ExportRequest) -> adapta_trading::Result<OfferId> {
        self.inner.export(request)
    }
    fn withdraw(&self, id: &OfferId) -> adapta_trading::Result<()> {
        self.inner.withdraw(id)
    }
    fn renew(&self, id: &OfferId, ttl: Option<Duration>) -> adapta_trading::Result<()> {
        self.inner.renew(id, ttl)
    }
    fn modify(&self, id: &OfferId, props: Vec<(String, PropValue)>) -> adapta_trading::Result<()> {
        self.inner.modify(id, props)
    }
    fn query(&self, q: &Query) -> adapta_trading::Result<Vec<OfferMatch>> {
        let started = Instant::now();
        let r = self.inner.query(q);
        self.spans
            .lock()
            .expect("span list lock is never poisoned")
            .push((started, Instant::now()));
        r
    }
}

struct Deployment {
    infra: Infrastructure,
    servers: Vec<ServerHandle>,
    proxies: Vec<SmartProxy>,
}

fn build(spans: Option<&QuerySpans>) -> Deployment {
    let infra = Infrastructure::in_process().expect("in-process infrastructure");
    let servers: Vec<ServerHandle> = (0..HOSTS)
        .map(|i| {
            infra
                .spawn_server(ServerSpec::echo(TYPE, format!("h{i}")))
                .expect("server with its monitor")
        })
        .collect();
    let cfg = LoadSharingConfig::with_threshold(THRESHOLD);
    let trader: Arc<dyn TradingService> = match spans {
        Some(s) => Arc::new(TimedTrader {
            inner: infra.trader().clone(),
            spans: s.clone(),
        }),
        None => Arc::new(infra.trader().clone()),
    };
    let strategy = figure7(&cfg);
    let proxies = (0..CLIENTS)
        .map(|_| {
            let proxy = SmartProxy::builder(infra.orb(), infra.repository(), trader.clone(), TYPE)
                .constraint(cfg.constraint())
                .preference("min LoadAvg")
                .subscribe(Subscription::new(
                    "LoadAvg",
                    "LoadIncrease",
                    cfg.predicate(cfg.threshold),
                ))
                .build()
                .expect("client binds a server");
            proxy
                .install_strategies_script(&strategy)
                .expect("figure 7 strategy installs");
            proxy.invoke("whoami", vec![]).expect("first call");
            proxy
        })
        .collect();
    Deployment {
        infra,
        servers,
        proxies,
    }
}

fn host_index(v: &adapta_idl::Value) -> Option<u8> {
    v.as_str()?.strip_prefix('h')?.parse().ok()
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let n = config.ops(RATE);
    let warm = n / WARMUP_SHARE;
    let moves = schedule(config.seed, warm + n);
    let spans = config.traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let (d, setups) = set_up(SETUPS, || build(spans.as_ref()), drop);
    let mut out = Outcome {
        setups,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new();
    let mut bound: Vec<Vec<u8>> = Vec::with_capacity(warm + n);
    let mut rebinds: Vec<u64> = Vec::with_capacity(warm + n);
    let mut next_move = moves.iter().peekable();
    let mut loaded: Option<u8> = None;
    let totals = |d: &Deployment| {
        d.proxies.iter().fold((0, 0, 0), |(r, e, h), p| {
            (
                r + p.rebinds(),
                e + p.events_received(),
                h + p.events_handled(),
            )
        })
    };
    let mut at_start = totals(&d);
    let mut mark = PhaseMark::now();
    out.latencies_ns.reserve_exact(n);
    for cycle in 0..warm + n {
        if cycle == warm {
            at_start = totals(&d);
            mark = PhaseMark::now();
        }
        if let Some(mv) = next_move.next_if(|m| m.cycle == cycle) {
            if let Some(old) = loaded {
                d.infra.set_background(&format!("h{old}"), 0.0);
            }
            d.infra.set_background(&format!("h{}", mv.host), LOAD_JOBS);
            loaded = Some(mv.host);
        }
        let rebinds_before: u64 = d.proxies.iter().map(SmartProxy::rebinds).sum();
        let op_start = Instant::now();
        let mut cycle_spans = vec![Span {
            name: "op",
            parent: None,
            start: op_start,
            end: op_start,
        }];
        // One monitoring cycle: what `Infrastructure::advance` does,
        // with each host's tick timed on its own.
        let advance_start = Instant::now();
        d.infra.clock().advance(CYCLE);
        let now = d.infra.now();
        let mut ticks = Vec::with_capacity(HOSTS);
        for server in &d.servers {
            let started = Instant::now();
            server.monitor_host().tick_all(now);
            ticks.push((started, Instant::now()));
        }
        let advance_end = Instant::now();
        let mut hosts = Vec::with_capacity(CLIENTS);
        let mut invokes = Vec::with_capacity(CLIENTS);
        for proxy in &d.proxies {
            let handled = proxy.events_handled();
            let started = Instant::now();
            let r = proxy.invoke("whoami", vec![]);
            invokes.push((started, Instant::now(), proxy.events_handled() > handled));
            match r.as_ref().ok().and_then(host_index) {
                Some(h) => hosts.push(h),
                None => {
                    hosts.push(u8::MAX);
                    if cycle >= warm {
                        out.failed += 1;
                    }
                    out.violation(format!("cycle {cycle}: whoami failed: {r:?}"));
                }
            }
        }
        let op_end = Instant::now();
        bound.push(hosts);
        rebinds.push(d.proxies.iter().map(SmartProxy::rebinds).sum::<u64>() - rebinds_before);
        if cycle < warm {
            continue;
        }
        out.latencies_ns.push(ns32(op_end - op_start));
        crate::op_done();
        if let Some(s) = &spans {
            cycle_spans[0].end = op_end;
            cycle_spans.push(Span::new("sim.advance", 0, advance_start, advance_end));
            for (a, b) in ticks {
                cycle_spans.push(Span::new("monitor.tick", 1, a, b));
            }
            let queries: Vec<(Instant, Instant)> =
                std::mem::take(&mut *s.lock().expect("span list lock is never poisoned"));
            for (a, b, handled) in invokes {
                let name = if handled {
                    "core.event_handling"
                } else {
                    "core.invoke"
                };
                let parent = cycle_spans.len();
                cycle_spans.push(Span::new(name, 0, a, b));
                for &(qa, qb) in queries.iter().filter(|(qa, qb)| *qa >= a && *qb <= b) {
                    cycle_spans.push(Span::new("trading.dynamic_query", parent, qa, qb));
                }
            }
            tracer.record(&cycle_spans);
        }
    }
    out.phase = Phase::since(mark);
    out.attempted = n as u64;
    for v in check::adaptation(&bound, &rebinds, &moves, GRACE) {
        out.violation(v);
    }
    let at_end = totals(&d);
    let per_k = |a: u64, b: u64| (b - a) as f64 * 1000.0 / n.max(1) as f64;
    out.notes.push(format!(
        "per 1000 cycles: {:.1} rebinds, {:.1} events received, {:.1} events handled ({} load moves, {} clients)",
        per_k(at_start.0, at_end.0),
        per_k(at_start.1, at_end.1),
        per_k(at_start.2, at_end.2),
        moves.len(),
        CLIENTS
    ));
    if config.traced {
        layers(&mut out, &tracer);
        out.tracer = Some(tracer);
    }
    out
}

fn layers(out: &mut Outcome, tracer: &Tracer) {
    telemetry_layers(out);
    let us = |name: &str| tracer.get(name).mean_ns() / 1e3;
    out.layer("core.event_handling_us", us("core.event_handling"), "us");
    out.layer(
        "trading.dynamic_query_us",
        us("trading.dynamic_query"),
        "us",
    );
    out.layer("monitor.tick_us", us("monitor.tick"), "us");
    out.layer("sim.advance_us", us("sim.advance"), "us");
    let cfg = LoadSharingConfig::with_threshold(THRESHOLD);
    let actor = ScriptActor::spawn("predicate-probe", |interp| {
        interp
            .eval(
                "mon = { getAspectValue = function(self, name) return 'yes' end }\n\
                 val = { 3.5, 2.0, 1.0 }",
            )
            .expect("probe globals");
    });
    let predicate = actor
        .store_function(&cfg.predicate(cfg.threshold))
        .expect("figure 4 predicate compiles");
    let call = |_| {
        let r = actor
            .call_with(predicate, |interp| {
                vec![Script::Nil, interp.global("val"), interp.global("mon")]
            })
            .expect("predicate runs");
        std::hint::black_box(r);
    };
    out.layer("script.predicate_us", probe_ns(2000, call) / 1e3, "us");
    out.notes.push(format!(
        "trace: {} invokes handled events, {} reselection queries; layer spans cover {:.1}% of cycle time",
        tracer.get("core.event_handling").count,
        tracer.get("trading.dynamic_query").count,
        tracer.coverage() * 100.0
    ));
}
