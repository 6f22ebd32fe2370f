//! `tcp_mux`: two caller threads share one multiplexed loopback
//! connection to one server orb through plain orb proxies (no smart
//! proxy), with payloads from empty to 32 KiB and a share of oneways.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapta_idl::Value;
use adapta_orb::{decode_value, encode_value, ObjRef, Orb, Proxy};

use super::servant::{self, ClientStamps, Counts, ServerStamps, Slots, OP_BOUND, OP_NOTE};
use super::{probe_ns, set_up, telemetry_layers, WARMUP_SHARE};
use crate::check::{self, ServantCounts};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{ns32, Config, Outcome, Phase, PhaseMark};

/// Operations per second of `--seconds` (both callers together).
const RATE: u64 = 20_000;
/// Deployments built per run. The first call on a fresh connection
/// waits 0.4 or about 10.8 ms, so many set-ups are averaged.
const SETUPS: usize = 401;
/// Caller threads, sharing one connection.
const CALLERS: usize = 2;
/// Payload sizes in bytes with their share of operations, in percent.
const SIZES: [(usize, u64); 5] = [(0, 30), (16, 30), (256, 20), (4096, 15), (32768, 5)];
/// Distinct seeded payloads per size.
const POOL: usize = 32;
/// Seeded operations per caller, generated before timing and cycled.
const BLOCK: usize = 1 << 14;
/// Share of oneways, in percent.
const ONEWAY_PCT: u64 = 10;
const TYPE: &str = "BenchEcho";

/// One caller's operation: payload (size class, index) and oneway flag.
type Op = (u8, u8, bool);

struct Inputs {
    payloads: Vec<Vec<Value>>,
    plans: Vec<Vec<Op>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let payloads = SIZES
        .iter()
        .map(|&(size, _)| {
            (0..POOL)
                .map(|_| {
                    let bytes: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
                    Value::Bytes(bytes.into())
                })
                .collect()
        })
        .collect();
    let plans = (0..CALLERS)
        .map(|c| {
            let mut rng = Rng::new(seed, 10 + c as u64);
            (0..BLOCK)
                .map(|_| {
                    let mut roll = rng.below(100);
                    let class = SIZES
                        .iter()
                        .position(|&(_, share)| {
                            let hit = roll < share;
                            roll = roll.saturating_sub(share);
                            hit
                        })
                        .unwrap_or(0);
                    (
                        class as u8,
                        rng.below(POOL as u64) as u8,
                        rng.below(100) < ONEWAY_PCT,
                    )
                })
                .collect()
        })
        .collect();
    Inputs { payloads, plans }
}

struct Deployment {
    server: Orb,
    client: Orb,
    proxies: Vec<Proxy>,
    counts: Arc<Counts>,
    first_call: Duration,
}

fn build(slots: Option<&Arc<Slots>>) -> Deployment {
    // Server side first, as a node comes up: broker, listener, servant.
    let server = Orb::new("tm-server");
    if let Some(s) = slots {
        server.add_server_interceptor(ServerStamps(s.clone()));
    }
    let counts = Arc::new(Counts::default());
    let started = Instant::now();
    server.listen_tcp("127.0.0.1:0").expect("loopback listener");
    let target: ObjRef = server
        .activate("echo", servant::echo(TYPE, counts.clone(), slots.cloned()))
        .expect("fresh orb accepts the servant");
    // Then the client: broker, proxies, first call.
    let client = Orb::new("tm-client");
    if let Some(s) = slots {
        client.add_client_interceptor(ClientStamps(s.clone()));
    }
    let proxies: Vec<Proxy> = (0..CALLERS).map(|_| client.proxy(&target)).collect();
    proxies[0]
        .invoke(
            OP_BOUND,
            vec![Value::Long(0), Value::Bytes(Vec::new().into())],
        )
        .expect("first call over a fresh connection");
    let first_call = started.elapsed();
    Deployment {
        server,
        client,
        proxies,
        counts,
        first_call,
    }
}

fn teardown(d: Deployment) {
    d.client.shutdown(Duration::from_secs(1));
    d.server.shutdown(Duration::from_secs(1));
}

/// What one caller thread did.
#[derive(Default)]
struct CallerOut {
    latencies: Vec<u32>,
    sent: ServantCounts,
    failed: u64,
    violations: Vec<String>,
    tracer: Tracer,
    servant_allocs: u64,
}

/// Runs `n` operations of caller `c` starting at plan position `skip`.
fn caller(
    c: usize,
    proxy: &Proxy,
    inputs: &Inputs,
    skip: usize,
    n: usize,
    slots: Option<&Slots>,
) -> CallerOut {
    let mut out = CallerOut::default();
    out.latencies.reserve_exact(n);
    for &(class, ix, oneway) in inputs.plans[c].iter().cycle().skip(skip).take(n) {
        let payload = &inputs.payloads[class as usize][ix as usize];
        let args = vec![Value::Long(c as i64), payload.clone()];
        let op_start = Instant::now();
        let started = Instant::now();
        let result = if oneway {
            out.sent.oneway += 1;
            proxy.invoke_oneway(OP_NOTE, args).map(|()| None)
        } else {
            out.sent.bound += 1;
            proxy.invoke(OP_BOUND, args).map(Some)
        };
        let ended = Instant::now();
        out.latencies.push(ns32(ended - started));
        crate::op_done();
        match result {
            Ok(Some(reply)) => {
                if let Err(e) = check::echo(payload, &reply) {
                    out.violations.push(e);
                }
            }
            Ok(None) => {}
            Err(e) => {
                out.failed += 1;
                out.violations.push(e.to_string());
            }
        }
        if let Some(s) = slots {
            let slot = s.slot(c);
            let get = |a: &AtomicU64| s.at(a.load(Ordering::Relaxed));
            let root = Span {
                name: "op",
                parent: None,
                start: op_start,
                end: Instant::now(),
            };
            if oneway {
                out.tracer
                    .record(&[root, Span::new("orb.proxy_oneway", 0, started, ended)]);
            } else {
                out.servant_allocs += slot.servant_allocs.load(Ordering::Relaxed);
                let (send, recv, s_in, s_out, reply) = (
                    get(&slot.send),
                    get(&slot.recv),
                    get(&slot.servant_in),
                    get(&slot.servant_out),
                    get(&slot.reply),
                );
                out.tracer.record(&[
                    root,
                    Span::new("orb.proxy", 0, started, ended),
                    Span::new("orb.request_path", 1, send, recv),
                    Span::new("orb.dispatch", 1, recv, s_in),
                    Span::new("orb.servant", 1, s_in, s_out),
                    Span::new("orb.reply_path", 1, s_out, reply),
                ]);
            }
        }
    }
    out
}

/// Runs `n` operations split over the callers, concurrently.
fn phase(
    d: &Deployment,
    inputs: &Inputs,
    skip: usize,
    n: usize,
    slots: Option<&Slots>,
) -> Vec<CallerOut> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let proxy = &d.proxies[c];
                let share = n / CALLERS + usize::from(c < n % CALLERS);
                scope.spawn(move || caller(c, proxy, inputs, skip, share, slots))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let inputs = inputs(config.seed);
    let slots = config.traced.then(|| Slots::new(CALLERS));
    let mut first_calls = Vec::new();
    let (d, setups) = set_up(
        SETUPS,
        || {
            let d = build(slots.as_ref());
            first_calls.push(d.first_call.as_secs_f64());
            d
        },
        teardown,
    );
    let mut out = Outcome {
        setups,
        ..Outcome::default()
    };
    let n = config.ops(RATE);
    let warm = n / WARMUP_SHARE;
    let mut sent = ServantCounts {
        bound: 1,
        ..ServantCounts::default()
    };
    let mut absorb = |out: &mut Outcome, callers: Vec<CallerOut>, timed: bool| {
        let mut tracer = Tracer::new();
        let mut servant_allocs = 0;
        for c in callers {
            sent.bound += c.sent.bound;
            sent.oneway += c.sent.oneway;
            for v in c.violations {
                out.violation(v);
            }
            if timed {
                out.attempted += c.latencies.len() as u64;
                out.failed += c.failed;
                out.latencies_ns.extend(c.latencies);
                servant_allocs += c.servant_allocs;
                tracer.merge(c.tracer);
            }
        }
        (tracer, servant_allocs)
    };
    let warm_out = phase(&d, &inputs, 0, warm, slots.as_deref());
    absorb(&mut out, warm_out, false);
    let wire_before = d.client.stats();
    let mark = PhaseMark::now();
    let timed = phase(&d, &inputs, warm / CALLERS, n, slots.as_deref());
    out.phase = Phase::since(mark);
    let wire_after = d.client.stats();
    let (tracer, servant_allocs) = absorb(&mut out, timed, true);

    let deadline = Instant::now() + Duration::from_secs(10);
    while d.counts.get().oneway < sent.oneway && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    for v in check::servant_counts(&[d.counts.get()], 0, sent) {
        out.violation(v);
    }

    if config.traced {
        let ops = out.attempted.max(1) as f64;
        let us = |name: &str| tracer.get(name).mean_ns() / 1e3;
        telemetry_layers(&mut out);
        out.layer("orb.request_path_us", us("orb.request_path"), "us");
        out.layer("orb.dispatch_us", us("orb.dispatch"), "us");
        out.layer("orb.servant_us", us("orb.servant"), "us");
        out.layer("orb.reply_path_us", us("orb.reply_path"), "us");
        let wire = wire_after.bytes_sent + wire_after.bytes_received
            - wire_before.bytes_sent
            - wire_before.bytes_received;
        out.layer("orb.wire_bytes_per_op", wire as f64 / ops, "B");
        out.layer(
            "orb.ctx_switches_per_op",
            out.phase.ctx_switches as f64 / ops,
            "count",
        );
        out.layer("orb.first_call_ms", median(&first_calls) * 1e3, "ms");
        out.layer(
            "orb.allocs_per_call",
            out.phase.allocs.saturating_sub(servant_allocs) as f64 / ops,
            "count",
        );
        let large: Vec<Value> = inputs
            .payloads
            .iter()
            .zip(SIZES)
            .filter(|(_, (size, _))| *size >= 4096)
            .flat_map(|(pool, _)| {
                pool.iter()
                    .map(|p| Value::Seq(vec![Value::Long(0), p.clone()]))
            })
            .collect();
        let marshal = probe_ns(large.len() * 16, |i| {
            let bytes = encode_value(&large[i % large.len()]);
            std::hint::black_box(decode_value(&bytes).expect("own encoding decodes"));
        });
        out.layer("orb.marshal_large_us", marshal / 1e3, "us");
        out.notes.push(format!(
            "trace: layer spans cover {:.1}% of operation time; first call after listen {:.3} ms (median of {})",
            tracer.coverage() * 100.0,
            median(&first_calls) * 1e3,
            first_calls.len()
        ));
        out.tracer = Some(tracer);
    }
    out
}
