//! The four workloads and what they share.

pub mod adapt_loop;
pub mod call_inproc;
pub mod servant;
pub mod tcp_mux;
pub mod trader_churn;

use std::time::{Duration, Instant};

use adapta_telemetry::registry;

use crate::{Config, Outcome};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["call_inproc", "tcp_mux", "trader_churn", "adapt_loop"];

/// Share of the timed operation count run first as untimed warm-up.
pub const WARMUP_SHARE: usize = 10;

/// Runs the configured workload.
///
/// # Panics
///
/// On an unknown workload name (arguments are checked before).
pub fn run(config: &Config) -> Outcome {
    match config.workload.as_str() {
        "call_inproc" => call_inproc::run(config),
        "tcp_mux" => tcp_mux::run(config),
        "trader_churn" => trader_churn::run(config),
        "adapt_loop" => adapt_loop::run(config),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Builds the deployment `count` times, timing each build, tears down
/// all but the last and returns it with the timings. `setup_s` is the
/// median; the last deployment serves the timed phase.
pub fn set_up<D>(
    count: usize,
    mut build: impl FnMut() -> D,
    mut teardown: impl FnMut(D),
) -> (D, Vec<Duration>) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let deployment = build();
        times.push(started.elapsed());
        last = Some(deployment);
    }
    (last.expect("at least one set-up"), times)
}

/// The telemetry registry's size at the end of the timed phase:
/// `telemetry.series`, `telemetry.samples_held`, `telemetry.snapshot_ms`.
pub fn telemetry_layers(out: &mut Outcome) {
    let started = Instant::now();
    let snap = registry().snapshot();
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let series = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    let samples: u64 = snap.histograms.iter().map(|(_, h)| h.count).sum();
    out.layer("telemetry.series", series as f64, "count");
    out.layer("telemetry.samples_held", samples as f64, "count");
    out.layer("telemetry.snapshot_ms", snapshot_ms, "ms");
    out.layer(
        "bench.allocs_per_op",
        out.phase.allocs as f64 / out.attempted.max(1) as f64,
        "count",
    );
}

/// Mean time per call of `f` over `n` calls, in ns.
pub fn probe_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}
