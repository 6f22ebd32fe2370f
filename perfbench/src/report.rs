//! The human-readable report and the machine-readable result line.

use crate::stats::{median, quantile};
use crate::sys::Usage;
use crate::{Config, Outcome};

/// Every per-layer metric the traced binary measures, with its unit. A
/// traced run prints all of them; a layer the workload does not cross
/// reads 0 (the report says which). `BENCHMARK.json` declares the ones
/// measured on its workloads.
pub const LAYERS: &[(&str, &str)] = &[
    ("orb.request_path_us", "us"),
    ("orb.dispatch_us", "us"),
    ("orb.servant_us", "us"),
    ("orb.reply_path_us", "us"),
    ("orb.marshal_small_ns", "ns"),
    ("orb.marshal_large_us", "us"),
    ("orb.wire_bytes_per_op", "B"),
    ("orb.ctx_switches_per_op", "count"),
    ("orb.first_call_ms", "ms"),
    ("orb.allocs_per_call", "count"),
    ("core.proxy_bound_us", "us"),
    ("core.proxy_balanced_us", "us"),
    ("core.proxy_self_us", "us"),
    ("core.allocs_per_invoke", "count"),
    ("core.event_handling_us", "us"),
    ("balancer.pick_ns", "ns"),
    ("balancer.refresh_us", "us"),
    ("trading.query_us", "us"),
    ("trading.query_broad_us", "us"),
    ("trading.query_selective_us", "us"),
    ("trading.export_us", "us"),
    ("trading.withdraw_us", "us"),
    ("trading.modify_us", "us"),
    ("trading.refresh_us", "us"),
    ("trading.constraint_parse_us", "us"),
    ("trading.constraint_eval_ns", "ns"),
    ("trading.preference_order_us", "us"),
    ("trading.scan_ns_per_offer", "ns"),
    ("trading.allocs_per_query", "count"),
    ("trading.dynamic_query_us", "us"),
    ("monitor.tick_us", "us"),
    ("script.predicate_us", "us"),
    ("sim.advance_us", "us"),
    ("telemetry.series", "count"),
    ("telemetry.samples_held", "count"),
    ("telemetry.snapshot_ms", "ms"),
    ("bench.allocs_per_op", "count"),
];

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metric_obj(items: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Operations per latency block; each block's p99 has ten samples
/// beyond it.
const BLOCK_OPS: usize = 1000;
/// At most this many latency blocks.
const MAX_BLOCKS: usize = 20;

/// Splits the latencies (in completion order) into consecutive blocks
/// of at least [`BLOCK_OPS`] and returns the median over blocks of each
/// block's p50 and p99, in µs, with the block count. A stretch of
/// interference from other tenants of the host lands in a minority of
/// blocks and moves these medians less than it moves whole-run
/// quantiles; a stall that recurs in every block still shows.
fn block_quantiles(lat: &[u32]) -> (f64, f64, usize) {
    if lat.is_empty() {
        return (0.0, 0.0, 0);
    }
    let blocks = (lat.len() / BLOCK_OPS).clamp(1, MAX_BLOCKS);
    let size = lat.len() / blocks;
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for block in lat.chunks_exact(size).take(blocks) {
        let mut b = block.to_vec();
        b.sort_unstable();
        p50s.push(f64::from(quantile(&b, 0.50)) / 1e3);
        p99s.push(f64::from(quantile(&b, 0.99)) / 1e3);
    }
    (median(&p50s), median(&p99s), blocks)
}

/// Prints the report, then one JSON line with `correct`, `attempted`,
/// `failed`, `samples`, `e2e` and (traced runs) `layers`.
pub fn print(config: &Config, out: &Outcome) {
    let usage = Usage::now();
    let lat = &out.latencies_ns;
    let (p50, p99, blocks) = block_quantiles(lat);
    let block_len = lat.len() / blocks.max(1);
    let beyond_p99 = block_len - ((0.99 * block_len as f64).ceil() as usize).min(block_len);
    let setups: Vec<f64> = out.setups.iter().map(|d| d.as_secs_f64()).collect();
    let ops = out.attempted.max(1) as f64;
    // Throughput and CPU per operation are the medians over the phase's
    // sampling intervals, so a burst of steal on the shared host moves
    // them less than it moves the whole-phase ratio.
    let (ops_per_s, cpu_us_per_op) = if out.phase.intervals.len() >= 3 {
        let rates: Vec<f64> = out.phase.intervals.iter().map(|i| i.0).collect();
        let cpus: Vec<f64> = out.phase.intervals.iter().map(|i| i.1).collect();
        (median(&rates), median(&cpus))
    } else {
        (
            ops / out.phase.wall.as_secs_f64(),
            out.phase.cpu.as_secs_f64() * 1e6 / ops,
        )
    };
    let e2e = [
        ("setup_s", median(&setups), "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("lat_p50_us", p50, "us"),
        ("lat_p99_us", p99, "us"),
        ("cpu_us_per_op", cpu_us_per_op, "us"),
        ("peak_rss_mb", usage.peak_rss as f64 / 1e6, "MB"),
    ];
    let correct = out.violations.is_empty();

    println!(
        "workload {} seed {} seconds {} traced {}",
        config.workload, config.seed, config.seconds, config.traced
    );
    println!(
        "  set-ups: {} ... (median of {}), timed phase {:.3} s wall, {:.3} s cpu, {} sampling intervals",
        setups.iter().take(12).map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(" "),
        setups.len(),
        out.phase.wall.as_secs_f64(),
        out.phase.cpu.as_secs_f64(),
        out.phase.intervals.len()
    );
    println!(
        "  operations: {} attempted, {} failed; latency samples {} in {} blocks ({} beyond p99 in each)",
        out.attempted,
        out.failed,
        lat.len(),
        blocks,
        beyond_p99
    );
    for (n, v, u) in &e2e {
        println!("  {n:<16} {v:>14.4} {u}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for v in out.violations.iter().take(10) {
        println!("  CHECK FAILED: {v}");
    }
    if out.violations.len() > 10 {
        println!("  ... {} more check failures", out.violations.len() - 10);
    }

    let mut layers = Vec::new();
    if config.traced {
        println!("  per-layer:");
        for (name, unit) in LAYERS {
            let measured = out.layers.iter().find(|(n, _, _)| n == name);
            let value = measured.map_or(0.0, |(_, v, _)| *v);
            let tag = if measured.is_some() {
                ""
            } else {
                "  (not on this workload's path)"
            };
            println!("    {name:<30} {value:>14.4} {unit}{tag}");
            layers.push((*name, value, *unit));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"e2e\": {}, \"layers\": {}}}",
        out.attempted,
        out.failed,
        lat.len(),
        metric_obj(&e2e),
        metric_obj(&layers)
    );
}
