//! Fixed-work benchmark of the adapta middleware.
//!
//! One process runs one workload: it builds the workload's deployment
//! several times (`setup_s`), warms up, then runs a fixed number of
//! operations derived from `--seconds` and prints the end-to-end
//! metrics. The traced binary (`perfbench-traced`) runs the same
//! operations with the benchmark's own interceptors, servant stamps,
//! spans and a counting allocator, and prints the per-layer metrics.
//! See `README.md` for the workloads and the metric map.

pub mod alloc;
pub mod check;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one invocation of the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal run length; the operation count is a fixed rate times
    /// this, so the work done never depends on measured speed.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Where the traced run writes its kept spans.
    pub spans: Option<std::path::PathBuf>,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--trace <0|1>]
    /// [--spans <file>]`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn from_args(args: &[String], traced: bool) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut spans = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|s| (1..=600).contains(s))
                            .ok_or_else(|| format!("bad seconds `{value}`"))?,
                    )
                }
                "--trace" => {}
                "--spans" => spans = Some(std::path::PathBuf::from(value)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {})",
                workloads::NAMES.join(", ")
            ));
        }
        Ok(Config {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            traced,
            spans,
        })
    }

    /// The workload's fixed operation count: `rate × seconds`.
    pub fn ops(&self, rate_per_s: u64) -> usize {
        (rate_per_s * self.seconds) as usize
    }
}

/// Operations completed so far; the workloads count each timed one.
static COMPLETED: AtomicU64 = AtomicU64::new(0);

/// Counts one completed operation of the timed phase.
pub fn op_done() {
    // Relaxed: a statistic read by the sampler thread only.
    COMPLETED.fetch_add(1, Ordering::Relaxed);
}

/// How often the timed phase is sampled. Short intervals let a burst
/// of steal on the shared host spoil few of them, so their medians
/// move less than whole-phase ratios do.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// One sample of the timed phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    cpu: Duration,
    ops: u64,
}

impl Sample {
    fn now() -> Sample {
        Sample {
            at: Instant::now(),
            cpu: sys::Usage::now().cpu,
            ops: COMPLETED.load(Ordering::Relaxed),
        }
    }
}

/// The start of the timed phase: instant, process usage, allocation
/// count, and a thread sampling throughput and CPU time every
/// [`SAMPLE_EVERY`] until the phase ends.
#[derive(Debug)]
pub struct PhaseMark {
    wall: Instant,
    usage: sys::Usage,
    allocs: u64,
    stop: Option<mpsc::Sender<()>>,
    sampler: Option<std::thread::JoinHandle<Vec<Sample>>>,
}

impl PhaseMark {
    /// Marks the start of the timed phase.
    pub fn now() -> PhaseMark {
        let (stop, stopped) = mpsc::channel::<()>();
        let sampler = std::thread::Builder::new()
            .name("perfbench-sampler".to_owned())
            .spawn(move || {
                let mut samples = vec![Sample::now()];
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(SAMPLE_EVERY)
                {
                    samples.push(Sample::now());
                }
                samples
            })
            .expect("spawn the sampler thread");
        PhaseMark {
            wall: Instant::now(),
            usage: sys::Usage::now(),
            allocs: alloc::global_allocs(),
            stop: Some(stop),
            sampler: Some(sampler),
        }
    }

    fn samples(&mut self) -> Vec<Sample> {
        drop(self.stop.take());
        self.sampler
            .take()
            .map(|h| h.join().expect("sampler thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for PhaseMark {
    fn drop(&mut self) {
        let _ = self.samples();
    }
}

/// The timed phase, measured from its [`PhaseMark`].
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of the phase.
    pub wall: Duration,
    /// User plus system CPU time of the whole process.
    pub cpu: Duration,
    /// Voluntary plus involuntary context switches of the process.
    pub ctx_switches: u64,
    /// Heap allocations (traced binary only; 0 otherwise).
    pub allocs: u64,
    /// Per sampling interval: operations per second and CPU µs per
    /// operation (intervals without operations are left out).
    pub intervals: Vec<(f64, f64)>,
}

impl Phase {
    /// Ends the phase started at `start`.
    pub fn since(mut start: PhaseMark) -> Phase {
        let usage = sys::Usage::now();
        let wall = start.wall.elapsed();
        let allocs = alloc::global_allocs();
        let intervals = start
            .samples()
            .windows(2)
            .filter(|w| w[1].ops > w[0].ops)
            .map(|w| {
                let ops = (w[1].ops - w[0].ops) as f64;
                (
                    ops / (w[1].at - w[0].at).as_secs_f64(),
                    (w[1].cpu.saturating_sub(w[0].cpu)).as_secs_f64() * 1e6 / ops,
                )
            })
            .collect();
        Phase {
            wall,
            cpu: usage.cpu.saturating_sub(start.usage.cpu),
            ctx_switches: usage.ctx_switches - start.usage.ctx_switches,
            allocs: allocs - start.allocs,
            intervals,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each full set-up of the deployment.
    pub setups: Vec<Duration>,
    /// Per-operation latency of the timed phase, in nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The timed phase.
    pub phase: Phase,
    /// Output-check failures (empty when every check passed).
    pub violations: Vec<String>,
    /// Per-layer metrics `(name, value, unit)` (traced run only).
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    /// Records an output-check failure (the report prints the first ten).
    pub fn violation(&mut self, message: String) {
        self.violations.push(message);
    }
}

/// Converts a duration to `u32` nanoseconds for the latency log.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Runs the configured workload and prints its report and result line.
/// Returns the process exit code.
pub fn main_with(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&args, traced) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    // Before any thread starts, so that every thread inherits the mask.
    let cpu = sys::pin_to_one_cpu();
    let mut outcome = workloads::run(&config);
    outcome.notes.insert(
        0,
        match cpu {
            Some(c) => format!("every thread of the run bound to CPU {c}"),
            None => "CPU binding failed: threads ran on every allowed CPU".to_owned(),
        },
    );
    report::print(&config, &outcome);
    if let (Some(path), Some(tracer)) = (&config.spans, &outcome.tracer) {
        if let Err(e) = tracer.write(path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return 1;
        }
    }
    0
}
