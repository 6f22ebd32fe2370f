//! Resource usage of the benchmark's own process, from `getrusage`.

use std::time::Duration;

/// `struct timeval` as Linux defines it.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux defines it (every counter is a C `long`).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Binds the calling thread, and so every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on; returns that CPU, or
/// `None` when the mask cannot be read or set.
///
/// The benchmark runs on one CPU so that a hand-off between the
/// program's threads is a switch on that CPU. Across CPUs a hand-off
/// waits until the host runs the other virtual CPU, a delay set by the
/// host's other tenants rather than by the program.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes, the
    // layout of a `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes holding a mask
    // with one CPU the thread was already allowed to run on.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

const RUSAGE_SELF: i32 = 0;

/// Whole-process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time of every thread, live or exited.
    pub cpu: Duration,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// High-water resident set size, in bytes.
    pub peak_rss: u64,
}

impl Usage {
    /// Reads the process's usage.
    ///
    /// # Panics
    ///
    /// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
    /// valid buffer.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` laid out as
        // the C definition on Linux (two `timeval`s then fourteen
        // `long`s), and `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: &TimeVal| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
        Usage {
            cpu: tv(&ru.utime) + tv(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            peak_rss: ru.maxrss as u64 * 1024,
        }
    }
}
