//! Process CPU time and peak memory (`getrusage`), and the host-speed
//! probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("releasebench reads `struct rusage` as laid out on 64-bit Linux");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// What `getrusage(RUSAGE_SELF)` reports, for every thread of the process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, in bytes.
    pub peak_rss: u64,
}

/// Reads the process's resource usage.
pub fn usage() -> Usage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable value laid out as the kernel's
    // `struct rusage` on this target (checked by the `compile_error!` gate
    // above), and `RUSAGE_SELF` is a valid selector.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let time = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    Usage { cpu: time(&raw.utime) + time(&raw.stime), peak_rss: raw.maxrss as u64 * 1024 }
}

/// Iterations of the host-speed loop (about 50 ms on a 2020s core).
const HOST_LOOP: u64 = 10_000_000;

/// Times a fixed, deterministic single-thread loop, in milliseconds. It is
/// a diagnostic printed beside the metrics: when two sets of runs disagree,
/// it shows whether the host itself ran slower.
pub fn host_speed_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0u64;
    for i in 0..black_box(HOST_LOOP) {
        x = crate::workload::mix(x ^ i);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
