//! Hermetic configuration: nothing ambient may change a run silently.

use std::path::PathBuf;

/// Every environment variable the stack reads. They are removed from this
/// process — and so from its children — before anything else runs; the
/// effective settings are explicit in `stack::server_config`.
pub const SCRUBBED: [&str; 9] = [
    "RE_EXEC_THREADS",
    "RE_TRANSPORT",
    "RE_FAULT",
    "RE_TRACE_SAMPLE",
    "RE_LOG",
    "RE_SLOW_QUERY_MS",
    "RE_QUERY_DEADLINE_MS",
    "RE_BENCH_SCALE",
    "RE_SCALE",
];

/// Remove [`SCRUBBED`]. Call first thing in `main`, before any thread
/// exists.
pub fn scrub_env() {
    for name in SCRUBBED {
        std::env::remove_var(name);
    }
}

/// CPUs this process may run on. The layer probes and the open loop of
/// the traced run (2 workers, 2 pool threads, a generator) are sized for 2.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is that many readable bytes; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The calling thread confined to one CPU; [`Pinned::release`] undoes it.
pub struct Pinned {
    /// The CPU it is confined to.
    pub cpu: usize,
    allowed: CpuSet,
}

/// Confine the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on. `None` where the platform has no
/// such call or the call failed: the run goes on unconfined and its result
/// document says so.
///
/// Every workload keeps one request in flight, so one thread at a time has
/// work: client, reactor, worker, reactor, client. Left on two virtual
/// CPUs, each hand-over wakes a halted one, which on a shared host is a
/// trip through the hypervisor of 30 to 100 µs, paid or not according to
/// the host's load: `FETCH 8` over TCP read 29–31 µs confined and
/// 31–150 µs not, a 6-cycle `OPEN` 80–85 ms against 62–100 ms. Confined,
/// a latency is the processor time of the layers it crosses.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is `size` writable bytes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().position(|&w| w != 0)?;
        let bit = allowed[word].trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        set_affinity(&one).then_some(Pinned {
            cpu: word * 64 + bit,
            allowed,
        })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Pinned {
    /// Let the calling thread, and every thread it starts from now on, run
    /// on all the CPUs it could before. Threads started while confined stay
    /// confined.
    pub fn release(self) {
        #[cfg(target_os = "linux")]
        set_affinity(&self.allowed);
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running `git`; `"unknown"` outside a repository.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces and per-workload result documents go: beside the
/// executable, which is inside the build directory of the checkout.
pub fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("stackbench-out")))
        .unwrap_or_else(|| PathBuf::from("stackbench-out"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}
