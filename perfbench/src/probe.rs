//! Measurement plumbing: CPU clocks and affinity, peak RSS, per-thread CPU
//! from `/proc`, a counting global allocator, and the in-memory span tracer.
//!
//! Everything that costs time on a hot path (span recording, allocation
//! counting, `/proc` thread sampling) is switched on only in the traced run;
//! the untraced run that produces the end-to-end figures pays for none of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark uses Linux CPU clocks, affinity and /proc; it builds on 64-bit Linux only"
);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs as 64-bit words.
type CpuSet = [u64; 16];

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` gate above)
    // and both clock ids are defined by Linux for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process so far, every thread included
/// (also threads that already exited).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Resets the process's peak resident set size to its current size, so
/// each session reports its own peak (Linux 4.0 and later).
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of the process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU nanoseconds per live thread of this process, keyed by thread name
/// (`comm`), summed over threads sharing a name prefix up to the last `-`
/// (`smbm-shard-0` and `smbm-shard-1` both count as `smbm-shard`).
pub fn thread_cpu_by_role() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let comm = comm.trim();
        let role = comm.rsplit_once('-').map_or(comm, |(head, _)| head);
        let ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        *out.entry(role.to_owned()).or_insert(0) += ns;
    }
    out
}

/// A global allocator that counts allocations while [`count_allocs`] is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter bump, which publishes
// no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System`; the caller upholds `realloc`'s
        // contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (traced runs only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Index of a recorded span, used as the parent of later spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
}

/// In-memory span recorder. Spans are named `<layer>.<call>`; a disabled
/// tracer records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    run: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for one benchmark run; `run` identifies it in the JSONL.
    pub fn new(enabled: bool, run: String) -> Tracer {
        Tracer {
            enabled,
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `<layer>.<call>` under `parent`; returns its id
    /// (`None` when tracing is off), to close it with [`Tracer::end`] or
    /// name it as a later span's parent.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, span: Option<SpanId>) {
        if let Some(SpanId(i)) = span {
            let end = self.now_ns();
            self.spans.lock().expect("span log poisoned by a panic")[i].end = end;
        }
    }

    /// Self time per layer, in milliseconds: each span's duration minus the
    /// part of it covered by its children, summed by the span name's layer
    /// prefix. Spans on concurrent threads each count in full, so the sum
    /// can exceed wall time.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span log poisoned by a panic");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(SpanId(p)) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_within(&mut children[i], s.start, s.end);
            let own = s.end.saturating_sub(s.start).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_owned();
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line: name, start and end (ns since
    /// the run began), id, parent id and run id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned by a panic");
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 8), (0, 3), (2, 4), (7, 20)];
        assert_eq!(union_within(&mut v, 1, 10), 3 + 5);
    }
}
