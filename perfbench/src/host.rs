//! Host-side measurement: a counting allocator, peak resident memory,
//! and the provenance stamped on every record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocations while [`count`] runs.
/// Realloc counts as an allocation of its new size. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested while `f` ran.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        COUNT.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident memory of this process so far, MiB: the kernel's
/// `VmHWM`, which starts afresh at `exec` (unlike `getrusage`'s
/// `ru_maxrss`, which keeps the high-water mark of the process that
/// launched this one).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU's brand string, read with `cpuid` rather than from a file.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let words = [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(__cpuid);
    let bytes: Vec<u8> = words
        .iter()
        .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
        .flat_map(u32::to_le_bytes)
        .take_while(|&b| b != 0)
        .collect();
    String::from_utf8_lossy(&bytes).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// Runs git on the repository in the working directory only, never on
/// one found above it.
fn git(args: &[&str]) -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(args)
        .env("GIT_DIR", ".git")
        .env("GIT_WORK_TREE", ".")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance line printed before each result: source revision,
/// whether the tree was clean, host fingerprint, seed and mode.
pub fn provenance(workload: &str, seed: u64, mode: &str) -> String {
    let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let clean = match git(&["status", "--porcelain"]) {
        Some(s) => (s.is_empty()).to_string(),
        None => "null".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"record\": {{\"workload\": \"{workload}\", \"mode\": \"{mode}\", \"seed\": {seed}, \
         \"git_sha\": \"{sha}\", \"clean_tree\": {clean}, \"cpu\": \"{}\", \"nproc\": {nproc}}}}}",
        cpu_model().replace('"', "'")
    )
}

/// Median of `v` (mean of the middle pair when even); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
