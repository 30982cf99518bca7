//! Host-side measurement helpers: order statistics, `/proc/self`
//! readers, the host calibration loop, and the commit the checkout
//! was taken from.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Set-ups per run; `setup_s` is the median of their times.
pub const SETUPS: usize = 15;

/// Runs `set_up` [`SETUPS`] times, dropping each result before the next
/// set-up begins, and returns the last result with the median set-up
/// time in seconds.
pub fn timed_setups<T>(mut set_up: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, median(&secs)))
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …) in kB.
pub fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next [`status_kb`]`("VmHWM")` reports the peak since this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident size in MB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on. Returns that CPU, or
/// `None` when the kernel refused.
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: pid 0 names the calling thread, and `allowed` is a live,
    // writable CPU set of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the `size`-byte set.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

/// User and system CPU time of this process in clock ticks, from
/// fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after it
    // start past its closing parenthesis.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field k is at index k - 3.
    Some((fields.get(11)?.parse().ok()?, fields.get(12)?.parse().ok()?))
}

/// System share of the CPU time spent between two [`cpu_ticks`] reads.
pub fn sys_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((u0, s0)), Some((u1, s1))) => {
            let user = u1.saturating_sub(u0) as f64;
            let sys = s1.saturating_sub(s0) as f64;
            if user + sys > 0.0 {
                sys / (user + sys)
            } else {
                0.0
            }
        }
        _ => f64::NAN,
    }
}

/// Microseconds one fixed, single-threaded integer loop takes: a
/// slower host shows here, slower code does not.
pub fn calibrate_us() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for _ in 0..black_box(20_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e6
}

/// The commit `root` was checked out at, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(status_kb("VmHWM").is_some_and(|kb| kb > 0.0));
        assert!(cpu_ticks().is_some());
    }
}
