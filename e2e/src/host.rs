//! What the harness asks of the operating system: one-CPU restriction,
//! peak memory, CPU time, and the stamp printed before a run.

use std::time::Instant;

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_affinity() -> Option<[u64; CPU_SET_WORDS]> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, which is the size of glibc's `cpu_set_t`; pid 0 is the
    // calling thread. The call writes nothing beyond that size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_affinity(mask: &[u64; CPU_SET_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte size passed and
    // is only read; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity() -> Option<[u64; CPU_SET_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_mask: &[u64; CPU_SET_WORDS]) -> bool {
    false
}

/// The calling thread, and every thread it spawns while this lives, may
/// run on one CPU only. Dropping it gives the calling thread its former
/// CPUs back, on every path out of the scope that made it.
pub struct OneCpu {
    before: [u64; CPU_SET_WORDS],
    pub cpu: usize,
}

impl OneCpu {
    /// Restrict to the lowest CPU the thread may use now. `None` (with a
    /// line on standard error) where the host does not allow it; the run
    /// goes on unrestricted and its stamp says so.
    pub fn restrict() -> Option<OneCpu> {
        let before = get_affinity()?;
        let (word, bits) = before.iter().enumerate().find(|(_, w)| **w != 0)?;
        let bit = bits.trailing_zeros() as usize;
        let mut one = [0u64; CPU_SET_WORDS];
        one[word] = 1 << bit;
        if !set_affinity(&one) {
            eprintln!("e2e: sched_setaffinity refused; running on every allowed CPU");
            return None;
        }
        Some(OneCpu {
            before,
            cpu: word * 64 + bit,
        })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if !set_affinity(&self.before) {
            eprintln!("e2e: could not restore the CPU affinity mask");
        }
    }
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> usize {
    get_affinity().map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |m| m.iter().map(|w| w.count_ones() as usize).sum(),
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds
/// (`utime + stime` of `/proc/self/stat`, at the kernel's 100 Hz tick);
/// zero where that file cannot be read.
pub fn cpu_seconds() -> f64 {
    fn read() -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name may hold spaces; fields are counted after its ')'.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace();
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }
    read().unwrap_or(0.0)
}

/// Cost of reading the clock once, in nanoseconds.
pub fn clock_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// One-minute load average, for the record of how restless the host was.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_restriction_is_undone_on_drop() {
        let before = allowed_cpus();
        if let Some(pin) = OneCpu::restrict() {
            assert_eq!(allowed_cpus(), 1);
            // A thread spawned while restricted inherits the restriction.
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, 1);
            drop(pin);
        }
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(cpu_seconds() >= 0.0);
        assert!(clock_ns() > 0.0);
    }
}
