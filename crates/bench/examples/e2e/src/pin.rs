//! CPU affinity: pin the process to one CPU.
//!
//! On a two-vCPU sandbox the kernel sometimes runs the client thread
//! and the server's connection thread on one CPU and sometimes on two;
//! a loopback round trip costs ~19 µs in the first case and ~60 µs in
//! the second (a cross-CPU wake-up of an idle vCPU), and the choice
//! flips from minute to minute. Pinning everything to one CPU removes
//! that coin toss: every metric becomes a sum of CPU work.

/// Pin the calling thread, and so every thread spawned after this
/// call, to the highest-numbered CPU the process may run on (the
/// lowest takes most interrupts). Returns the CPU number, or `None`
/// where affinity is not available.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    let cpu = *allowed.last()?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length
    // passed; the kernel only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Affinity is a Linux call; elsewhere the run is simply not pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
