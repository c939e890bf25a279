//! Thread-to-CPU placement for the open loop: the load generator and the
//! reply collector share the last CPU, and the pool's workers, which
//! inherit the mask of the thread that spawns them, keep the others.
//! Without it the kernel wakes a worker on the CPU of the thread that
//! woke it, and the worker then queues behind the spinning generator.
//!
//! Linux only; elsewhere every call is a no-op.

/// A CPU mask the size of the C library's `cpu_set_t` (1024 CPUs).
pub type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_: &CpuMask) -> bool {
        false
    }
}

/// The calling thread's current mask, if placement is supported.
pub fn current() -> Option<CpuMask> {
    sys::get()
}

/// Restore a mask saved by [`current`].
pub fn set(mask: &CpuMask) {
    sys::set(mask);
}

/// Split a mask into (every CPU but the highest, the highest). `None`
/// when it holds fewer than two CPUs: then nothing can be kept apart.
fn split(mask: &CpuMask) -> Option<(CpuMask, CpuMask)> {
    if mask.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut last = [0u64; 16];
    last[word] = 1 << bit;
    let mut rest = *mask;
    rest[word] &= !(1 << bit);
    Some((rest, last))
}

/// Confine the calling thread to the highest CPU it may use.
pub fn pin_last() {
    if let Some((_, last)) = current().as_ref().and_then(split) {
        sys::set(&last);
    }
}

/// Run `f` confined to every CPU but the highest, then restore the mask.
/// Threads `f` spawns keep the confined mask.
pub fn without_last<T>(f: impl FnOnce() -> T) -> T {
    let saved = current();
    if let Some((rest, _)) = saved.as_ref().and_then(split) {
        sys::set(&rest);
    }
    let out = f();
    if let Some(old) = saved {
        sys::set(&old);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_the_highest_cpu() {
        let mut m = [0u64; 16];
        m[0] = 0b1011;
        let (rest, last) = split(&m).expect("three CPUs");
        assert_eq!(rest[0], 0b0011);
        assert_eq!(last[0], 0b1000);
        m[0] = 0b1000;
        assert!(split(&m).is_none());
    }
}
