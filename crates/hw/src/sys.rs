//! Raw `perf_event_open(2)` bindings — the workspace's only unsafe code.
//!
//! The hermetic workspace has no `libc` crate, so the four calls this
//! module needs (`syscall`, `ioctl`, `read`, `close`) are declared
//! directly against the system libc that every `*-linux-gnu` binary
//! links anyway. Everything is wrapped in safe functions that return
//! `Result<_, i32>` with the raw errno, so callers above this module
//! never see a pointer or a file descriptor they didn't ask for.
//!
//! On non-Linux targets (or unknown architectures) the same functions
//! exist but unconditionally return `ENOSYS` — the probe-and-degrade
//! contract of [`crate::counters`] then reports a clean `noop` backend.

/// `perf_event_open` is not wired up on this target (or the stub build).
pub const ENOSYS: i32 = 38;

/// `PERF_TYPE_HARDWARE` — generalized hardware events.
pub const PERF_TYPE_HARDWARE: u32 = 0;
/// `PERF_TYPE_HW_CACHE` — generalized cache events.
pub const PERF_TYPE_HW_CACHE: u32 = 3;
/// `PERF_TYPE_SOFTWARE` — kernel software events. Not part of the
/// characterization set; used by tests to exercise the open/read/close
/// path on machines whose PMU is hidden (VMs) but whose
/// `perf_event_open` still works.
pub const PERF_TYPE_SOFTWARE: u32 = 1;
/// `PERF_COUNT_SW_TASK_CLOCK` — per-task clock in nanoseconds.
pub const SW_TASK_CLOCK: u64 = 1;

/// `PERF_COUNT_HW_CPU_CYCLES`.
pub const HW_CPU_CYCLES: u64 = 0;
/// `PERF_COUNT_HW_INSTRUCTIONS`.
pub const HW_INSTRUCTIONS: u64 = 1;
/// `PERF_COUNT_HW_CACHE_MISSES` (last-level cache misses).
pub const HW_CACHE_MISSES: u64 = 3;
/// `PERF_COUNT_HW_BRANCH_MISSES`.
pub const HW_BRANCH_MISSES: u64 = 5;
/// `PERF_COUNT_HW_CACHE_L1D | (OP_READ << 8) | (RESULT_MISS << 16)` —
/// L1 data-cache read misses via the cache-event encoding.
pub const HW_CACHE_L1D_READ_MISS: u64 = 0x1_0000;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use std::os::raw::{c_int, c_long, c_ulong, c_void};

    #[cfg(target_arch = "x86_64")]
    const SYS_PERF_EVENT_OPEN: c_long = 298;
    #[cfg(target_arch = "aarch64")]
    const SYS_PERF_EVENT_OPEN: c_long = 241;

    // asm-generic `_IO('$', n)` encodings, identical on x86_64 and aarch64.
    const PERF_EVENT_IOC_ENABLE: c_ulong = 0x2400;
    const PERF_EVENT_IOC_DISABLE: c_ulong = 0x2401;
    const PERF_EVENT_IOC_RESET: c_ulong = 0x2403;
    /// Apply the ioctl to the whole group, not just one member.
    const PERF_IOC_FLAG_GROUP: c_ulong = 1;

    /// `read_format`: one read returns `{nr, value[nr]}` for the group.
    const PERF_FORMAT_GROUP: u64 = 1 << 3;
    /// attr.flags bit 0: start disabled (group leader only).
    const FLAG_DISABLED: u64 = 1;
    /// attr.flags bit 5: don't count kernel mode. Counting user mode only
    /// keeps the open permitted under `perf_event_paranoid <= 2`, the
    /// common unprivileged default.
    const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
    /// attr.flags bit 6: don't count the hypervisor.
    const FLAG_EXCLUDE_HV: u64 = 1 << 6;

    /// `struct perf_event_attr`, first 64 bytes (`PERF_ATTR_SIZE_VER0`).
    /// Declaring only VER0 and saying so in `size` is the most compatible
    /// ABI contract: the kernel reads exactly `size` bytes and applies
    /// defaults for everything newer, and every field this crate uses
    /// (type, config, read_format, the flag bits) is inside VER0.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        config1: u64,
    }

    const ATTR_SIZE: u32 = 64;

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn __errno_location() -> *mut c_int;
    }

    #[expect(unsafe_code, reason = "errno is only reachable through libc's thread-local pointer")]
    fn errno() -> i32 {
        // SAFETY: glibc/musl guarantee `__errno_location` returns a valid
        // thread-local pointer for the lifetime of the thread.
        unsafe { *__errno_location() }
    }

    /// Open one counting event on the calling thread (`pid = 0`,
    /// `cpu = -1`), attached to `group_fd` (or as a new group leader when
    /// `group_fd < 0`). Returns the event fd or the raw errno.
    pub fn perf_event_open_thread(ty: u32, config: u64, group_fd: i32) -> Result<i32, i32> {
        let mut flags = FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV;
        if group_fd < 0 {
            // The leader starts disabled; one ENABLE-with-group-flag
            // ioctl then starts all members together.
            flags |= FLAG_DISABLED;
        }
        let attr = PerfEventAttr {
            type_: ty,
            size: ATTR_SIZE,
            config,
            sample_period: 0,
            sample_type: 0,
            read_format: PERF_FORMAT_GROUP,
            flags,
            wakeup_events: 0,
            bp_type: 0,
            config1: 0,
        };
        debug_assert_eq!(std::mem::size_of::<PerfEventAttr>(), ATTR_SIZE as usize);
        // SAFETY: the attr struct is repr(C), fully initialized, lives
        // across the call, and `size` tells the kernel to read exactly
        // the 64 bytes it occupies. All other arguments are plain ints.
        #[expect(
            unsafe_code,
            reason = "std has no perf_event_open; the raw syscall is the binding"
        )]
        let ret = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                std::ptr::from_ref(&attr).cast::<c_void>(),
                0_i32,  // pid 0: the calling thread
                -1_i32, // cpu -1: whichever CPU the thread runs on
                group_fd,
                0_u64, // no PERF_FLAG_*
            )
        };
        if ret < 0 {
            Err(errno())
        } else {
            i32::try_from(ret).map_err(|_| super::ENOSYS)
        }
    }

    fn group_ioctl(leader: i32, request: c_ulong) -> Result<(), i32> {
        // SAFETY: plain-integer ioctl on an fd this crate opened; the
        // third argument is the group flag, not a pointer.
        #[expect(unsafe_code, reason = "group enable/disable/reset exist only as ioctls")]
        let ret = unsafe { ioctl(leader, request, PERF_IOC_FLAG_GROUP) };
        if ret < 0 {
            Err(errno())
        } else {
            Ok(())
        }
    }

    /// Start every member of the group led by `leader`.
    pub fn group_enable(leader: i32) -> Result<(), i32> {
        group_ioctl(leader, PERF_EVENT_IOC_ENABLE)
    }

    /// Stop every member of the group led by `leader`.
    pub fn group_disable(leader: i32) -> Result<(), i32> {
        group_ioctl(leader, PERF_EVENT_IOC_DISABLE)
    }

    /// Zero every member of the group led by `leader`.
    pub fn group_reset(leader: i32) -> Result<(), i32> {
        group_ioctl(leader, PERF_EVENT_IOC_RESET)
    }

    /// One group read: fills `out` with `{nr, value[0], value[1], ...}`
    /// and returns how many `u64`s the kernel wrote.
    pub fn read_group(fd: i32, out: &mut [u64]) -> Result<usize, i32> {
        let bytes = std::mem::size_of_val(out);
        // SAFETY: `out` is a valid, writable buffer of exactly `bytes`
        // bytes for the duration of the call; the kernel writes at most
        // that much.
        #[expect(unsafe_code, reason = "a perf fd is read with read(2) into the caller's buffer")]
        let n = unsafe { read(fd, out.as_mut_ptr().cast::<c_void>(), bytes) };
        if n < 0 {
            Err(errno())
        } else {
            Ok(usize::try_from(n).unwrap_or(0) / std::mem::size_of::<u64>())
        }
    }

    /// Close an event fd (best effort; errors are ignored by design).
    pub fn close_fd(fd: i32) {
        // SAFETY: closing an fd this crate opened; double-close cannot
        // happen because `HwGroup` owns each fd exactly once.
        #[expect(
            unsafe_code,
            reason = "the event fd is a raw int this crate owns, closed by close(2)"
        )]
        unsafe {
            close(fd);
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod imp {
    //! Stub backend: every call reports `ENOSYS`, so [`crate::counters`]
    //! degrades to the no-op backend exactly as it would in a container
    //! that blocks the syscall.

    /// Always `Err(ENOSYS)` on this target.
    pub fn perf_event_open_thread(_ty: u32, _config: u64, _group_fd: i32) -> Result<i32, i32> {
        Err(super::ENOSYS)
    }

    /// Always `Err(ENOSYS)` on this target.
    pub fn group_enable(_leader: i32) -> Result<(), i32> {
        Err(super::ENOSYS)
    }

    /// Always `Err(ENOSYS)` on this target.
    pub fn group_disable(_leader: i32) -> Result<(), i32> {
        Err(super::ENOSYS)
    }

    /// Always `Err(ENOSYS)` on this target.
    pub fn group_reset(_leader: i32) -> Result<(), i32> {
        Err(super::ENOSYS)
    }

    /// Always `Err(ENOSYS)` on this target.
    pub fn read_group(_fd: i32, _out: &mut [u64]) -> Result<usize, i32> {
        Err(super::ENOSYS)
    }

    /// Nothing to close on this target.
    pub fn close_fd(_fd: i32) {}
}

pub use imp::{
    close_fd, group_disable, group_enable, group_reset, perf_event_open_thread, read_group,
};

/// Human-readable name for the errnos `perf_event_open` realistically
/// returns, for the probe/degrade matrix (unknown values print as `E<n>`).
pub fn errno_name(e: i32) -> String {
    let name = match e {
        1 => "EPERM (perf_event_paranoid or seccomp)",
        2 => "ENOENT (event not supported by this PMU)",
        7 => "E2BIG (attr size mismatch)",
        9 => "EBADF",
        11 => "EAGAIN",
        13 => "EACCES (perf_event_paranoid or seccomp)",
        19 => "ENODEV (no PMU on this CPU)",
        22 => "EINVAL (event or attr rejected)",
        24 => "EMFILE (fd limit)",
        28 => "ENOSPC (out of PMU counters)",
        38 => "ENOSYS (syscall unavailable on this target)",
        95 => "EOPNOTSUPP (event not supported by hardware)",
        _ => return format!("E{e}"),
    };
    name.to_string()
}
