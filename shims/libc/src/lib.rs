//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no access to crates.io, so this crate declares
//! exactly the Linux/glibc FFI surface the workspace uses — nothing more.
//! Constants are the x86_64/AArch64 Linux values (both LP64, so the type
//! aliases coincide); adding a new target means auditing the `SYS_futex`
//! number and the `_SC_*` constants.

#![allow(non_camel_case_types)]

pub use std::ffi::c_void;

pub type c_char = i8;
pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type size_t = usize;
pub type ssize_t = isize;
pub type off_t = i64;
pub type pid_t = i32;
pub type time_t = i64;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    pub tv_sec: time_t,
    pub tv_nsec: c_long,
}

#[cfg(target_arch = "x86_64")]
#[allow(non_upper_case_globals)]
pub const SYS_futex: c_long = 202;
#[cfg(target_arch = "aarch64")]
#[allow(non_upper_case_globals)]
pub const SYS_futex: c_long = 98;

// The generic syscall table gives these two the same numbers on both arches.
#[allow(non_upper_case_globals)]
pub const SYS_pidfd_open: c_long = 434;
#[allow(non_upper_case_globals)]
pub const SYS_process_madvise: c_long = 440;

/// One `(base, len)` range of a vectored call such as `process_madvise`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct iovec {
    pub iov_base: *mut c_void,
    pub iov_len: size_t,
}

pub const FUTEX_WAIT: c_int = 0;
pub const FUTEX_WAKE: c_int = 1;
pub const FUTEX_PRIVATE_FLAG: c_int = 128;

pub const ETIMEDOUT: c_int = 110;

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;

pub const MAP_PRIVATE: c_int = 0x0002;
pub const MAP_ANONYMOUS: c_int = 0x0020;
pub const MAP_STACK: c_int = 0x20000;
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

pub const MADV_DONTNEED: c_int = 4;

pub const _SC_PAGESIZE: c_int = 30;

pub const PR_SET_TIMERSLACK: c_int = 29;

pub const CPU_SETSIZE: c_int = 1024;

/// `cpu_set_t` as glibc lays it out: 1024 bits of CPU mask.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; CPU_SETSIZE as usize / 64],
}

/// glibc's `CPU_SET` macro. Out-of-range CPUs are ignored, as glibc does.
#[allow(non_snake_case)]
pub fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    if cpu < CPU_SETSIZE as usize {
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
    }
}

extern "C" {
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn sysconf(name: c_int) -> c_long;
    pub fn prctl(option: c_int, ...) -> c_int;
    pub fn sched_yield() -> c_int;
    pub fn getpid() -> pid_t;
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *const cpu_set_t) -> c_int;
    pub fn __errno_location() -> *mut c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_sane() {
        let sz = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(sz >= 4096, "page size {sz}");
    }

    #[test]
    fn getpid_is_positive() {
        assert!(unsafe { getpid() } > 0);
    }

    #[test]
    fn cpu_set_sets_bits() {
        let mut set: cpu_set_t = unsafe { std::mem::zeroed() };
        CPU_SET(0, &mut set);
        CPU_SET(65, &mut set);
        assert_eq!(set.bits[0], 1);
        assert_eq!(set.bits[1], 2);
    }
}
