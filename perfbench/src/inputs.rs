//! Workload inputs, generated from the seed before any runtime exists.
//!
//! Runs are time-bounded, so each input set is a fixed pool that the
//! workload cycles through; the program under test only ever sees bytes
//! from these pools.
//!
//! Sizes are stratified: a pool of `n` sizes takes one size from each of
//! `n` equal slices of its range, in seeded order. Seeds then differ in
//! which sizes come when and in every byte, but not in how many bytes a
//! pool holds, so a run's amount of work does not depend on its seed.

use crate::rng::SplitMix64;

/// Echo request frame sizes (bytes).
pub const FRAME_MIN: usize = 16;
/// Largest echo frame (bytes).
pub const FRAME_MAX: usize = 4096;
/// Frames generated per echo client.
pub const FRAMES_PER_CLIENT: usize = 1024;
/// Job file sizes (bytes).
pub const FILE_MIN: usize = 256;
/// Largest job file (bytes).
pub const FILE_MAX: usize = 64 * 1024;
/// Distinct job files (about 1 MiB, so the pool stays in a core's L2).
pub const FILES: usize = 32;
/// Ring payload sizes (bytes).
pub const PAYLOAD_MIN: usize = 16;
/// Largest ring payload (bytes).
pub const PAYLOAD_MAX: usize = 4096;
/// Distinct ring payloads.
pub const PAYLOADS: usize = 1024;
/// Distinct allreduce contributions.
pub const CONTRIBUTIONS: usize = 4096;

/// Request frames, one list per client.
#[derive(Debug, Clone, PartialEq)]
pub struct EchoInputs {
    /// `frames[c][i]` is client `c`'s `i`-th request.
    pub frames: Vec<Vec<Vec<u8>>>,
}

/// Job file contents.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInputs {
    /// Job `j` writes `files[j % FILES]`.
    pub files: Vec<Vec<u8>>,
}

/// Ring payloads and allreduce contributions.
#[derive(Debug, Clone, PartialEq)]
pub struct RingInputs {
    /// Rank `r` sends `payloads[(step * ranks + r) % PAYLOADS]` at `step`.
    pub payloads: Vec<Vec<u8>>,
    /// Rank `r` contributes `contributions[(round * ranks + r) % CONTRIBUTIONS]`
    /// to the allreduce of `round`. Whole numbers, so every summation order
    /// gives the same exact sum.
    pub contributions: Vec<f64>,
}

/// `n` sizes in `lo..=hi`, one from each of `n` equal slices of the
/// range, shuffled.
pub fn stratified(g: &mut SplitMix64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi - lo + 1) as u64;
    let edge = |i: usize| lo + (span * i as u64 / n as u64) as usize;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| g.range(edge(i), edge(i + 1).max(edge(i) + 1) - 1))
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, g.below(i as u64 + 1) as usize);
    }
    sizes
}

/// A pool of `n` byte strings with stratified sizes in `lo..=hi`.
fn pool(g: &mut SplitMix64, n: usize, lo: usize, hi: usize) -> Vec<Vec<u8>> {
    stratified(g, n, lo, hi)
        .into_iter()
        .map(|len| g.bytes(len))
        .collect()
}

/// Frames for `clients` echo clients.
pub fn echo(seed: u64, clients: usize) -> EchoInputs {
    let mut g = SplitMix64::fork(seed, 1);
    let frames = (0..clients)
        .map(|_| pool(&mut g, FRAMES_PER_CLIENT, FRAME_MIN, FRAME_MAX))
        .collect();
    EchoInputs { frames }
}

/// Files for the job churn.
pub fn jobs(seed: u64) -> JobInputs {
    let mut g = SplitMix64::fork(seed, 2);
    JobInputs {
        files: pool(&mut g, FILES, FILE_MIN, FILE_MAX),
    }
}

/// Payloads and contributions for the ring.
pub fn ring(seed: u64) -> RingInputs {
    let mut g = SplitMix64::fork(seed, 3);
    let payloads = pool(&mut g, PAYLOADS, PAYLOAD_MIN, PAYLOAD_MAX);
    let contributions = (0..CONTRIBUTIONS)
        .map(|_| g.below(1 << 20) as f64)
        .collect();
    RingInputs {
        payloads,
        contributions,
    }
}

/// FNV-1a over a sequence of byte strings, length-prefixed so that
/// regrouping the same bytes changes the digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for p in parts {
        for b in (p.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in p {
            eat(b);
        }
    }
    h
}
