//! Simulated time and the cost model used by the performance evaluation.
//!
//! The paper's Table 3 distinguishes an *unsaturated* (I/O-bound) regime,
//! where running two variants costs little because I/O is performed once,
//! from a *saturated* (CPU-bound) regime, where throughput roughly halves
//! because all computation is duplicated. To reproduce that shape we charge
//! CPU time per executed instruction and per monitor check, and I/O time per
//! kernel operation — the CPU charges are multiplied by the number of
//! variants by virtue of being measured per variant, while I/O charges are
//! incurred once.

use crate::syscall::Sysno;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in simulated nanoseconds.
///
/// # Example
///
/// ```
/// use nvariant_simos::SimDuration;
///
/// let d = SimDuration::from_micros(5) + SimDuration::from_nanos(500);
/// assert_eq!(d.as_nanos(), 5_500);
/// assert!((d.as_millis_f64() - 0.0055).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// The duration in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    #[must_use]
    pub fn times(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// An instant on the simulated clock (nanoseconds since simulation start).
///
/// # Example
///
/// ```
/// use nvariant_simos::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::ZERO;
/// let t1 = t0 + SimDuration::from_millis(3);
/// assert_eq!(t1.duration_since(t0), SimDuration::from_millis(3));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The start of the simulation.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant from nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed time since an earlier instant (saturating at zero).
    #[must_use]
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.0 as f64 / 1e6)
    }
}

/// Cost parameters that translate executed work into simulated time.
///
/// The defaults are loosely calibrated to the paper's 1.4 GHz Pentium 4 /
/// 100 Mbit LAN testbed; absolute values are not expected to match the
/// paper, but the CPU-vs-I/O balance they induce reproduces the Table 3
/// shape.
///
/// # Example
///
/// ```
/// use nvariant_simos::{CostModel, Sysno};
///
/// let costs = CostModel::default();
/// let cpu = costs.cpu_cost(10_000, 5);
/// assert!(cpu.as_nanos() > 0);
/// let io = costs.io_cost(Sysno::Send, 2048);
/// assert!(io > costs.io_cost(Sysno::Send, 0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Nanoseconds of CPU time per executed bytecode instruction.
    pub ns_per_instruction: f64,
    /// Fixed CPU cost of entering/leaving the kernel for one system call.
    pub ns_per_syscall: f64,
    /// Extra CPU cost of one monitor equivalence check (per variant-pair
    /// comparison performed at a synchronization point).
    pub ns_per_monitor_check: f64,
    /// One-way network latency charged per request and per response.
    pub network_latency_ns: u64,
    /// Network transfer cost per byte sent or received.
    pub ns_per_network_byte: f64,
    /// Latency of a filesystem read that misses the cache.
    pub disk_read_ns: u64,
    /// Transfer cost per byte read from the filesystem.
    pub ns_per_disk_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // ~1.4 GHz, CPI ≈ 3 for an interpreter-era workload.
            ns_per_instruction: 2.1,
            ns_per_syscall: 650.0,
            ns_per_monitor_check: 380.0,
            // Switched 100 Mbit LAN.
            network_latency_ns: 120_000,
            ns_per_network_byte: 80.0,
            // The WebBench working set is small and fully cached after the
            // first touch, so per-request "disk" cost is a buffer-cache copy
            // rather than a seek — which is what makes the saturated regime
            // CPU-bound, as in the paper.
            disk_read_ns: 25_000,
            ns_per_disk_byte: 4.0,
        }
    }
}

impl CostModel {
    /// CPU time for executing `instructions` bytecode instructions plus
    /// `syscalls` kernel crossings.
    #[must_use]
    pub fn cpu_cost(&self, instructions: u64, syscalls: u64) -> SimDuration {
        let ns =
            instructions as f64 * self.ns_per_instruction + syscalls as f64 * self.ns_per_syscall;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// CPU time for `checks` monitor equivalence checks.
    #[must_use]
    pub fn monitor_cost(&self, checks: u64) -> SimDuration {
        SimDuration::from_nanos((checks as f64 * self.ns_per_monitor_check).round() as u64)
    }

    /// I/O time for one kernel operation that moved `bytes` bytes.
    ///
    /// Network operations pay the link latency plus per-byte transfer cost;
    /// filesystem reads pay the disk latency plus per-byte cost; everything
    /// else is considered CPU-only and costs nothing here.
    #[must_use]
    pub fn io_cost(&self, sysno: Sysno, bytes: usize) -> SimDuration {
        match sysno {
            Sysno::Accept => SimDuration::from_nanos(self.network_latency_ns),
            Sysno::Recv | Sysno::Send => SimDuration::from_nanos(
                self.network_latency_ns / 4
                    + (bytes as f64 * self.ns_per_network_byte).round() as u64,
            ),
            Sysno::Open => SimDuration::from_nanos(self.disk_read_ns / 4),
            Sysno::Read => SimDuration::from_nanos(
                self.disk_read_ns + (bytes as f64 * self.ns_per_disk_byte).round() as u64,
            ),
            Sysno::Write => SimDuration::from_nanos(
                self.disk_read_ns / 2 + (bytes as f64 * self.ns_per_disk_byte).round() as u64,
            ),
            _ => SimDuration::ZERO,
        }
    }

    /// Network time to move `bytes` bytes between a client and the server,
    /// including one link latency.
    #[must_use]
    pub fn network_transfer(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(
            self.network_latency_ns + (bytes as f64 * self.ns_per_network_byte).round() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(2);
        let b = SimDuration::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 2_500);
        assert_eq!((a - b).as_nanos(), 1_500);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.times(3).as_nanos(), 6_000);
        let mut c = SimDuration::ZERO;
        c += a;
        assert_eq!(c, a);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::from_nanos(1_000);
        let t1 = t0 + SimDuration::from_nanos(500);
        assert_eq!(t1.as_nanos(), 1_500);
        assert_eq!(t1.duration_since(t0).as_nanos(), 500);
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn cpu_cost_scales_with_instructions() {
        let m = CostModel::default();
        let small = m.cpu_cost(1_000, 1);
        let large = m.cpu_cost(100_000, 1);
        assert!(large > small);
        assert!(large.as_nanos() >= 99 * small.as_nanos() / 2);
    }

    #[test]
    fn io_cost_scales_with_bytes_for_network_and_disk() {
        let m = CostModel::default();
        assert!(m.io_cost(Sysno::Send, 10_000) > m.io_cost(Sysno::Send, 10));
        assert!(m.io_cost(Sysno::Read, 10_000) > m.io_cost(Sysno::Read, 10));
        assert_eq!(m.io_cost(Sysno::SetUid, 0), SimDuration::ZERO);
        assert_eq!(m.io_cost(Sysno::CcEq, 0), SimDuration::ZERO);
    }

    #[test]
    fn io_dominates_small_requests_cpu_dominates_large_computation() {
        // Sanity check of the regime the Table 3 reproduction relies on:
        // a request that executes ~50k instructions is CPU-cheaper than its
        // network+disk I/O, while one that executes ~5M instructions is not.
        let m = CostModel::default();
        let io = m.io_cost(Sysno::Recv, 512)
            + m.io_cost(Sysno::Read, 8192)
            + m.io_cost(Sysno::Send, 8192);
        assert!(m.cpu_cost(50_000, 10) < io);
        assert!(m.cpu_cost(5_000_000, 10) > io);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert!(format!("{}", SimInstant::from_nanos(1_500_000)).contains("1.500ms"));
    }
}
