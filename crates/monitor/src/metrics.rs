//! Execution metrics collected by the monitor.
//!
//! These counters feed the performance model behind the Table 3
//! reproduction: per-request CPU cost is derived from the instructions
//! executed by every variant plus the number of monitor checks, while I/O
//! bytes are charged once because the kernel performed them once.

use std::fmt;

/// Execution counters in a shape shared by single-process and N-variant
/// deployments, used by the performance model behind the Table 3
/// reproduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionMetrics {
    /// Number of variant processes that executed.
    pub variants: usize,
    /// Total bytecode instructions executed across all variants.
    pub total_instructions: u64,
    /// Synchronization points / system calls issued.
    pub syscalls: u64,
    /// Cross-variant equivalence checks performed by the monitor
    /// (zero for single-process deployments).
    pub monitor_checks: u64,
    /// Table 2 detection calls observed.
    pub detection_calls: u64,
    /// I/O bytes moved by the kernel: input and output once regardless of
    /// the number of variants, unshared-file I/O once per variant.
    pub io_bytes: u64,
}

impl ExecutionMetrics {
    /// Merges another run's counters into this one.
    pub fn absorb(&mut self, other: &ExecutionMetrics) {
        self.variants = self.variants.max(other.variants);
        self.total_instructions += other.total_instructions;
        self.syscalls += other.syscalls;
        self.monitor_checks += other.monitor_checks;
        self.detection_calls += other.detection_calls;
        self.io_bytes += other.io_bytes;
    }
}

impl fmt::Display for ExecutionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} variants, {} instructions, {} syscalls, {} checks, {} I/O bytes",
            self.variants,
            self.total_instructions,
            self.syscalls,
            self.monitor_checks,
            self.io_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut total = ExecutionMetrics {
            variants: 2,
            ..ExecutionMetrics::default()
        };
        let per_request = ExecutionMetrics {
            variants: 3,
            total_instructions: 1000,
            syscalls: 5,
            monitor_checks: 9,
            detection_calls: 2,
            io_bytes: 400,
        };
        total.absorb(&per_request);
        total.absorb(&per_request);
        assert_eq!(total.variants, 3);
        assert_eq!(total.total_instructions, 2000);
        assert_eq!(total.syscalls, 10);
        assert_eq!(total.monitor_checks, 18);
        assert_eq!(total.detection_calls, 4);
        assert_eq!(total.io_bytes, 800);
    }

    #[test]
    fn display_mentions_key_counters() {
        let text = ExecutionMetrics {
            variants: 2,
            monitor_checks: 7,
            ..ExecutionMetrics::default()
        }
        .to_string();
        assert!(text.contains("2 variants"), "{text}");
        assert!(text.contains("7 checks"), "{text}");
    }
}
