//! Monitor configuration.

/// Configuration of an N-variant monitor instance.
///
/// Every divergence is treated as an attack: the monitor terminates the
/// group and reports the alarm in its outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Absolute paths treated as *unshared files*: each variant opens its
    /// own copy (`<path>-<variant index>`), which must have been provisioned
    /// in the filesystem beforehand (see
    /// [`provision_unshared_copies`](crate::provision_unshared_copies)).
    pub unshared_files: Vec<String>,
    /// Maximum bytecode instructions one variant may execute between two
    /// synchronization points before it is considered runaway.
    pub max_steps_per_slice: u64,
    /// Maximum number of synchronization points before the run is aborted.
    pub max_syscalls: u64,
    /// Whether the per-argument canonicalization equivalence checks raise
    /// alarms. Disabling this deliberately *weakens* the monitor — corrupted
    /// but structurally identical syscalls sail through — and exists so the
    /// model checker can demonstrate the detection gap as a counterexample.
    pub detection_checks: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            unshared_files: Vec::new(),
            max_steps_per_slice: 20_000_000,
            max_syscalls: 1_000_000,
            detection_checks: true,
        }
    }
}

impl MonitorConfig {
    /// Adds an unshared file path.
    #[must_use]
    pub fn with_unshared_file(mut self, path: &str) -> Self {
        self.unshared_files.push(path.to_string());
        self
    }

    /// Disables the canonicalization equivalence checks (see
    /// [`MonitorConfig::detection_checks`]). Only useful for demonstrating
    /// what the monitor would miss without them.
    #[must_use]
    pub fn without_detection_checks(mut self) -> Self {
        self.detection_checks = false;
        self
    }

    /// Returns `true` if `path` is configured as unshared.
    #[must_use]
    pub fn is_unshared(&self, path: &str) -> bool {
        self.unshared_files.iter().any(|p| p == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let config = MonitorConfig::default();
        assert!(config.unshared_files.is_empty());
        assert!(config.max_steps_per_slice > 1_000_000);
    }

    #[test]
    fn builder_and_lookup() {
        let config = MonitorConfig::default()
            .with_unshared_file("/etc/passwd")
            .with_unshared_file("/etc/group");
        assert!(config.is_unshared("/etc/passwd"));
        assert!(config.is_unshared("/etc/group"));
        assert!(!config.is_unshared("/etc/httpd.conf"));
    }
}
