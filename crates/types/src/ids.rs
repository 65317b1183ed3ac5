//! Small identifier newtypes for kernel objects and variants.

use std::fmt;

/// A file descriptor in the simulated kernel.
///
/// Negative values are never constructed; syscall-level errors are conveyed
/// through [`Errno`](crate::Errno) instead.
///
/// # Example
///
/// ```
/// use nvariant_types::Fd;
///
/// assert_eq!(Fd::STDIN.as_u32(), 0);
/// assert_eq!(Fd::new(5).as_u32(), 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fd(u32);

impl Fd {
    /// Standard input.
    pub const STDIN: Fd = Fd(0);
    /// Standard output.
    pub const STDOUT: Fd = Fd(1);
    /// Standard error.
    pub const STDERR: Fd = Fd(2);

    /// Creates a file descriptor from its raw index.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Fd(raw)
    }

    /// Returns the raw descriptor index.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the raw descriptor index as a `usize` for table lookups.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fd({})", self.0)
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

impl From<u32> for Fd {
    fn from(raw: u32) -> Self {
        Fd(raw)
    }
}

/// A process identifier in the simulated kernel.
///
/// # Example
///
/// ```
/// use nvariant_types::Pid;
/// assert_eq!(Pid::new(1).as_u32(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(u32);

impl Pid {
    /// Creates a PID from its raw value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Pid(raw)
    }

    /// Returns the raw PID value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// The index of a variant within an N-variant system (`0..N`).
///
/// The paper's case study uses two variants (`P0`, `P1`); the framework here
/// is generic over N, so the identifier is a full `usize` index.
///
/// # Example
///
/// ```
/// use nvariant_types::VariantId;
///
/// let v0 = VariantId::new(0);
/// let v1 = VariantId::new(1);
/// assert_ne!(v0, v1);
/// assert_eq!(format!("{v1}"), "P1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VariantId(usize);

impl VariantId {
    /// The first variant (`P0`), which conventionally uses the identity
    /// reexpression function.
    pub const P0: VariantId = VariantId(0);
    /// The second variant (`P1`).
    pub const P1: VariantId = VariantId(1);

    /// Creates a variant identifier from its index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        VariantId(index)
    }

    /// Returns the variant index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for VariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VariantId({})", self.0)
    }
}

impl fmt::Display for VariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for VariantId {
    fn from(index: usize) -> Self {
        VariantId(index)
    }
}

/// A simulated TCP connection identifier.
///
/// # Example
///
/// ```
/// use nvariant_types::ConnId;
/// assert_eq!(ConnId::new(3).as_u64(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConnId(u64);

impl ConnId {
    /// Creates a connection identifier.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        ConnId(raw)
    }

    /// Returns the raw identifier.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConnId({})", self.0)
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// A TCP port number in the simulated network.
///
/// Ports below 1024 are *privileged*: binding them requires an effective UID
/// of root, which is why the Apache-like case study must start as root and
/// drop privileges afterwards.
///
/// # Example
///
/// ```
/// use nvariant_types::Port;
///
/// assert!(Port::HTTP.is_privileged());
/// assert!(!Port::new(8080).is_privileged());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(u16);

impl Port {
    /// The conventional HTTP port.
    pub const HTTP: Port = Port(80);

    /// Creates a port from its numeric value.
    #[must_use]
    pub const fn new(raw: u16) -> Self {
        Port(raw)
    }

    /// Returns the numeric port value.
    #[must_use]
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns `true` if binding this port requires root privileges.
    #[must_use]
    pub const fn is_privileged(self) -> bool {
        self.0 < 1024
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Port({})", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

impl From<u16> for Port {
    fn from(raw: u16) -> Self {
        Port(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_descriptors() {
        assert_eq!(Fd::STDIN.as_u32(), 0);
        assert_eq!(Fd::STDOUT.as_u32(), 1);
        assert_eq!(Fd::STDERR.as_u32(), 2);
    }

    #[test]
    fn variant_ids_are_ordered() {
        assert!(VariantId::P0 < VariantId::P1);
        assert_eq!(VariantId::new(0), VariantId::P0);
        assert_eq!(VariantId::P1.index(), 1);
    }

    #[test]
    fn privileged_ports() {
        assert!(Port::new(80).is_privileged());
        assert!(Port::new(1023).is_privileged());
        assert!(!Port::new(1024).is_privileged());
        assert!(!Port::new(8080).is_privileged());
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(format!("{}", Fd::new(3)), "fd3");
        assert_eq!(format!("{}", Pid::new(9)), "pid 9");
        assert_eq!(format!("{}", VariantId::P0), "P0");
        assert_eq!(format!("{}", ConnId::new(12)), "conn#12");
        assert_eq!(format!("{}", Port::HTTP), ":80");
    }
}
