//! POSIX-style error numbers returned by simulated system calls.

use std::fmt;

/// Error numbers returned by the simulated kernel.
///
/// The numbering follows Linux conventions where a value exists there, so the
/// numbers that flow back into variant programs as negative syscall return
/// values look familiar (`-13` for `EACCES`, and so on).
///
/// # Example
///
/// ```
/// use nvariant_types::Errno;
///
/// assert_eq!(Errno::Eacces.as_i32(), 13);
/// assert_eq!(Errno::Eacces.as_syscall_ret(), -13);
/// assert_eq!(Errno::from_i32(2), Some(Errno::Enoent));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[non_exhaustive]
pub enum Errno {
    /// Operation not permitted.
    Eperm,
    /// No such file or directory.
    Enoent,
    /// I/O error.
    Eio,
    /// Bad file descriptor.
    Ebadf,
    /// Resource temporarily unavailable (also `EWOULDBLOCK`).
    Eagain,
    /// Permission denied.
    Eacces,
    /// Bad address (a pointer argument referenced unmapped memory).
    Efault,
    /// File exists.
    Eexist,
    /// Not a directory.
    Enotdir,
    /// Is a directory.
    Eisdir,
    /// Invalid argument.
    Einval,
    /// Too many open files.
    Emfile,
    /// Address already in use.
    Eaddrinuse,
    /// Not a socket.
    Enotsock,
    /// Connection reset by peer.
    Econnreset,
    /// Function not implemented.
    Enosys,
}

impl Errno {
    /// Returns the positive errno value, following Linux numbering.
    #[must_use]
    pub const fn as_i32(self) -> i32 {
        match self {
            Errno::Eperm => 1,
            Errno::Enoent => 2,
            Errno::Eio => 5,
            Errno::Ebadf => 9,
            Errno::Eagain => 11,
            Errno::Eacces => 13,
            Errno::Efault => 14,
            Errno::Eexist => 17,
            Errno::Enotdir => 20,
            Errno::Eisdir => 21,
            Errno::Einval => 22,
            Errno::Emfile => 24,
            Errno::Eaddrinuse => 98,
            Errno::Enotsock => 88,
            Errno::Econnreset => 104,
            Errno::Enosys => 38,
        }
    }

    /// Returns the value as it appears in a syscall return register: the
    /// negated errno.
    #[must_use]
    pub const fn as_syscall_ret(self) -> i32 {
        -self.as_i32()
    }

    /// Looks up an errno from its positive numeric value.
    #[must_use]
    pub fn from_i32(value: i32) -> Option<Self> {
        const ALL: &[Errno] = &[
            Errno::Eperm,
            Errno::Enoent,
            Errno::Eio,
            Errno::Ebadf,
            Errno::Eagain,
            Errno::Eacces,
            Errno::Efault,
            Errno::Eexist,
            Errno::Enotdir,
            Errno::Eisdir,
            Errno::Einval,
            Errno::Emfile,
            Errno::Eaddrinuse,
            Errno::Enotsock,
            Errno::Econnreset,
            Errno::Enosys,
        ];
        ALL.iter().copied().find(|e| e.as_i32() == value)
    }

    /// Returns the symbolic name, e.g. `"EACCES"`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Eio => "EIO",
            Errno::Ebadf => "EBADF",
            Errno::Eagain => "EAGAIN",
            Errno::Eacces => "EACCES",
            Errno::Efault => "EFAULT",
            Errno::Eexist => "EEXIST",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Einval => "EINVAL",
            Errno::Emfile => "EMFILE",
            Errno::Eaddrinuse => "EADDRINUSE",
            Errno::Enotsock => "ENOTSOCK",
            Errno::Econnreset => "ECONNRESET",
            Errno::Enosys => "ENOSYS",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_i32())
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_numbering() {
        assert_eq!(Errno::Eperm.as_i32(), 1);
        assert_eq!(Errno::Enoent.as_i32(), 2);
        assert_eq!(Errno::Eacces.as_i32(), 13);
        assert_eq!(Errno::Efault.as_i32(), 14);
    }

    #[test]
    fn syscall_return_is_negative() {
        assert_eq!(Errno::Eacces.as_syscall_ret(), -13);
        assert!(Errno::Eperm.as_syscall_ret() < 0);
    }

    #[test]
    fn round_trip_from_i32() {
        for e in [
            Errno::Eperm,
            Errno::Enoent,
            Errno::Eio,
            Errno::Ebadf,
            Errno::Eagain,
            Errno::Eacces,
            Errno::Efault,
            Errno::Eexist,
            Errno::Enotdir,
            Errno::Eisdir,
            Errno::Einval,
            Errno::Emfile,
            Errno::Eaddrinuse,
            Errno::Enotsock,
            Errno::Econnreset,
            Errno::Enosys,
        ] {
            assert_eq!(Errno::from_i32(e.as_i32()), Some(e));
        }
        assert_eq!(Errno::from_i32(0), None);
        assert_eq!(Errno::from_i32(9999), None);
    }

    #[test]
    fn display_contains_name_and_number() {
        let text = format!("{}", Errno::Eacces);
        assert!(text.contains("EACCES"));
        assert!(text.contains("13"));
    }
}
