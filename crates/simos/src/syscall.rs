//! The system-call interface between variant programs and the kernel.
//!
//! System calls are the *synchronization and monitoring points* of the
//! N-variant framework (§3.1 of the paper): once one variant makes a system
//! call it is not allowed to proceed until all other variants make the same
//! call, the monitor checks that the (canonicalized) arguments are
//! equivalent, and input/output is performed exactly once.
//!
//! The enumeration includes the paper's new *detection system calls*
//! (Table 2): `uid_value`, `cond_chk`, and the `cc_*` comparison family.

use nvariant_types::Word;
use std::fmt;

/// System call numbers understood by the simulated kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Sysno {
    /// `exit(status)` — terminate the process.
    Exit,
    /// `getuid() -> uid_t` — real UID of the caller.
    GetUid,
    /// `geteuid() -> uid_t` — effective UID of the caller.
    GetEuid,
    /// `setuid(uid_t) -> int` — set all three UIDs (privilege drop).
    SetUid,
    /// `seteuid(uid_t) -> int` — set the effective UID only.
    SetEuid,
    /// `getgid() -> gid_t` — real GID of the caller.
    GetGid,
    /// `setgid(gid_t) -> int` — set all three GIDs.
    SetGid,
    /// `setreuid(uid_t, uid_t) -> int` — set real and effective UIDs.
    SetReUid,
    /// `open(const char *path, int flags) -> int` — open a file.
    Open,
    /// `read(int fd, void *buf, size_t count) -> ssize_t`.
    Read,
    /// `write(int fd, const void *buf, size_t count) -> ssize_t`.
    Write,
    /// `close(int fd) -> int`.
    Close,
    /// `socket() -> int` — create a TCP socket.
    Socket,
    /// `bind(int fd, int port) -> int`.
    Bind,
    /// `listen(int fd) -> int`.
    Listen,
    /// `accept(int fd) -> int` — accept a pending connection.
    Accept,
    /// `recv(int fd, void *buf, size_t count) -> ssize_t`.
    Recv,
    /// `send(int fd, const void *buf, size_t count) -> ssize_t`.
    Send,
    /// `time() -> int` — seconds since simulation start.
    Time,
    /// `uid_value(uid_t) -> uid_t` — detection call: expose a UID value to
    /// the monitor and return it unchanged (Table 2).
    UidValue,
    /// `cond_chk(bool) -> bool` — detection call: check that a UID-dependent
    /// condition evaluated identically in all variants (Table 2).
    CondChk,
    /// `cc_eq(uid_t, uid_t) -> bool` — checked UID equality (Table 2).
    CcEq,
    /// `cc_neq(uid_t, uid_t) -> bool` — checked UID inequality (Table 2).
    CcNeq,
    /// `cc_lt(uid_t, uid_t) -> bool` — checked UID less-than (Table 2).
    CcLt,
    /// `cc_leq(uid_t, uid_t) -> bool` — checked UID less-or-equal (Table 2).
    CcLeq,
    /// `cc_gt(uid_t, uid_t) -> bool` — checked UID greater-than (Table 2).
    CcGt,
    /// `cc_geq(uid_t, uid_t) -> bool` — checked UID greater-or-equal (Table 2).
    CcGeq,
}

impl Sysno {
    /// All system calls, in numbering order.
    pub const ALL: &'static [Sysno] = &[
        Sysno::Exit,
        Sysno::GetUid,
        Sysno::GetEuid,
        Sysno::SetUid,
        Sysno::SetEuid,
        Sysno::GetGid,
        Sysno::SetGid,
        Sysno::SetReUid,
        Sysno::Open,
        Sysno::Read,
        Sysno::Write,
        Sysno::Close,
        Sysno::Socket,
        Sysno::Bind,
        Sysno::Listen,
        Sysno::Accept,
        Sysno::Recv,
        Sysno::Send,
        Sysno::Time,
        Sysno::UidValue,
        Sysno::CondChk,
        Sysno::CcEq,
        Sysno::CcNeq,
        Sysno::CcLt,
        Sysno::CcLeq,
        Sysno::CcGt,
        Sysno::CcGeq,
    ];

    /// Returns the numeric system-call number used in bytecode.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        match self {
            Sysno::Exit => 0,
            Sysno::GetUid => 1,
            Sysno::GetEuid => 2,
            Sysno::SetUid => 3,
            Sysno::SetEuid => 4,
            Sysno::GetGid => 5,
            Sysno::SetGid => 6,
            Sysno::SetReUid => 7,
            Sysno::Open => 8,
            Sysno::Read => 9,
            Sysno::Write => 10,
            Sysno::Close => 11,
            Sysno::Socket => 12,
            Sysno::Bind => 13,
            Sysno::Listen => 14,
            Sysno::Accept => 15,
            Sysno::Recv => 16,
            Sysno::Send => 17,
            Sysno::Time => 18,
            Sysno::UidValue => 32,
            Sysno::CondChk => 33,
            Sysno::CcEq => 34,
            Sysno::CcNeq => 35,
            Sysno::CcLt => 36,
            Sysno::CcLeq => 37,
            Sysno::CcGt => 38,
            Sysno::CcGeq => 39,
        }
    }

    /// Looks up a system call from its number.
    #[must_use]
    pub fn from_u32(n: u32) -> Option<Self> {
        Sysno::ALL.iter().copied().find(|s| s.as_u32() == n)
    }

    /// Returns the C-style name of the call (as it appears in SimC source).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sysno::Exit => "exit",
            Sysno::GetUid => "getuid",
            Sysno::GetEuid => "geteuid",
            Sysno::SetUid => "setuid",
            Sysno::SetEuid => "seteuid",
            Sysno::GetGid => "getgid",
            Sysno::SetGid => "setgid",
            Sysno::SetReUid => "setreuid",
            Sysno::Open => "open",
            Sysno::Read => "read",
            Sysno::Write => "write",
            Sysno::Close => "close",
            Sysno::Socket => "socket",
            Sysno::Bind => "bind",
            Sysno::Listen => "listen",
            Sysno::Accept => "accept",
            Sysno::Recv => "recv",
            Sysno::Send => "send",
            Sysno::Time => "time",
            Sysno::UidValue => "uid_value",
            Sysno::CondChk => "cond_chk",
            Sysno::CcEq => "cc_eq",
            Sysno::CcNeq => "cc_neq",
            Sysno::CcLt => "cc_lt",
            Sysno::CcLeq => "cc_leq",
            Sysno::CcGt => "cc_gt",
            Sysno::CcGeq => "cc_geq",
        }
    }

    /// Looks up a system call by its SimC name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Sysno::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// The number of arguments the call takes.
    #[must_use]
    pub fn arg_count(self) -> usize {
        match self {
            Sysno::GetUid | Sysno::GetEuid | Sysno::GetGid | Sysno::Socket | Sysno::Time => 0,
            Sysno::Exit
            | Sysno::SetUid
            | Sysno::SetEuid
            | Sysno::SetGid
            | Sysno::Close
            | Sysno::Listen
            | Sysno::Accept
            | Sysno::UidValue
            | Sysno::CondChk => 1,
            Sysno::SetReUid
            | Sysno::Open
            | Sysno::Bind
            | Sysno::CcEq
            | Sysno::CcNeq
            | Sysno::CcLt
            | Sysno::CcLeq
            | Sysno::CcGt
            | Sysno::CcGeq => 2,
            Sysno::Read | Sysno::Write | Sysno::Recv | Sysno::Send => 3,
        }
    }

    /// Argument positions (0-based) that carry UID/GID values and therefore
    /// must be run through the inverse reexpression function before the
    /// monitor compares them or passes them to the kernel.
    #[must_use]
    pub fn uid_arg_positions(self) -> &'static [usize] {
        match self {
            Sysno::SetUid | Sysno::SetEuid | Sysno::SetGid | Sysno::UidValue => &[0],
            Sysno::SetReUid
            | Sysno::CcEq
            | Sysno::CcNeq
            | Sysno::CcLt
            | Sysno::CcLeq
            | Sysno::CcGt
            | Sysno::CcGeq => &[0, 1],
            _ => &[],
        }
    }

    /// Returns `true` if the call's return value is a UID/GID that must be
    /// re-expressed per variant before being handed back to the program.
    #[must_use]
    pub fn returns_uid(self) -> bool {
        matches!(
            self,
            Sysno::GetUid | Sysno::GetEuid | Sysno::GetGid | Sysno::UidValue
        )
    }

    /// Returns `true` if this is one of the detection calls added by the
    /// paper (Table 2) rather than a pre-existing kernel interface.
    #[must_use]
    pub fn is_detection_call(self) -> bool {
        matches!(
            self,
            Sysno::UidValue
                | Sysno::CondChk
                | Sysno::CcEq
                | Sysno::CcNeq
                | Sysno::CcLt
                | Sysno::CcLeq
                | Sysno::CcGt
                | Sysno::CcGeq
        )
    }

    /// Returns `true` if the call reads data into the process (its result
    /// must be replicated to all variants).
    #[must_use]
    pub fn is_input(self) -> bool {
        matches!(
            self,
            Sysno::Read | Sysno::Recv | Sysno::Accept | Sysno::Time | Sysno::Open
        )
    }

    /// Returns `true` if the call emits data out of the process (the monitor
    /// must check all variants attempt equivalent output and perform it
    /// exactly once).
    #[must_use]
    pub fn is_output(self) -> bool {
        matches!(self, Sysno::Write | Sysno::Send)
    }

    /// Argument positions that are pointers into process memory (and thus
    /// must be canonicalized under address-space partitioning and must have
    /// their *pointed-to contents* compared rather than the raw pointer).
    #[must_use]
    pub fn pointer_arg_positions(self) -> &'static [usize] {
        match self {
            Sysno::Open => &[0],
            Sysno::Read | Sysno::Write | Sysno::Recv | Sysno::Send => &[1],
            _ => &[],
        }
    }
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A raw system-call request as trapped from a variant process: the call
/// number plus its untyped word arguments.
///
/// # Example
///
/// ```
/// use nvariant_simos::{SyscallRequest, Sysno};
/// use nvariant_types::Word;
///
/// let req = SyscallRequest::new(Sysno::SetUid, vec![Word::from_u32(48)]);
/// assert_eq!(req.sysno, Sysno::SetUid);
/// assert_eq!(req.args.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallRequest {
    /// Which call was made.
    pub sysno: Sysno,
    /// The raw word arguments, in order.
    pub args: Vec<Word>,
}

impl SyscallRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(sysno: Sysno, args: Vec<Word>) -> Self {
        SyscallRequest { sysno, args }
    }

    /// Returns argument `i`, or zero if the caller supplied too few
    /// arguments (matching the forgiving behaviour of real syscall ABIs).
    #[must_use]
    pub fn arg(&self, i: usize) -> Word {
        self.args.get(i).copied().unwrap_or(Word::ZERO)
    }
}

impl fmt::Display for SyscallRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.sysno)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:#x}", a)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_round_trips() {
        for &s in Sysno::ALL {
            assert_eq!(Sysno::from_u32(s.as_u32()), Some(s));
            assert_eq!(Sysno::from_name(s.name()), Some(s));
        }
        assert_eq!(Sysno::from_u32(999), None);
        assert_eq!(Sysno::from_name("fork"), None);
    }

    #[test]
    fn numbers_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &s in Sysno::ALL {
            assert!(seen.insert(s.as_u32()), "duplicate number for {s}");
        }
    }

    #[test]
    fn table2_detection_calls_are_classified() {
        for s in [
            Sysno::UidValue,
            Sysno::CondChk,
            Sysno::CcEq,
            Sysno::CcNeq,
            Sysno::CcLt,
            Sysno::CcLeq,
            Sysno::CcGt,
            Sysno::CcGeq,
        ] {
            assert!(s.is_detection_call(), "{s} should be a detection call");
        }
        assert!(!Sysno::SetUid.is_detection_call());
    }

    #[test]
    fn uid_argument_positions() {
        assert_eq!(Sysno::SetUid.uid_arg_positions(), &[0]);
        assert_eq!(Sysno::SetReUid.uid_arg_positions(), &[0, 1]);
        assert_eq!(Sysno::CcGeq.uid_arg_positions(), &[0, 1]);
        assert!(Sysno::Write.uid_arg_positions().is_empty());
    }

    #[test]
    fn uid_returning_calls() {
        assert!(Sysno::GetUid.returns_uid());
        assert!(Sysno::GetEuid.returns_uid());
        assert!(Sysno::UidValue.returns_uid());
        assert!(!Sysno::SetUid.returns_uid());
        assert!(!Sysno::CcEq.returns_uid());
    }

    #[test]
    fn io_classification() {
        assert!(Sysno::Read.is_input());
        assert!(Sysno::Recv.is_input());
        assert!(Sysno::Write.is_output());
        assert!(Sysno::Send.is_output());
        assert!(!Sysno::SetUid.is_input());
        assert!(!Sysno::SetUid.is_output());
    }

    #[test]
    fn pointer_argument_positions() {
        assert_eq!(Sysno::Open.pointer_arg_positions(), &[0]);
        assert_eq!(Sysno::Write.pointer_arg_positions(), &[1]);
        assert!(Sysno::SetUid.pointer_arg_positions().is_empty());
    }

    #[test]
    fn arg_counts_match_signatures() {
        assert_eq!(Sysno::GetUid.arg_count(), 0);
        assert_eq!(Sysno::SetUid.arg_count(), 1);
        assert_eq!(Sysno::Open.arg_count(), 2);
        assert_eq!(Sysno::Read.arg_count(), 3);
        assert_eq!(Sysno::CcEq.arg_count(), 2);
        assert_eq!(Sysno::CondChk.arg_count(), 1);
    }

    #[test]
    fn request_accessors_and_display() {
        let req = SyscallRequest::new(
            Sysno::Read,
            vec![
                Word::from_u32(3),
                Word::from_u32(0x1000),
                Word::from_u32(64),
            ],
        );
        assert_eq!(req.arg(0).as_u32(), 3);
        assert_eq!(req.arg(5), Word::ZERO);
        let text = format!("{req}");
        assert!(text.starts_with("read("));
        assert!(text.contains("0x1000"));
    }
}
