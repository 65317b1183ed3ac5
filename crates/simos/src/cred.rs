//! Process credentials and the POSIX privilege-change rules.
//!
//! The UID data variation exists to protect exactly the values stored here:
//! a server that calls `setuid`/`seteuid` with a corrupted UID keeps (or
//! regains) root privileges, which is the non-control-data attack of
//! Chen et al. that the paper's case study defends against.

use nvariant_types::{Errno, Gid, Uid};

/// The real, effective and saved user and group identifiers of a process.
///
/// The transition rules implemented by [`Credentials::setuid`],
/// [`Credentials::seteuid`] and friends follow the POSIX/Linux model the
/// paper's Apache case study relies on:
///
/// * a process whose *effective* UID is root may change its IDs arbitrarily;
/// * an unprivileged process may only switch between its real, effective and
///   saved IDs.
///
/// # Example
///
/// ```
/// use nvariant_simos::Credentials;
/// use nvariant_types::Uid;
///
/// let mut cred = Credentials::root();
/// // Apache-style privilege drop: from root down to the configured user.
/// cred.setuid(Uid::new(48)).unwrap();
/// assert_eq!(cred.euid(), Uid::new(48));
/// // A full setuid() as root clears the saved UID, so re-escalation fails.
/// assert!(cred.seteuid(Uid::ROOT).is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Credentials {
    ruid: Uid,
    euid: Uid,
    suid: Uid,
    rgid: Gid,
    egid: Gid,
    sgid: Gid,
}

impl Credentials {
    /// Creates credentials for a process running as root.
    #[must_use]
    pub fn root() -> Self {
        Credentials::new(Uid::ROOT, Gid::ROOT)
    }

    /// Creates credentials with all three UIDs (and GIDs) set to the given
    /// identities.
    #[must_use]
    pub fn new(uid: Uid, gid: Gid) -> Self {
        Credentials {
            ruid: uid,
            euid: uid,
            suid: uid,
            rgid: gid,
            egid: gid,
            sgid: gid,
        }
    }

    /// The real user ID.
    #[must_use]
    pub fn ruid(&self) -> Uid {
        self.ruid
    }

    /// The effective user ID (the one used for permission checks).
    #[must_use]
    pub fn euid(&self) -> Uid {
        self.euid
    }

    /// The saved user ID.
    #[must_use]
    pub fn suid(&self) -> Uid {
        self.suid
    }

    /// The real group ID.
    #[must_use]
    pub fn rgid(&self) -> Gid {
        self.rgid
    }

    /// The effective group ID.
    #[must_use]
    pub fn egid(&self) -> Gid {
        self.egid
    }

    /// The saved group ID.
    #[must_use]
    pub fn sgid(&self) -> Gid {
        self.sgid
    }

    /// Returns `true` if the process currently has superuser privileges.
    #[must_use]
    pub fn is_privileged(&self) -> bool {
        self.euid.is_root()
    }

    /// POSIX `setuid(2)`.
    ///
    /// If the effective UID is root, all three UIDs are set to `uid`
    /// (an irreversible privilege drop). Otherwise the call succeeds only if
    /// `uid` equals the real or saved UID, and sets just the effective UID.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Eperm`] if the process is unprivileged and `uid` is
    /// neither its real nor its saved UID.
    pub fn setuid(&mut self, uid: Uid) -> Result<(), Errno> {
        if self.euid.is_root() {
            self.ruid = uid;
            self.euid = uid;
            self.suid = uid;
            Ok(())
        } else if uid == self.ruid || uid == self.suid {
            self.euid = uid;
            Ok(())
        } else {
            Err(Errno::Eperm)
        }
    }

    /// POSIX `seteuid(2)`.
    ///
    /// A privileged process may set the effective UID to any value; an
    /// unprivileged process only to its real or saved UID. Unlike
    /// [`Credentials::setuid`], the saved UID is left unchanged, which is
    /// what allows servers to toggle privileges back and forth — and what
    /// makes a corrupted cached UID so valuable to an attacker.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Eperm`] if the process is unprivileged and `uid` is
    /// neither its real nor its saved UID.
    pub fn seteuid(&mut self, uid: Uid) -> Result<(), Errno> {
        if self.euid.is_root() || uid == self.ruid || uid == self.suid {
            self.euid = uid;
            Ok(())
        } else {
            Err(Errno::Eperm)
        }
    }

    /// POSIX `setreuid(2)` with `-1` (represented as `None`) meaning "leave
    /// unchanged".
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Eperm`] if the process is unprivileged and either
    /// requested ID is not one of its current real/effective/saved UIDs.
    pub fn setreuid(&mut self, ruid: Option<Uid>, euid: Option<Uid>) -> Result<(), Errno> {
        let privileged = self.euid.is_root();
        if let Some(r) = ruid {
            if !privileged && r != self.ruid && r != self.euid {
                return Err(Errno::Eperm);
            }
        }
        if let Some(e) = euid {
            if !privileged && e != self.ruid && e != self.euid && e != self.suid {
                return Err(Errno::Eperm);
            }
        }
        if let Some(r) = ruid {
            self.ruid = r;
        }
        if let Some(e) = euid {
            self.euid = e;
            // Linux: if the real UID is set or the effective UID differs from
            // the (new) real UID, the saved UID is set to the effective UID.
            if ruid.is_some() || e != self.ruid {
                self.suid = e;
            }
        }
        Ok(())
    }

    /// POSIX `setgid(2)`, mirroring [`Credentials::setuid`] for groups.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Eperm`] if the process is unprivileged and `gid` is
    /// neither its real nor its saved GID.
    pub fn setgid(&mut self, gid: Gid) -> Result<(), Errno> {
        if self.euid.is_root() {
            self.rgid = gid;
            self.egid = gid;
            self.sgid = gid;
            Ok(())
        } else if gid == self.rgid || gid == self.sgid {
            self.egid = gid;
            Ok(())
        } else {
            Err(Errno::Eperm)
        }
    }
}

impl Default for Credentials {
    fn default() -> Self {
        Credentials::root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_full_drop_is_irreversible() {
        let mut cred = Credentials::root();
        cred.setuid(Uid::new(48)).unwrap();
        assert_eq!(cred.ruid(), Uid::new(48));
        assert_eq!(cred.euid(), Uid::new(48));
        assert_eq!(cred.suid(), Uid::new(48));
        assert!(cred.setuid(Uid::ROOT).is_err());
        assert!(cred.seteuid(Uid::ROOT).is_err());
        assert!(!cred.is_privileged());
    }

    #[test]
    fn seteuid_toggle_keeps_saved_uid() {
        // The wu-ftpd / Apache pattern: temporarily drop the effective UID
        // but keep root in the saved UID so privileges can be regained.
        let mut cred = Credentials::root();
        cred.seteuid(Uid::new(48)).unwrap();
        assert_eq!(cred.euid(), Uid::new(48));
        assert_eq!(cred.suid(), Uid::ROOT);
        cred.seteuid(Uid::ROOT).unwrap();
        assert!(cred.is_privileged());
    }

    #[test]
    fn unprivileged_cannot_become_root() {
        let mut cred = Credentials::new(Uid::new(1000), Gid::new(100));
        assert_eq!(cred.setuid(Uid::ROOT), Err(Errno::Eperm));
        assert_eq!(cred.seteuid(Uid::ROOT), Err(Errno::Eperm));
        assert_eq!(cred.setgid(Gid::ROOT), Err(Errno::Eperm));
    }

    #[test]
    fn unprivileged_can_switch_between_own_ids() {
        let mut cred = Credentials::root();
        cred.seteuid(Uid::new(48)).unwrap();
        // Real=0? No: real is still 0 (root), saved is 0. euid is 48.
        assert_eq!(cred.ruid(), Uid::ROOT);
        // A process with euid 48 but ruid/suid 0 can return to root.
        cred.seteuid(Uid::ROOT).unwrap();
        assert!(cred.is_privileged());
    }

    #[test]
    fn setreuid_none_leaves_unchanged() {
        let mut cred = Credentials::new(Uid::new(1000), Gid::new(100));
        cred.setreuid(None, None).unwrap();
        assert_eq!(cred.ruid(), Uid::new(1000));
        assert_eq!(cred.euid(), Uid::new(1000));
    }

    #[test]
    fn setreuid_privileged_swaps_ids() {
        let mut cred = Credentials::root();
        cred.setreuid(Some(Uid::new(48)), Some(Uid::new(48)))
            .unwrap();
        assert_eq!(cred.ruid(), Uid::new(48));
        assert_eq!(cred.euid(), Uid::new(48));
        assert_eq!(cred.suid(), Uid::new(48));
    }

    #[test]
    fn setreuid_unprivileged_rejects_foreign_ids() {
        let mut cred = Credentials::new(Uid::new(1000), Gid::new(100));
        assert_eq!(cred.setreuid(Some(Uid::ROOT), None), Err(Errno::Eperm));
        assert_eq!(cred.setreuid(None, Some(Uid::new(48))), Err(Errno::Eperm));
    }

    #[test]
    fn group_transitions() {
        let mut cred = Credentials::root();
        cred.setgid(Gid::new(48)).unwrap();
        assert_eq!(cred.egid(), Gid::new(48));
        assert_eq!(cred.sgid(), Gid::new(48));
    }

    #[test]
    fn default_is_root() {
        assert!(Credentials::default().is_privileged());
    }
}
