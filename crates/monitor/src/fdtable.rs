//! The slot-synchronized virtual descriptor table.
//!
//! The paper (§3.4) keeps one file table per variant with corresponding
//! slots: the n-th slot of P0's table refers to the same logical file as the
//! n-th slot of P1's. Shared files occupy one kernel descriptor; unshared
//! files occupy one kernel descriptor *per variant* (each backed by that
//! variant's copy of the file). Variants only ever see the virtual slot
//! number.

use nvariant_types::{Errno, Fd, Fnv1a};

/// A virtual descriptor as seen by the variants.
pub type VirtualFd = u32;

/// What one virtual descriptor slot refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfdEntry {
    /// A shared kernel object: one kernel descriptor, I/O performed once.
    Shared(Fd),
    /// An unshared file: one kernel descriptor per variant.
    Unshared(Vec<Fd>),
}

/// The monitor's virtual descriptor table.
///
/// # Example
///
/// ```
/// use nvariant_monitor::VirtualFdTable;
/// use nvariant_types::Fd;
///
/// let mut table = VirtualFdTable::new(2);
/// let shared = table.insert_shared(Fd::new(7));
/// let unshared = table.insert_unshared(vec![Fd::new(8), Fd::new(9)]);
/// assert_ne!(shared, unshared);
/// assert_eq!(table.shared_fd(shared), Ok(Fd::new(7)));
/// assert_eq!(table.fd_for_variant(unshared, 1), Ok(Fd::new(9)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualFdTable {
    variants: usize,
    slots: Vec<Option<VfdEntry>>,
}

/// The first virtual descriptor handed out (0–2 are reserved so they line up
/// with the conventional stdin/stdout/stderr numbers inside the variants).
const FIRST_VFD: usize = 3;

impl VirtualFdTable {
    /// Creates a table for `variants` variants.
    #[must_use]
    pub fn new(variants: usize) -> Self {
        VirtualFdTable {
            variants,
            slots: vec![None; FIRST_VFD],
        }
    }

    fn allocate(&mut self, entry: VfdEntry) -> VirtualFd {
        for (index, slot) in self.slots.iter_mut().enumerate().skip(FIRST_VFD) {
            if slot.is_none() {
                *slot = Some(entry);
                return index as VirtualFd;
            }
        }
        self.slots.push(Some(entry));
        (self.slots.len() - 1) as VirtualFd
    }

    /// Inserts a shared kernel descriptor, returning its virtual number.
    pub fn insert_shared(&mut self, fd: Fd) -> VirtualFd {
        self.allocate(VfdEntry::Shared(fd))
    }

    /// Inserts an unshared per-variant descriptor set (one kernel descriptor
    /// per variant, in variant order), returning its virtual number.
    ///
    /// # Panics
    ///
    /// Panics if the number of descriptors does not equal the number of
    /// variants — the table's slot-synchronization invariant.
    pub fn insert_unshared(&mut self, fds: Vec<Fd>) -> VirtualFd {
        assert_eq!(
            fds.len(),
            self.variants,
            "unshared descriptor sets must have one descriptor per variant"
        );
        self.allocate(VfdEntry::Unshared(fds))
    }

    /// Looks up a slot.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] for reserved, unallocated or closed slots.
    pub fn entry(&self, vfd: VirtualFd) -> Result<&VfdEntry, Errno> {
        self.slots
            .get(vfd as usize)
            .and_then(Option::as_ref)
            .ok_or(Errno::Ebadf)
    }

    /// Returns `true` if the slot refers to an unshared file.
    #[must_use]
    pub fn is_unshared(&self, vfd: VirtualFd) -> bool {
        matches!(self.entry(vfd), Ok(VfdEntry::Unshared(_)))
    }

    /// The single kernel descriptor behind a shared slot.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the slot is not a shared descriptor.
    pub fn shared_fd(&self, vfd: VirtualFd) -> Result<Fd, Errno> {
        match self.entry(vfd)? {
            VfdEntry::Shared(fd) => Ok(*fd),
            VfdEntry::Unshared(_) => Err(Errno::Ebadf),
        }
    }

    /// The kernel descriptor a particular variant should use for a slot
    /// (identical for all variants when the slot is shared).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] for invalid slots or variant indices.
    pub fn fd_for_variant(&self, vfd: VirtualFd, variant: usize) -> Result<Fd, Errno> {
        match self.entry(vfd)? {
            VfdEntry::Shared(fd) => Ok(*fd),
            VfdEntry::Unshared(fds) => fds.get(variant).copied().ok_or(Errno::Ebadf),
        }
    }

    /// Closes a slot, returning the kernel descriptors that must be closed.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the slot is not open.
    pub fn close(&mut self, vfd: VirtualFd) -> Result<Vec<Fd>, Errno> {
        let slot = self
            .slots
            .get_mut(vfd as usize)
            .ok_or(Errno::Ebadf)?
            .take()
            .ok_or(Errno::Ebadf)?;
        Ok(match slot {
            VfdEntry::Shared(fd) => vec![fd],
            VfdEntry::Unshared(fds) => fds,
        })
    }

    /// Number of currently open virtual descriptors.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Folds the table's full state into `digest` (used by the model
    /// checker's visited-state pruning).
    pub fn digest_into(&self, digest: &mut Fnv1a) {
        digest.write_usize(self.variants);
        digest.write_usize(self.slots.len());
        for slot in &self.slots {
            match slot {
                None => digest.write_u8(0),
                Some(VfdEntry::Shared(fd)) => {
                    digest.write_u8(1);
                    digest.write_u32(fd.as_u32());
                }
                Some(VfdEntry::Unshared(fds)) => {
                    digest.write_u8(2);
                    digest.write_usize(fds.len());
                    for fd in fds {
                        digest.write_u32(fd.as_u32());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_start_after_standard_descriptors() {
        let mut table = VirtualFdTable::new(2);
        assert_eq!(table.insert_shared(Fd::new(10)), 3);
        assert_eq!(table.insert_shared(Fd::new(11)), 4);
        assert_eq!(table.entry(0), Err(Errno::Ebadf));
        assert_eq!(table.entry(99), Err(Errno::Ebadf));
    }

    #[test]
    fn shared_and_unshared_lookup() {
        let mut table = VirtualFdTable::new(2);
        let shared = table.insert_shared(Fd::new(5));
        let unshared = table.insert_unshared(vec![Fd::new(6), Fd::new(7)]);
        assert!(!table.is_unshared(shared));
        assert!(table.is_unshared(unshared));
        assert_eq!(table.fd_for_variant(shared, 0), Ok(Fd::new(5)));
        assert_eq!(table.fd_for_variant(shared, 1), Ok(Fd::new(5)));
        assert_eq!(table.fd_for_variant(unshared, 0), Ok(Fd::new(6)));
        assert_eq!(table.fd_for_variant(unshared, 1), Ok(Fd::new(7)));
        assert_eq!(table.fd_for_variant(unshared, 2), Err(Errno::Ebadf));
        assert_eq!(table.shared_fd(unshared), Err(Errno::Ebadf));
    }

    #[test]
    fn close_frees_and_returns_descriptors() {
        let mut table = VirtualFdTable::new(2);
        let shared = table.insert_shared(Fd::new(5));
        let unshared = table.insert_unshared(vec![Fd::new(6), Fd::new(7)]);
        assert_eq!(table.open_count(), 2);
        assert_eq!(table.close(unshared).unwrap(), vec![Fd::new(6), Fd::new(7)]);
        assert_eq!(table.close(unshared), Err(Errno::Ebadf));
        assert_eq!(table.open_count(), 1);
        // Freed slots are reused.
        assert_eq!(table.insert_shared(Fd::new(9)), unshared);
        let _ = shared;
    }

    #[test]
    #[should_panic(expected = "one descriptor per variant")]
    fn unshared_sets_must_match_variant_count() {
        let mut table = VirtualFdTable::new(3);
        table.insert_unshared(vec![Fd::new(1)]);
    }
}
