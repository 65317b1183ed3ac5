//! An in-memory filesystem with Unix-style ownership and permission bits.
//!
//! The filesystem is the *target interpreter* for the path-based part of the
//! case study: whether an attacker who has corrupted the server's cached UID
//! actually gains anything is decided here, when `open("/etc/shadow")` is
//! checked against the effective UID of the calling process.
//!
//! File contents are copy-on-write and carry a memoised word-fold digest
//! ([`FileData`]): a state digest folds each file as its length and that
//! digest, so the model checker rehashes a file's bytes only after a write.
//!
//! The file table itself is shared copy-on-write the same way, like the
//! account database ([`PasswdDb`](crate::PasswdDb)): a clone bumps a
//! reference count, and the first write to a shared table (creating,
//! removing or opening a file for writing, or changing a read fault)
//! copies its directory map once. The fold of the whole table is computed
//! once per write generation and shared by every clone that has not
//! written since, so a state digest folds the file system as one `u64`.
//!
//! Lookups take paths as the program wrote them. A path that is already
//! normal (the paths the table stores and descriptors hold) is looked up
//! as it is; only a path with `.`, `..` or empty components is resolved
//! into a new string first.

use crate::cred::Credentials;
use nvariant_types::fnv::word_fold;
use nvariant_types::{Errno, Fnv1a, Gid, Uid};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Unix-style permission bits (lower 9 bits of the classic mode word).
///
/// # Example
///
/// ```
/// use nvariant_simos::FileMode;
///
/// let mode = FileMode::new(0o640);
/// assert!(mode.allows_owner_read());
/// assert!(!mode.allows_other_read());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileMode(u16);

impl FileMode {
    /// World-readable file, owner-writable (`0644`).
    pub const PUBLIC: FileMode = FileMode(0o644);
    /// Owner-only file (`0600`), e.g. `/etc/shadow`.
    pub const PRIVATE: FileMode = FileMode(0o600);

    /// Creates a mode from the classic octal representation.
    #[must_use]
    pub const fn new(bits: u16) -> Self {
        FileMode(bits & 0o777)
    }

    /// Returns the raw permission bits.
    #[must_use]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Owner read permission.
    #[must_use]
    pub const fn allows_owner_read(self) -> bool {
        self.0 & 0o400 != 0
    }

    /// Owner write permission.
    #[must_use]
    pub const fn allows_owner_write(self) -> bool {
        self.0 & 0o200 != 0
    }

    /// Group read permission.
    #[must_use]
    pub const fn allows_group_read(self) -> bool {
        self.0 & 0o040 != 0
    }

    /// Group write permission.
    #[must_use]
    pub const fn allows_group_write(self) -> bool {
        self.0 & 0o020 != 0
    }

    /// Other (world) read permission.
    #[must_use]
    pub const fn allows_other_read(self) -> bool {
        self.0 & 0o004 != 0
    }

    /// Other (world) write permission.
    #[must_use]
    pub const fn allows_other_write(self) -> bool {
        self.0 & 0o002 != 0
    }
}

impl fmt::Debug for FileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FileMode({:#o})", self.0)
    }
}

impl fmt::Display for FileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03o}", self.0)
    }
}

impl Default for FileMode {
    fn default() -> Self {
        FileMode::PUBLIC
    }
}

/// The kind of access being requested on a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// Flags passed to `open(2)` in the simulated kernel.
///
/// # Example
///
/// ```
/// use nvariant_simos::OpenFlags;
///
/// assert!(OpenFlags::RDONLY.wants_read());
/// assert!(OpenFlags::WRONLY.wants_write());
/// assert!(OpenFlags::RDWR.wants_read() && OpenFlags::RDWR.wants_write());
/// assert!(OpenFlags::from_bits(OpenFlags::WRONLY.bits() | OpenFlags::CREAT.bits()).creates());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Open for reading only.
    pub const RDONLY: OpenFlags = OpenFlags(0);
    /// Open for writing only.
    pub const WRONLY: OpenFlags = OpenFlags(1);
    /// Open for reading and writing.
    pub const RDWR: OpenFlags = OpenFlags(2);
    /// Create the file if it does not exist.
    pub const CREAT: OpenFlags = OpenFlags(0o100);
    /// Append on each write.
    pub const APPEND: OpenFlags = OpenFlags(0o2000);
    /// Truncate to zero length on open.
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);

    /// Reconstructs flags from their numeric representation (as passed
    /// through a syscall argument register).
    #[must_use]
    pub const fn from_bits(bits: u32) -> Self {
        OpenFlags(bits)
    }

    /// Returns the numeric representation.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns `true` if the access mode includes reading.
    #[must_use]
    pub const fn wants_read(self) -> bool {
        matches!(self.0 & 0o3, 0 | 2)
    }

    /// Returns `true` if the access mode includes writing.
    #[must_use]
    pub const fn wants_write(self) -> bool {
        let mode = self.0 & 0o3;
        mode == 1 || mode == 2
    }

    /// Returns `true` if `O_CREAT` is set.
    #[must_use]
    pub const fn creates(self) -> bool {
        self.0 & 0o100 != 0
    }

    /// Returns `true` if `O_APPEND` is set.
    #[must_use]
    pub const fn appends(self) -> bool {
        self.0 & 0o2000 != 0
    }

    /// Returns `true` if `O_TRUNC` is set.
    #[must_use]
    pub const fn truncates(self) -> bool {
        self.0 & 0o1000 != 0
    }

    /// Combines two flag sets.
    #[must_use]
    pub const fn union(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }
}

impl fmt::Debug for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpenFlags({:#o})", self.0)
    }
}

/// Copy-on-write file contents, with a memoised content digest.
///
/// Campaign cells each clone a provisioned world template, and most cells
/// never write most files. Backing the bytes with an [`Arc`] makes
/// `FileSystem::clone` copy only the directory map; the first write to a
/// still-shared file copies its bytes once (via [`Arc::make_mut`]) and
/// later writes mutate that private buffer in place.
///
/// The word fold of the bytes ([`FileData::content_digest`]) is
/// computed on first use and kept inside the same [`Arc`], so every clone
/// that has not written shares it: the model checker folds a file into a
/// state digest at the cost of one `u64`, not of its bytes. [`FileData::clear`]
/// and [`FileData::write_at`] reset it on the copy they write.
///
/// Equality, ordering into digests, and indexing all go through
/// [`Deref`]`<Target = [u8]>`, so the type behaves like the `Vec<u8>` it
/// replaced everywhere except mutation, which is funneled through
/// [`FileData::clear`] and [`FileData::write_at`].
#[derive(Clone, Default)]
pub struct FileData(Arc<FileBytes>);

#[derive(Clone, Default)]
struct FileBytes {
    bytes: Vec<u8>,
    /// `word_fold(&bytes)`, once something has asked for it.
    digest: OnceLock<u64>,
}

impl FileData {
    /// Wraps a byte buffer as file contents.
    #[must_use]
    pub fn new(bytes: Vec<u8>) -> Self {
        FileData(Arc::new(FileBytes {
            bytes,
            digest: OnceLock::new(),
        }))
    }

    /// Copies the contents out into an owned buffer.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.bytes.clone()
    }

    /// The word fold of the contents ([`nvariant_types::fnv`]), computed
    /// once per write generation and shared by every clone that has not
    /// written since.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| word_fold(&self.0.bytes))
    }

    /// The contents for writing: detached from any sharing clones, with
    /// the memoised digest reset.
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        let data = Arc::make_mut(&mut self.0);
        data.digest = OnceLock::new();
        &mut data.bytes
    }

    /// Truncates the file to zero length (`O_TRUNC`), detaching from any
    /// sharing clones first.
    pub fn clear(&mut self) {
        self.bytes_mut().clear();
    }

    /// Writes `bytes` at byte offset `pos`, zero-filling any gap and
    /// growing the file as needed. Detaches from sharing clones first.
    pub fn write_at(&mut self, pos: usize, bytes: &[u8]) {
        let buf = self.bytes_mut();
        if buf.len() < pos + bytes.len() {
            buf.resize(pos + bytes.len(), 0);
        }
        buf[pos..pos + bytes.len()].copy_from_slice(bytes);
    }

    /// Returns `true` while the backing buffer is still shared with at
    /// least one other clone (i.e. no write has detached it yet).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl Deref for FileData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

// Debug output and equality see only the bytes: the memo is a cache, and
// whether it has been filled yet is not part of a file's state.
impl fmt::Debug for FileData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FileData").field(&self.0.bytes).finish()
    }
}

impl PartialEq for FileData {
    fn eq(&self, other: &FileData) -> bool {
        **self == **other
    }
}

impl Eq for FileData {}

impl From<Vec<u8>> for FileData {
    fn from(bytes: Vec<u8>) -> Self {
        FileData::new(bytes)
    }
}

impl PartialEq<[u8]> for FileData {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for FileData {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FileData {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FileData {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == **other
    }
}

/// A regular file in the simulated filesystem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inode {
    /// The file contents.
    pub data: FileData,
    /// Owning user.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Permission bits.
    pub mode: FileMode,
}

impl Inode {
    /// Creates a new inode owned by root with public permissions.
    #[must_use]
    pub fn new(data: Vec<u8>) -> Self {
        Inode {
            data: data.into(),
            owner: Uid::ROOT,
            group: Gid::ROOT,
            mode: FileMode::PUBLIC,
        }
    }

    /// Size of the file in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the file is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A flat, in-memory filesystem keyed by absolute path, shared
/// copy-on-write with a memoised digest (see the module docs).
///
/// Directories are implicit: any `/`-separated prefix of an existing path is
/// considered a directory. Paths are normalized before lookup so that the
/// classic `..` traversal in URL paths behaves like it would on a real
/// system (the case-study attack intentionally abuses this).
///
/// # Example
///
/// ```
/// use nvariant_simos::{AccessMode, Credentials, FileMode, FileSystem};
/// use nvariant_types::{Gid, Uid};
///
/// let mut fs = FileSystem::new();
/// fs.create_with("/etc/shadow", b"root:x:...".to_vec(), Uid::ROOT, Gid::ROOT, FileMode::PRIVATE);
///
/// let www = Credentials::new(Uid::new(48), Gid::new(48));
/// assert!(fs.check_access("/etc/shadow", &www, AccessMode::Read).is_err());
/// let root = Credentials::root();
/// assert!(fs.check_access("/etc/shadow", &root, AccessMode::Read).is_ok());
/// ```
#[derive(Clone, Default)]
pub struct FileSystem(Arc<FileTable>);

#[derive(Clone, Default)]
struct FileTable {
    files: BTreeMap<String, Inode>,
    /// Paths whose reads deterministically fail with `EIO` — the
    /// fault-injection hook behind the `faulty-fs` world template.
    read_faults: BTreeSet<String>,
    /// The fold of `files` and `read_faults`, once something has asked for
    /// it.
    digest: OnceLock<u64>,
}

impl FileSystem {
    /// Creates an empty filesystem.
    #[must_use]
    pub fn new() -> Self {
        FileSystem::default()
    }

    /// Normalizes a path: collapses `//`, resolves `.` and `..` components,
    /// and ensures a leading slash.
    #[must_use]
    pub fn normalize(path: &str) -> String {
        normal(path).into_owned()
    }

    /// The table for writing: detached from any sharing clones, with the
    /// memoised digest reset.
    fn table_mut(&mut self) -> &mut FileTable {
        let table = Arc::make_mut(&mut self.0);
        table.digest = OnceLock::new();
        table
    }

    /// Creates (or replaces) a file owned by root with public permissions.
    pub fn create(&mut self, path: &str, data: Vec<u8>) {
        self.table_mut()
            .files
            .insert(Self::normalize(path), Inode::new(data));
    }

    /// Creates (or replaces) a file with explicit ownership and mode.
    pub fn create_with(
        &mut self,
        path: &str,
        data: Vec<u8>,
        owner: Uid,
        group: Gid,
        mode: FileMode,
    ) {
        self.table_mut().files.insert(
            Self::normalize(path),
            Inode {
                data: data.into(),
                owner,
                group,
                mode,
            },
        );
    }

    /// Removes a file. Returns the removed inode if it existed.
    pub fn remove(&mut self, path: &str) -> Option<Inode> {
        self.table_mut().files.remove(&*normal(path))
    }

    /// Returns `true` if a file exists at `path`.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.0.files.contains_key(&*normal(path))
    }

    /// Looks up a file.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Inode> {
        self.0.files.get(&*normal(path))
    }

    /// Looks up a file mutably, detaching the table from any sharing clones.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Inode> {
        self.table_mut().files.get_mut(&*normal(path))
    }

    /// Iterates over all `(path, inode)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Inode)> {
        self.0.files.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of files in the filesystem.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.files.len()
    }

    /// Returns `true` if the filesystem contains no files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.files.is_empty()
    }

    /// Checks whether the process described by `cred` may access `path` with
    /// the requested mode, using standard owner/group/other semantics with a
    /// root override.
    ///
    /// # Errors
    ///
    /// * [`Errno::Enoent`] if the file does not exist.
    /// * [`Errno::Eacces`] if the permission bits deny the access.
    pub fn check_access(
        &self,
        path: &str,
        cred: &Credentials,
        mode: AccessMode,
    ) -> Result<(), Errno> {
        let inode = self.get(path).ok_or(Errno::Enoent)?;
        if cred.euid().is_root() {
            return Ok(());
        }
        let allowed = if cred.euid() == inode.owner {
            match mode {
                AccessMode::Read => inode.mode.allows_owner_read(),
                AccessMode::Write => inode.mode.allows_owner_write(),
            }
        } else if cred.egid() == inode.group {
            match mode {
                AccessMode::Read => inode.mode.allows_group_read(),
                AccessMode::Write => inode.mode.allows_group_write(),
            }
        } else {
            match mode {
                AccessMode::Read => inode.mode.allows_other_read(),
                AccessMode::Write => inode.mode.allows_other_write(),
            }
        };
        if allowed {
            Ok(())
        } else {
            Err(Errno::Eacces)
        }
    }

    /// Marks `path` as read-faulty: every subsequent attempt to open it for
    /// reading fails with [`Errno::Eio`], as if the file sat on a bad disk
    /// sector. The fault is part of the filesystem state, so it survives
    /// cloning into provisioned world templates and is fully deterministic.
    pub fn inject_read_fault(&mut self, path: &str) {
        self.table_mut().read_faults.insert(Self::normalize(path));
    }

    /// Clears a previously injected read fault. Returns `true` if one was
    /// present.
    pub fn clear_read_fault(&mut self, path: &str) -> bool {
        self.table_mut().read_faults.remove(&*normal(path))
    }

    /// Returns `true` if reads of `path` have been marked faulty.
    #[must_use]
    pub fn is_read_faulty(&self, path: &str) -> bool {
        self.0.read_faults.contains(&*normal(path))
    }

    /// The paths currently marked read-faulty, in path order.
    pub fn read_faulty_paths(&self) -> impl Iterator<Item = &str> {
        self.0.read_faults.iter().map(String::as_str)
    }

    /// Folds the complete filesystem state — every inode's path, contents,
    /// ownership and mode, plus the injected read faults — into `digest`
    /// as one `u64`, computed once per write generation and shared by every
    /// clone that has not written since. `BTreeMap`/`BTreeSet` iteration
    /// order makes the digest canonical: two equal filesystems always fold
    /// identically, which is what the model checker's visited-state pruning
    /// relies on. Contents fold as their length and memoised
    /// [`FileData::content_digest`], so equal files still fold equally (up
    /// to digest collisions, as for the whole state) while a file nothing
    /// wrote costs no rehash.
    pub fn digest_into(&self, digest: &mut Fnv1a) {
        let table = *self.0.digest.get_or_init(|| {
            let mut table = Fnv1a::new();
            table.write_usize(self.0.files.len());
            for (path, inode) in &self.0.files {
                table.write_str(path);
                table.write_usize(inode.data.len());
                table.write_u64(inode.data.content_digest());
                table.write_u32(inode.owner.as_u32());
                table.write_u32(inode.group.as_u32());
                table.write_u32(u32::from(inode.mode.bits()));
            }
            table.write_usize(self.0.read_faults.len());
            for path in &self.0.read_faults {
                table.write_str(path);
            }
            table.finish()
        });
        digest.write_u64(table);
    }
}

// Debug output sees only the files and read faults: the memo is a cache, and
// whether it has been filled yet is not part of the file system's state.
impl fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSystem")
            .field("files", &self.0.files)
            .field("read_faults", &self.0.read_faults)
            .finish()
    }
}

/// `path` normalized: borrowed when it is normal already, so a lookup by a
/// stored path allocates nothing.
fn normal(path: &str) -> Cow<'_, str> {
    if is_normal(path) {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(resolve_components(path))
    }
}

/// Whether [`resolve_components`] would return `path` unchanged: a leading
/// slash, and no empty, `.` or `..` component after it (so no `//` and no
/// trailing slash), or `/` alone.
fn is_normal(path: &str) -> bool {
    match path.strip_prefix('/') {
        Some("") => true,
        Some(rest) => rest
            .split('/')
            .all(|component| !matches!(component, "" | "." | "..")),
        None => false,
    }
}

/// Collapses `//`, resolves `.` and `..` components, and ensures a leading
/// slash.
fn resolve_components(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            other => parts.push(other),
        }
    }
    let mut out = String::from("/");
    out.push_str(&parts.join("/"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn www() -> Credentials {
        Credentials::new(Uid::new(48), Gid::new(48))
    }

    #[test]
    fn normalization() {
        assert_eq!(FileSystem::normalize("/a/b/c"), "/a/b/c");
        assert_eq!(FileSystem::normalize("a/b"), "/a/b");
        assert_eq!(FileSystem::normalize("/a//b/./c"), "/a/b/c");
        assert_eq!(FileSystem::normalize("/a/b/../c"), "/a/c");
        assert_eq!(
            FileSystem::normalize("/var/www/html/../../../etc/shadow"),
            "/etc/shadow"
        );
        assert_eq!(FileSystem::normalize("/../.."), "/");
        assert_eq!(FileSystem::normalize(""), "/");
    }

    #[test]
    fn normal_paths_are_borrowed_exactly_when_the_walk_keeps_them() {
        // Every path of up to 7 characters over `/`, `.` and `a`.
        let mut paths = vec![String::new()];
        let mut checked = 0;
        while let Some(path) = paths.pop() {
            let walked = resolve_components(&path);
            assert_eq!(normal(&path), walked, "{path:?}");
            assert_eq!(
                matches!(normal(&path), Cow::Borrowed(_)),
                walked == path,
                "{path:?}"
            );
            checked += 1;
            if path.len() < 7 {
                for c in ['/', '.', 'a'] {
                    paths.push(format!("{path}{c}"));
                }
            }
        }
        assert_eq!(checked, (0..=7).map(|len| 3usize.pow(len)).sum::<usize>());
    }

    #[test]
    fn create_and_read_back() {
        let mut fs = FileSystem::new();
        fs.create("/var/www/html/index.html", b"<html>".to_vec());
        assert!(fs.exists("/var/www/html/index.html"));
        assert!(fs.exists("/var/www//html/./index.html"));
        assert_eq!(fs.get("/var/www/html/index.html").unwrap().data, b"<html>");
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn permission_checks_owner_group_other() {
        let mut fs = FileSystem::new();
        fs.create_with(
            "/srv/data",
            b"x".to_vec(),
            Uid::new(48),
            Gid::new(100),
            FileMode::new(0o640),
        );
        // Owner may read and write.
        let owner = Credentials::new(Uid::new(48), Gid::new(48));
        assert!(fs
            .check_access("/srv/data", &owner, AccessMode::Read)
            .is_ok());
        assert!(fs
            .check_access("/srv/data", &owner, AccessMode::Write)
            .is_ok());
        // Group member may read, not write.
        let group = Credentials::new(Uid::new(1000), Gid::new(100));
        assert!(fs
            .check_access("/srv/data", &group, AccessMode::Read)
            .is_ok());
        assert_eq!(
            fs.check_access("/srv/data", &group, AccessMode::Write),
            Err(Errno::Eacces)
        );
        // Others get nothing.
        let other = Credentials::new(Uid::new(2000), Gid::new(2000));
        assert_eq!(
            fs.check_access("/srv/data", &other, AccessMode::Read),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn root_bypasses_permissions() {
        let mut fs = FileSystem::new();
        fs.create_with(
            "/etc/shadow",
            b"secret".to_vec(),
            Uid::ROOT,
            Gid::ROOT,
            FileMode::PRIVATE,
        );
        assert!(fs
            .check_access("/etc/shadow", &Credentials::root(), AccessMode::Read)
            .is_ok());
        assert_eq!(
            fs.check_access("/etc/shadow", &www(), AccessMode::Read),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn missing_file_is_enoent() {
        let fs = FileSystem::new();
        assert_eq!(
            fs.check_access("/nope", &Credentials::root(), AccessMode::Read),
            Err(Errno::Enoent)
        );
    }

    #[test]
    fn traversal_resolves_before_lookup() {
        let mut fs = FileSystem::new();
        fs.create_with(
            "/etc/shadow",
            b"secret".to_vec(),
            Uid::ROOT,
            Gid::ROOT,
            FileMode::PRIVATE,
        );
        // A docroot-relative traversal reaches the same inode.
        assert!(fs.exists("/var/www/html/../../../etc/shadow"));
    }

    #[test]
    fn open_flags_decoding() {
        let f = OpenFlags::from_bits(
            OpenFlags::WRONLY.bits() | OpenFlags::CREAT.bits() | OpenFlags::APPEND.bits(),
        );
        assert!(f.wants_write());
        assert!(!f.wants_read());
        assert!(f.creates());
        assert!(f.appends());
        assert!(!f.truncates());
    }

    #[test]
    fn injected_read_faults_are_tracked_and_clearable() {
        let mut fs = FileSystem::new();
        fs.create("/var/www/html/news.html", b"<html>".to_vec());
        assert!(!fs.is_read_faulty("/var/www/html/news.html"));
        fs.inject_read_fault("/var/www/html/news.html");
        // Normalized lookups hit the same fault entry.
        assert!(fs.is_read_faulty("/var/www//html/./news.html"));
        assert_eq!(
            fs.read_faulty_paths().collect::<Vec<_>>(),
            vec!["/var/www/html/news.html"]
        );
        // Faults survive cloning (the world-template path).
        assert!(fs.clone().is_read_faulty("/var/www/html/news.html"));
        assert!(fs.clear_read_fault("/var/www/html/news.html"));
        assert!(!fs.clear_read_fault("/var/www/html/news.html"));
        assert!(!fs.is_read_faulty("/var/www/html/news.html"));
    }

    #[test]
    fn cloned_filesystems_share_bytes_until_first_write() {
        let mut template = FileSystem::new();
        template.create("/var/log/httpd.log", b"seed\n".to_vec());
        let mut cell = template.clone();

        // Writing through one clone detaches it; the other is untouched.
        // `get_mut` copies the shared table, so the bytes are shared until
        // the first write to them.
        let inode = cell.get_mut("/var/log/httpd.log").unwrap();
        assert!(inode.data.is_shared());
        let pos = inode.data.len();
        inode.data.write_at(pos, b"GET /\n");
        assert_eq!(
            cell.get("/var/log/httpd.log").unwrap().data,
            b"seed\nGET /\n"
        );
        assert_eq!(template.get("/var/log/httpd.log").unwrap().data, b"seed\n");
        assert!(!cell.get("/var/log/httpd.log").unwrap().data.is_shared());

        // Truncation detaches too, and gap writes zero-fill.
        let inode = template.get_mut("/var/log/httpd.log").unwrap();
        inode.data.clear();
        inode.data.write_at(2, b"xy");
        assert_eq!(template.get("/var/log/httpd.log").unwrap().data, b"\0\0xy");
        assert_eq!(
            cell.get("/var/log/httpd.log").unwrap().data,
            b"seed\nGET /\n"
        );
    }

    fn fold(fs: &FileSystem) -> u64 {
        let mut digest = Fnv1a::new();
        fs.digest_into(&mut digest);
        digest.finish()
    }

    #[test]
    fn content_digests_are_memoised_per_write() {
        const LOG: &str = "/var/log/httpd.log";
        let mut template = FileSystem::new();
        template.create("/etc/motd", b"hello\n".to_vec());
        template.create(LOG, b"seed\n".to_vec());
        let digest_of = |fs: &FileSystem| fs.get(LOG).unwrap().data.content_digest();
        assert_eq!(
            template.get("/etc/motd").unwrap().data.content_digest(),
            word_fold(b"hello\n")
        );
        assert_eq!(digest_of(&template), word_fold(b"seed\n"));
        let before = fold(&template);

        // A write through a clone resets the clone's memo, shared until
        // then, and leaves the template's alone.
        let mut cell = template.clone();
        assert_eq!(digest_of(&cell), word_fold(b"seed\n"));
        cell.get_mut(LOG).unwrap().data.write_at(5, b"GET /\n");
        assert_eq!(digest_of(&cell), word_fold(b"seed\nGET /\n"));
        assert_eq!(digest_of(&template), word_fold(b"seed\n"));
        assert_ne!(fold(&cell), before);
        assert_eq!(fold(&template), before);
        // A second write to the now private copy resets it again.
        cell.get_mut(LOG).unwrap().data.write_at(0, b"S");
        assert_eq!(digest_of(&cell), word_fold(b"Seed\nGET /\n"));

        let mut cleared = template.clone();
        cleared.get_mut(LOG).unwrap().data.clear();
        assert_eq!(digest_of(&cleared), word_fold(b""));
        assert_ne!(fold(&cleared), before);
        assert_eq!(digest_of(&template), word_fold(b"seed\n"));

        // Writing the original bytes back folds like the template again.
        cleared.get_mut(LOG).unwrap().data.write_at(0, b"seed\n");
        assert!(!cleared.get(LOG).unwrap().data.is_shared());
        assert_eq!(fold(&cleared), before);
    }

    #[test]
    fn the_table_is_shared_and_folded_once_per_write() {
        let mut template = FileSystem::new();
        template.create("/etc/motd", b"hello\n".to_vec());
        template.inject_read_fault("/var/www/html/news.html");
        let before = fold(&template);
        // A clone shares the table and the memo the template filled.
        let cell = template.clone();
        assert!(Arc::ptr_eq(&template.0, &cell.0));
        assert_eq!(
            cell.0.digest.get(),
            Some(&{
                let mut table = Fnv1a::new();
                table.write_usize(1);
                table.write_str("/etc/motd");
                table.write_usize(6);
                table.write_u64(word_fold(b"hello\n"));
                table.write_u32(0);
                table.write_u32(0);
                table.write_u32(0o644);
                table.write_usize(1);
                table.write_str("/var/www/html/news.html");
                table.finish()
            })
        );
        assert_eq!(fold(&cell), before);

        // Every mutation detaches the writer and resets its memo only.
        let writes: [fn(&mut FileSystem); 7] = [
            |fs| fs.create("/tmp/new", Vec::new()),
            |fs| {
                fs.remove("/etc/motd");
            },
            |fs| fs.get_mut("/etc/motd").unwrap().data.write_at(0, b"J"),
            |fs| fs.get_mut("/etc/motd").unwrap().mode = FileMode::PRIVATE,
            |fs| fs.inject_read_fault("/etc/motd"),
            |fs| {
                fs.clear_read_fault("/var/www/html/news.html");
            },
            |fs| {
                fs.create_with(
                    "/etc/motd",
                    b"hello\n".to_vec(),
                    Uid::new(1),
                    Gid::ROOT,
                    FileMode::PUBLIC,
                );
            },
        ];
        for (index, write) in writes.iter().enumerate() {
            let mut writer = cell.clone();
            write(&mut writer);
            assert!(!Arc::ptr_eq(&template.0, &writer.0), "write {index}");
            assert_ne!(fold(&writer), before, "write {index}");
            assert_eq!(fold(&template), before, "write {index}");
            assert_eq!(fold(&cell), before, "write {index}");
        }

        // Lookups by a path that is not normal do not write.
        assert!(cell.exists("/etc//motd"));
        assert!(cell.is_read_faulty("/var/www/./html/news.html"));
        assert!(Arc::ptr_eq(&template.0, &cell.0));
        // The memo is invisible to debug output.
        assert_eq!(
            format!("{template:?}"),
            format!("{:?}", {
                let mut built = FileSystem::new();
                built.inject_read_fault("/var/www/html/news.html");
                built.create("/etc/motd", b"hello\n".to_vec());
                built
            })
        );
    }

    #[test]
    fn remove_files() {
        let mut fs = FileSystem::new();
        fs.create("/f", b"x".to_vec());
        assert!(fs.remove("/f").is_some());
        assert!(fs.remove("/f").is_none());
        assert!(fs.is_empty());
    }
}
