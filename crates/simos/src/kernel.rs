//! The reference kernel: processes, file descriptors, and the typed system
//! call operations the N-variant monitor performs for every deployment, a
//! single process included.
//!
//! The monitor (in `nvariant-monitor`) performs the *N-variant specific*
//! work — synchronization, canonicalization, equivalence checks, unshared
//! files — and then invokes the operations here exactly once, which is how
//! the paper's "wrap input system calls so the actual input operation is
//! only performed once" behaviour is realized.

use crate::cred::Credentials;
use crate::fs::{AccessMode, FileMode, FileSystem, OpenFlags};
use crate::net::SimNetwork;
use crate::passwd::PasswdDb;
use nvariant_types::fnv::word_fold;
use nvariant_types::{ConnId, Errno, Fd, Fnv1a, Gid, Pid, Port, Uid};
use std::collections::BTreeMap;

/// Maximum number of open descriptors per process.
pub const MAX_FDS: usize = 64;

/// What a file descriptor refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdEntry {
    /// The process console (stdin/stdout/stderr).
    Console,
    /// An open regular file with a cursor.
    File {
        /// Normalized path of the file.
        path: String,
        /// Current read/write offset.
        offset: usize,
        /// Flags the file was opened with.
        flags: OpenFlags,
    },
    /// An unbound or bound (but unconnected) TCP socket.
    Socket {
        /// Port the socket is bound to, if any.
        bound: Option<Port>,
        /// Whether `listen` has been called.
        listening: bool,
    },
    /// An accepted client connection.
    Conn(ConnId),
}

/// Per-process kernel state.
#[derive(Clone, Debug)]
struct Proc {
    cred: Credentials,
    fds: Vec<Option<FdEntry>>,
    console: Vec<u8>,
    exited: Option<i32>,
}

impl Proc {
    fn new(cred: Credentials) -> Self {
        let mut fds = vec![None; MAX_FDS];
        fds[0] = Some(FdEntry::Console);
        fds[1] = Some(FdEntry::Console);
        fds[2] = Some(FdEntry::Console);
        Proc {
            cred,
            fds,
            console: Vec::new(),
            exited: None,
        }
    }

    fn alloc_fd(&mut self, entry: FdEntry) -> Result<Fd, Errno> {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return Ok(Fd::new(i as u32));
            }
        }
        Err(Errno::Emfile)
    }

    fn fd(&self, fd: Fd) -> Result<&FdEntry, Errno> {
        self.fds
            .get(fd.as_usize())
            .and_then(Option::as_ref)
            .ok_or(Errno::Ebadf)
    }

    fn fd_mut(&mut self, fd: Fd) -> Result<&mut FdEntry, Errno> {
        self.fds
            .get_mut(fd.as_usize())
            .and_then(Option::as_mut)
            .ok_or(Errno::Ebadf)
    }
}

/// The simulated operating system kernel: filesystem, network, account
/// database, and a process table with credentials and descriptor tables.
///
/// # Example
///
/// ```
/// use nvariant_simos::{OsKernel, OpenFlags};
/// use nvariant_types::Uid;
///
/// let mut kernel = OsKernel::new();
/// kernel.fs_mut().create("/greeting.txt", b"hello".to_vec());
/// let pid = kernel.spawn_process(Uid::new(1000));
/// let fd = kernel.open(pid, "/greeting.txt", OpenFlags::RDONLY)?;
/// assert_eq!(kernel.read(pid, fd, 16)?, b"hello");
/// # Ok::<(), nvariant_types::Errno>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct OsKernel {
    fs: FileSystem,
    net: SimNetwork,
    passwd: PasswdDb,
    procs: BTreeMap<u32, Proc>,
    next_pid: u32,
    sim_seconds: u64,
}

impl OsKernel {
    /// Creates an empty kernel with no processes or files.
    #[must_use]
    pub fn new() -> Self {
        OsKernel {
            next_pid: 1,
            ..OsKernel::default()
        }
    }

    // ----- world accessors -------------------------------------------------

    /// Shared view of the filesystem.
    #[must_use]
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Mutable view of the filesystem (used by world setup and tests).
    pub fn fs_mut(&mut self) -> &mut FileSystem {
        &mut self.fs
    }

    /// Shared view of the network.
    #[must_use]
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// Mutable view of the network (used by workload generators).
    pub fn net_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// The account database.
    #[must_use]
    pub fn passwd(&self) -> &PasswdDb {
        &self.passwd
    }

    /// Mutable account database (used by world setup).
    pub fn passwd_mut(&mut self) -> &mut PasswdDb {
        &mut self.passwd
    }

    // ----- process management ----------------------------------------------

    /// Creates a new process whose real, effective and saved UID are `uid`
    /// (the GID mirrors the UID, as is conventional for service accounts).
    pub fn spawn_process(&mut self, uid: Uid) -> Pid {
        self.spawn_process_with(Credentials::new(uid, Gid::new(uid.as_u32())))
    }

    /// Creates a new process with explicit credentials.
    pub fn spawn_process_with(&mut self, cred: Credentials) -> Pid {
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid.as_u32(), Proc::new(cred));
        pid
    }

    fn proc_ref(&self, pid: Pid) -> Result<&Proc, Errno> {
        self.procs.get(&pid.as_u32()).ok_or(Errno::Einval)
    }

    fn proc_mut(&mut self, pid: Pid) -> Result<&mut Proc, Errno> {
        self.procs.get_mut(&pid.as_u32()).ok_or(Errno::Einval)
    }

    /// Returns the credentials of a process.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn credentials(&self, pid: Pid) -> Result<Credentials, Errno> {
        Ok(self.proc_ref(pid)?.cred)
    }

    /// Marks a process as exited with the given status.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn exit(&mut self, pid: Pid, status: i32) -> Result<(), Errno> {
        self.proc_mut(pid)?.exited = Some(status);
        Ok(())
    }

    /// Returns the exit status of a process, if it has exited.
    #[must_use]
    pub fn exit_status(&self, pid: Pid) -> Option<i32> {
        self.procs.get(&pid.as_u32()).and_then(|p| p.exited)
    }

    /// Returns everything the process has written to stdout/stderr.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn console_output(&self, pid: Pid) -> Result<&[u8], Errno> {
        Ok(&self.proc_ref(pid)?.console)
    }

    // ----- identity syscalls -----------------------------------------------

    /// `getuid(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn getuid(&self, pid: Pid) -> Result<Uid, Errno> {
        Ok(self.proc_ref(pid)?.cred.ruid())
    }

    /// `geteuid(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn geteuid(&self, pid: Pid) -> Result<Uid, Errno> {
        Ok(self.proc_ref(pid)?.cred.euid())
    }

    /// `getgid(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the process does not exist.
    pub fn getgid(&self, pid: Pid) -> Result<Gid, Errno> {
        Ok(self.proc_ref(pid)?.cred.rgid())
    }

    /// `setuid(2)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Errno::Eperm`] from the credential rules, or
    /// [`Errno::Einval`] for an unknown process.
    pub fn setuid(&mut self, pid: Pid, uid: Uid) -> Result<(), Errno> {
        self.proc_mut(pid)?.cred.setuid(uid)
    }

    /// `seteuid(2)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Errno::Eperm`] from the credential rules, or
    /// [`Errno::Einval`] for an unknown process.
    pub fn seteuid(&mut self, pid: Pid, uid: Uid) -> Result<(), Errno> {
        self.proc_mut(pid)?.cred.seteuid(uid)
    }

    /// `setgid(2)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Errno::Eperm`] from the credential rules, or
    /// [`Errno::Einval`] for an unknown process.
    pub fn setgid(&mut self, pid: Pid, gid: Gid) -> Result<(), Errno> {
        self.proc_mut(pid)?.cred.setgid(gid)
    }

    /// `setreuid(2)`; `None` leaves the corresponding ID unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`Errno::Eperm`] from the credential rules, or
    /// [`Errno::Einval`] for an unknown process.
    pub fn setreuid(
        &mut self,
        pid: Pid,
        ruid: Option<Uid>,
        euid: Option<Uid>,
    ) -> Result<(), Errno> {
        self.proc_mut(pid)?.cred.setreuid(ruid, euid)
    }

    // ----- filesystem syscalls ----------------------------------------------

    /// `open(2)`: permission-checks `path` against the caller's effective
    /// UID and returns a new descriptor.
    ///
    /// # Errors
    ///
    /// * [`Errno::Enoent`] if the file is missing and `O_CREAT` is not set.
    /// * [`Errno::Eacces`] if the permission bits deny the requested access.
    /// * [`Errno::Eio`] if the file has an injected read fault
    ///   ([`FileSystem::inject_read_fault`]) and the flags request reading.
    /// * [`Errno::Emfile`] if the descriptor table is full.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        let cred = self.proc_ref(pid)?.cred;
        let normalized = FileSystem::normalize(path);
        if self.fs.exists(&normalized) {
            if flags.wants_read() {
                self.fs.check_access(&normalized, &cred, AccessMode::Read)?;
                if self.fs.is_read_faulty(&normalized) {
                    return Err(Errno::Eio);
                }
            }
            if flags.wants_write() {
                self.fs
                    .check_access(&normalized, &cred, AccessMode::Write)?;
            }
            if flags.truncates() && flags.wants_write() {
                if let Some(inode) = self.fs.get_mut(&normalized) {
                    inode.data.clear();
                }
            }
        } else if flags.creates() {
            if flags.wants_write() {
                self.fs.create_with(
                    &normalized,
                    Vec::new(),
                    cred.euid(),
                    cred.egid(),
                    FileMode::new(0o644),
                );
            } else {
                return Err(Errno::Eacces);
            }
        } else {
            return Err(Errno::Enoent);
        }
        let offset = if flags.appends() {
            self.fs.get(&normalized).map_or(0, |i| i.data.len())
        } else {
            0
        };
        self.proc_mut(pid)?.alloc_fd(FdEntry::File {
            path: normalized,
            offset,
            flags,
        })
    }

    /// `read(2)` / `recv(2)` depending on what the descriptor refers to.
    ///
    /// # Errors
    ///
    /// * [`Errno::Ebadf`] if the descriptor is invalid.
    /// * [`Errno::Eacces`] if the file was not opened for reading.
    pub fn read(&mut self, pid: Pid, fd: Fd, max: usize) -> Result<Vec<u8>, Errno> {
        let proc = self.procs.get_mut(&pid.as_u32()).ok_or(Errno::Einval)?;
        match proc.fd_mut(fd)? {
            FdEntry::Console => Ok(Vec::new()),
            FdEntry::File {
                path,
                offset,
                flags,
            } => {
                if !flags.wants_read() {
                    return Err(Errno::Eacces);
                }
                let inode = self.fs.get(path).ok_or(Errno::Enoent)?;
                let start = (*offset).min(inode.data.len());
                let end = (start + max).min(inode.data.len());
                *offset = end;
                Ok(inode.data[start..end].to_vec())
            }
            FdEntry::Conn(conn) => self.net.recv(*conn, max),
            FdEntry::Socket { .. } => Err(Errno::Einval),
        }
    }

    /// `write(2)` / `send(2)` depending on what the descriptor refers to.
    ///
    /// # Errors
    ///
    /// * [`Errno::Ebadf`] if the descriptor is invalid.
    /// * [`Errno::Eacces`] if the file was not opened for writing.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let proc = self.procs.get_mut(&pid.as_u32()).ok_or(Errno::Einval)?;
        match proc.fd_mut(fd)? {
            FdEntry::Console => {
                proc.console.extend_from_slice(data);
                Ok(data.len())
            }
            FdEntry::File {
                path,
                offset,
                flags,
            } => {
                if !flags.wants_write() {
                    return Err(Errno::Eacces);
                }
                let inode = self.fs.get_mut(path).ok_or(Errno::Enoent)?;
                let pos = if flags.appends() {
                    inode.data.len()
                } else {
                    *offset
                };
                inode.data.write_at(pos, data);
                *offset = pos + data.len();
                Ok(data.len())
            }
            FdEntry::Conn(conn) => self.net.send(*conn, data),
            FdEntry::Socket { .. } => Err(Errno::Einval),
        }
    }

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the descriptor is invalid.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<(), Errno> {
        let proc = self.procs.get_mut(&pid.as_u32()).ok_or(Errno::Einval)?;
        let entry = proc
            .fds
            .get_mut(fd.as_usize())
            .and_then(Option::take)
            .ok_or(Errno::Ebadf)?;
        if let FdEntry::Conn(conn) = entry {
            // Ignore errors from double closes of the underlying connection.
            let _ = self.net.close(conn);
        }
        Ok(())
    }

    // ----- network syscalls --------------------------------------------------

    /// `socket(2)`: allocates an unbound TCP socket.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Emfile`] if the descriptor table is full.
    pub fn socket(&mut self, pid: Pid) -> Result<Fd, Errno> {
        self.proc_mut(pid)?.alloc_fd(FdEntry::Socket {
            bound: None,
            listening: false,
        })
    }

    /// `bind(2)`: binds a socket to a port. Binding a privileged port
    /// (< 1024) requires an effective UID of root — this is the check the
    /// Apache-style server must start as root to pass.
    ///
    /// # Errors
    ///
    /// * [`Errno::Ebadf`] / [`Errno::Enotsock`] for bad descriptors.
    /// * [`Errno::Eacces`] if the port is privileged and the caller is not.
    /// * [`Errno::Eaddrinuse`] if the port is taken.
    pub fn bind(&mut self, pid: Pid, fd: Fd, port: Port) -> Result<(), Errno> {
        let cred = self.proc_ref(pid)?.cred;
        match self.proc_ref(pid)?.fd(fd)? {
            FdEntry::Socket { .. } => {}
            _ => return Err(Errno::Enotsock),
        }
        if port.is_privileged() && !cred.euid().is_root() {
            return Err(Errno::Eacces);
        }
        self.net.bind(port)?;
        if let FdEntry::Socket { bound, .. } = self.proc_mut(pid)?.fd_mut(fd)? {
            *bound = Some(port);
        }
        Ok(())
    }

    /// `listen(2)`.
    ///
    /// # Errors
    ///
    /// * [`Errno::Enotsock`] if the descriptor is not a socket.
    /// * [`Errno::Einval`] if the socket is not bound.
    pub fn listen(&mut self, pid: Pid, fd: Fd) -> Result<(), Errno> {
        let port = match self.proc_ref(pid)?.fd(fd)? {
            FdEntry::Socket { bound: Some(p), .. } => *p,
            FdEntry::Socket { bound: None, .. } => return Err(Errno::Einval),
            _ => return Err(Errno::Enotsock),
        };
        self.net.listen(port)?;
        if let FdEntry::Socket { listening, .. } = self.proc_mut(pid)?.fd_mut(fd)? {
            *listening = true;
        }
        Ok(())
    }

    /// `accept(2)`: dequeues a pending connection and returns a new
    /// descriptor for it.
    ///
    /// # Errors
    ///
    /// * [`Errno::Enotsock`] / [`Errno::Einval`] for bad descriptors.
    /// * [`Errno::Eagain`] if no connection is pending (used by the case
    ///   study as its shutdown signal).
    pub fn accept(&mut self, pid: Pid, fd: Fd) -> Result<Fd, Errno> {
        let port = match self.proc_ref(pid)?.fd(fd)? {
            FdEntry::Socket {
                bound: Some(p),
                listening: true,
            } => *p,
            FdEntry::Socket { .. } => return Err(Errno::Einval),
            _ => return Err(Errno::Enotsock),
        };
        let conn = self.net.accept(port)?;
        self.proc_mut(pid)?.alloc_fd(FdEntry::Conn(conn))
    }

    /// `recv(2)`; equivalent to [`OsKernel::read`] on a connection fd.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Enotsock`] if the descriptor is not a connection.
    pub fn recv(&mut self, pid: Pid, fd: Fd, max: usize) -> Result<Vec<u8>, Errno> {
        match self.proc_ref(pid)?.fd(fd)? {
            FdEntry::Conn(conn) => self.net.recv(*conn, max),
            _ => Err(Errno::Enotsock),
        }
    }

    /// `send(2)`; equivalent to [`OsKernel::write`] on a connection fd.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Enotsock`] if the descriptor is not a connection.
    pub fn send(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        match self.proc_ref(pid)?.fd(fd)? {
            FdEntry::Conn(conn) => self.net.send(*conn, data),
            _ => Err(Errno::Enotsock),
        }
    }

    // ----- state digest -------------------------------------------------------

    /// Folds the complete kernel state — clock, account database,
    /// filesystem, network, and every process' credentials, descriptor
    /// table, console buffer and exit status — into `digest`, in canonical
    /// order. Two equal kernels always fold identically, which is what the
    /// model checker's visited-state pruning relies on. A console buffer
    /// folds as its word fold ([`nvariant_types::fnv`]).
    pub fn digest_into(&self, digest: &mut Fnv1a) {
        digest.write_u64(self.sim_seconds);
        self.passwd.digest_into(digest);
        self.fs.digest_into(digest);
        self.net.digest_into(digest);
        digest.write_u32(self.next_pid);
        digest.write_usize(self.procs.len());
        for (pid, proc) in &self.procs {
            digest.write_u32(*pid);
            for id in [
                proc.cred.ruid().as_u32(),
                proc.cred.euid().as_u32(),
                proc.cred.suid().as_u32(),
                proc.cred.rgid().as_u32(),
                proc.cred.egid().as_u32(),
                proc.cred.sgid().as_u32(),
            ] {
                digest.write_u32(id);
            }
            // The open descriptors only: how many, then each one's number
            // and entry.
            digest.write_usize(proc.fds.iter().flatten().count());
            for (fd, entry) in proc.fds.iter().enumerate() {
                let Some(entry) = entry else {
                    continue;
                };
                digest.write_usize(fd);
                match entry {
                    FdEntry::Console => digest.write_u8(1),
                    FdEntry::File {
                        path,
                        offset,
                        flags,
                    } => {
                        digest.write_u8(2);
                        digest.write_str(path);
                        digest.write_usize(*offset);
                        digest.write_u32(flags.bits());
                    }
                    FdEntry::Socket { bound, listening } => {
                        digest.write_u8(3);
                        match bound {
                            None => digest.write_u8(0),
                            Some(port) => {
                                digest.write_u8(1);
                                digest.write_u32(u32::from(port.as_u16()));
                            }
                        }
                        digest.write_u8(u8::from(*listening));
                    }
                    FdEntry::Conn(conn) => {
                        digest.write_u8(4);
                        digest.write_u64(conn.as_u64());
                    }
                }
            }
            digest.write_u64(word_fold(&proc.console));
            match proc.exited {
                None => digest.write_u8(0),
                Some(status) => {
                    digest.write_u8(1);
                    digest.write(&status.to_le_bytes());
                }
            }
        }
    }

    // ----- clock --------------------------------------------------------------

    /// `time(2)`: seconds since simulation start.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.sim_seconds
    }

    /// Advances the simulated wall clock (driven by the workload harness).
    pub fn advance_time(&mut self, seconds: u64) {
        self.sim_seconds += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_with_file(path: &str, data: &[u8], mode: FileMode, owner: Uid) -> OsKernel {
        let mut k = OsKernel::new();
        k.fs_mut()
            .create_with(path, data.to_vec(), owner, Gid::new(owner.as_u32()), mode);
        k
    }

    #[test]
    fn spawn_and_identity_calls() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::new(48));
        assert_eq!(k.getuid(pid).unwrap(), Uid::new(48));
        assert_eq!(k.geteuid(pid).unwrap(), Uid::new(48));
        assert_eq!(k.getgid(pid).unwrap(), Gid::new(48));
    }

    #[test]
    fn open_read_write_round_trip() {
        let mut k = kernel_with_file("/data.txt", b"hello world", FileMode::PUBLIC, Uid::ROOT);
        let pid = k.spawn_process(Uid::new(1000));
        let fd = k.open(pid, "/data.txt", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.read(pid, fd, 5).unwrap(), b"hello");
        assert_eq!(k.read(pid, fd, 100).unwrap(), b" world");
        assert_eq!(k.read(pid, fd, 100).unwrap(), b"");
        // Not opened for writing.
        assert_eq!(k.write(pid, fd, b"x"), Err(Errno::Eacces));
        k.close(pid, fd).unwrap();
        assert_eq!(k.read(pid, fd, 1), Err(Errno::Ebadf));
    }

    #[test]
    fn open_respects_permissions() {
        let mut k = kernel_with_file("/etc/shadow", b"secret", FileMode::PRIVATE, Uid::ROOT);
        let www = k.spawn_process(Uid::new(48));
        assert_eq!(
            k.open(www, "/etc/shadow", OpenFlags::RDONLY),
            Err(Errno::Eacces)
        );
        let root = k.spawn_process(Uid::ROOT);
        assert!(k.open(root, "/etc/shadow", OpenFlags::RDONLY).is_ok());
    }

    #[test]
    fn open_reports_injected_read_faults_as_eio() {
        let mut k = kernel_with_file(
            "/var/www/html/news.html",
            b"<html>",
            FileMode::PUBLIC,
            Uid::ROOT,
        );
        let pid = k.spawn_process(Uid::ROOT);
        assert!(k
            .open(pid, "/var/www/html/news.html", OpenFlags::RDONLY)
            .is_ok());
        k.fs_mut().inject_read_fault("/var/www/html/news.html");
        assert_eq!(
            k.open(pid, "/var/www/html/news.html", OpenFlags::RDONLY),
            Err(Errno::Eio)
        );
        // Even root hits the bad sector: faults are not permission checks.
        assert_eq!(
            k.open(pid, "/var/www/html/../html/news.html", OpenFlags::RDONLY),
            Err(Errno::Eio)
        );
        k.fs_mut().clear_read_fault("/var/www/html/news.html");
        assert!(k
            .open(pid, "/var/www/html/news.html", OpenFlags::RDONLY)
            .is_ok());
    }

    #[test]
    fn privilege_drop_changes_access_decisions() {
        let mut k = kernel_with_file("/etc/shadow", b"secret", FileMode::PRIVATE, Uid::ROOT);
        let pid = k.spawn_process(Uid::ROOT);
        assert!(k.open(pid, "/etc/shadow", OpenFlags::RDONLY).is_ok());
        k.setuid(pid, Uid::new(48)).unwrap();
        assert_eq!(
            k.open(pid, "/etc/shadow", OpenFlags::RDONLY),
            Err(Errno::Eacces)
        );
        // And the drop is irreversible.
        assert_eq!(k.seteuid(pid, Uid::ROOT), Err(Errno::Eperm));
    }

    #[test]
    fn seteuid_toggle_preserves_saved_root() {
        let mut k = kernel_with_file("/etc/shadow", b"secret", FileMode::PRIVATE, Uid::ROOT);
        let pid = k.spawn_process(Uid::ROOT);
        k.seteuid(pid, Uid::new(48)).unwrap();
        assert_eq!(
            k.open(pid, "/etc/shadow", OpenFlags::RDONLY),
            Err(Errno::Eacces)
        );
        k.seteuid(pid, Uid::ROOT).unwrap();
        assert!(k.open(pid, "/etc/shadow", OpenFlags::RDONLY).is_ok());
    }

    #[test]
    fn create_append_and_truncate() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::new(48));
        let flags = OpenFlags::WRONLY.union(OpenFlags::CREAT);
        let fd = k.open(pid, "/tmp/log", flags).unwrap();
        k.write(pid, fd, b"line1\n").unwrap();
        k.close(pid, fd).unwrap();

        let fd = k
            .open(pid, "/tmp/log", OpenFlags::WRONLY.union(OpenFlags::APPEND))
            .unwrap();
        k.write(pid, fd, b"line2\n").unwrap();
        k.close(pid, fd).unwrap();
        assert_eq!(k.fs().get("/tmp/log").unwrap().data, b"line1\nline2\n");

        let fd = k
            .open(pid, "/tmp/log", OpenFlags::WRONLY.union(OpenFlags::TRUNC))
            .unwrap();
        k.write(pid, fd, b"fresh").unwrap();
        k.close(pid, fd).unwrap();
        assert_eq!(k.fs().get("/tmp/log").unwrap().data, b"fresh");
        // New file is owned by the creator.
        assert_eq!(k.fs().get("/tmp/log").unwrap().owner, Uid::new(48));
    }

    #[test]
    fn missing_file_without_creat_is_enoent() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::ROOT);
        assert_eq!(
            k.open(pid, "/missing", OpenFlags::RDONLY),
            Err(Errno::Enoent)
        );
    }

    #[test]
    fn console_collects_stdout() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::new(1000));
        k.write(pid, Fd::STDOUT, b"hello ").unwrap();
        k.write(pid, Fd::STDERR, b"world").unwrap();
        assert_eq!(k.console_output(pid).unwrap(), b"hello world");
        assert_eq!(k.read(pid, Fd::STDIN, 10).unwrap(), b"");
    }

    #[test]
    fn socket_lifecycle_and_privileged_bind() {
        let mut k = OsKernel::new();
        let root = k.spawn_process(Uid::ROOT);
        let sock = k.socket(root).unwrap();
        assert_eq!(k.listen(root, sock), Err(Errno::Einval));
        k.bind(root, sock, Port::HTTP).unwrap();
        k.listen(root, sock).unwrap();

        // Unprivileged process cannot bind a low port.
        let www = k.spawn_process(Uid::new(48));
        let sock2 = k.socket(www).unwrap();
        assert_eq!(k.bind(www, sock2, Port::new(443)), Err(Errno::Eacces));
        assert!(k.bind(www, sock2, Port::new(8080)).is_ok());

        // Serve one request end to end.
        k.net_mut()
            .enqueue_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec())
            .unwrap();
        let conn = k.accept(root, sock).unwrap();
        let req = k.recv(root, conn, 1024).unwrap();
        assert!(req.starts_with(b"GET /"));
        k.send(root, conn, b"HTTP/1.0 200 OK\r\n\r\nhi").unwrap();
        k.close(root, conn).unwrap();
        assert_eq!(k.net().total_response_bytes(), 21);

        // Backlog drained: next accept would block.
        assert_eq!(k.accept(root, sock), Err(Errno::Eagain));
    }

    #[test]
    fn accept_on_non_listening_socket_fails() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::ROOT);
        let sock = k.socket(pid).unwrap();
        assert_eq!(k.accept(pid, sock), Err(Errno::Einval));
        let fd_file = {
            k.fs_mut().create("/f", vec![]);
            k.open(pid, "/f", OpenFlags::RDONLY).unwrap()
        };
        assert_eq!(k.accept(pid, fd_file), Err(Errno::Enotsock));
        assert_eq!(k.recv(pid, fd_file, 1), Err(Errno::Enotsock));
        assert_eq!(k.send(pid, fd_file, b"x"), Err(Errno::Enotsock));
    }

    #[test]
    fn exit_status_tracking() {
        let mut k = OsKernel::new();
        let pid = k.spawn_process(Uid::ROOT);
        assert_eq!(k.exit_status(pid), None);
        k.exit(pid, 3).unwrap();
        assert_eq!(k.exit_status(pid), Some(3));
    }

    #[test]
    fn time_advances_only_when_driven() {
        let mut k = OsKernel::new();
        assert_eq!(k.time(), 0);
        k.advance_time(5);
        assert_eq!(k.time(), 5);
    }

    fn digest(k: &OsKernel) -> u64 {
        let mut digest = Fnv1a::new();
        k.digest_into(&mut digest);
        digest.finish()
    }

    /// A kernel with files, accounts, a second process, a socket (fd 3)
    /// and a request waiting for a listener.
    fn staleness_base() -> (OsKernel, Pid) {
        let mut k = kernel_with_file("/etc/shadow", b"root:x\n", FileMode::PRIVATE, Uid::ROOT);
        k.fs_mut()
            .create("/var/www/html/index.html", b"<html>".to_vec());
        k.passwd_mut()
            .add_user(crate::PasswdEntry::new("root", Uid::ROOT, Gid::ROOT));
        let pid = k.spawn_process(Uid::ROOT);
        k.spawn_process(Uid::new(48));
        k.socket(pid).unwrap();
        k.net_mut()
            .preload_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec());
        (k, pid)
    }

    /// Applies the operation `op` encodes — a file, fault, network,
    /// descriptor, credential, clock, account or process operation — to
    /// `k` as `pid`, ignoring its result.
    fn apply(k: &mut OsKernel, pid: Pid, op: u64) {
        const PATHS: [&str; 5] = [
            "/etc/shadow",
            "/var/www/html/index.html",
            "/tmp/log",
            "/var//www/html/../html/index.html",
            "/tmp/./new",
        ];
        let flags = [
            OpenFlags::RDONLY,
            OpenFlags::WRONLY.union(OpenFlags::CREAT),
            OpenFlags::RDWR,
            OpenFlags::WRONLY.union(OpenFlags::APPEND),
            OpenFlags::WRONLY.union(OpenFlags::TRUNC),
            OpenFlags::RDWR
                .union(OpenFlags::CREAT)
                .union(OpenFlags::TRUNC),
        ];
        let arg = (op >> 8) as usize;
        let path = PATHS[arg % PATHS.len()];
        let fd = Fd::new((arg % 8) as u32);
        let bytes = &(op >> 16).to_le_bytes()[..(op >> 60) as usize % 8];
        let uid = [Uid::ROOT, Uid::new(48), Uid::new(1000)][arg % 3];
        let port = [Port::HTTP, Port::new(8080)][(op >> 20) as usize % 2];
        match op % 16 {
            0 => drop(k.open(pid, path, flags[(op >> 16) as usize % flags.len()])),
            1 => drop(k.read(pid, fd, (op >> 16) as usize % 16)),
            2 => drop(k.write(pid, fd, bytes)),
            3 => drop(k.close(pid, fd)),
            4 => k.fs_mut().inject_read_fault(path),
            5 => drop(k.fs_mut().clear_read_fault(path)),
            6 if op & 1 << 20 == 0 => k.fs_mut().create(path, bytes.to_vec()),
            6 => drop(k.fs_mut().remove(path)),
            7 => k.net_mut().preload_request(port, bytes.to_vec()),
            8 => drop(k.net_mut().enqueue_request(port, bytes.to_vec())),
            9 => drop(k.accept(pid, Fd::new(3))),
            10 if op & 1 << 20 == 0 => drop(k.bind(pid, Fd::new(3), port)),
            10 => drop(k.listen(pid, Fd::new(3))),
            11 => {
                // The checker's receive schedule: a cap set around one read.
                k.net_mut().set_recv_cap(Some((op >> 16) as usize % 4));
                drop(k.read(pid, fd, 64));
                k.net_mut().set_recv_cap(None);
            }
            12 => drop(match (op >> 16) % 3 {
                0 => k.setuid(pid, uid),
                1 => k.seteuid(pid, uid),
                _ => k.setreuid(pid, Some(uid), None),
            }),
            13 => k.advance_time(1),
            14 => k.passwd_mut().add_user(crate::PasswdEntry::new(
                "user",
                uid,
                Gid::new(uid.as_u32()),
            )),
            _ if op & 1 << 20 == 0 => drop(k.spawn_process(uid)),
            _ => drop(k.exit(Pid::new(2), (op >> 24) as i32 % 4)),
        }
    }

    /// Fixed-seed xorshift64 operations.
    fn ops(seed: u64, len: usize) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn memoised_digests_follow_every_write_and_only_the_writer() {
        for seed in 1..=24u64 {
            let (mut eager, pid) = staleness_base();
            let mut lazy = eager.clone();
            let main = ops(seed * 0x9e37_79b9, 160);
            let side = ops(seed * 0x85eb_ca6b + 1, 160);
            // Forks of `eager` that follow its history, and forks that
            // take another one, each with a twin forked from `lazy` and
            // digested only at the end.
            let mut followers: Vec<OsKernel> = Vec::new();
            let mut strays: Vec<(OsKernel, OsKernel)> = Vec::new();
            let mut digests = Vec::new();
            for (step, (&op, &other)) in main.iter().zip(&side).enumerate() {
                if step % 40 == 0 {
                    followers.push(eager.clone());
                    strays.push((eager.clone(), lazy.clone()));
                }
                let strays_before: Vec<u64> = strays.iter().map(|(k, _)| digest(k)).collect();
                apply(&mut eager, pid, op);
                apply(&mut lazy, pid, op);
                let now = digest(&eager);
                digests.push(now);
                for (stray, before) in strays.iter_mut().zip(strays_before) {
                    // A write through `eager` left the stray unchanged, and
                    // one through the stray leaves `eager` unchanged.
                    assert_eq!(digest(&stray.0), before, "seed {seed} step {step}");
                    apply(&mut stray.0, pid, other);
                    apply(&mut stray.1, pid, other);
                    assert_eq!(digest(&eager), now, "seed {seed} step {step}");
                }
                for follower in &mut followers {
                    apply(follower, pid, op);
                    assert_eq!(digest(follower), now, "seed {seed} step {step}");
                }
            }
            assert_eq!(digest(&lazy), *digests.last().unwrap(), "seed {seed}");
            for (stray, twin) in &strays {
                assert_eq!(digest(stray), digest(twin), "seed {seed}");
            }
            // The sequences did change the state, step by step.
            digests.dedup();
            assert!(
                digests.len() >= 40,
                "seed {seed}: {} digests",
                digests.len()
            );
        }
    }

    #[test]
    fn a_descriptor_folds_with_its_number() {
        let mut moved = kernel_with_file("/f", b"x", FileMode::PUBLIC, Uid::ROOT);
        let mut kept = moved.clone();
        let pid = moved.spawn_process(Uid::ROOT);
        kept.spawn_process(Uid::ROOT);
        let first = moved.open(pid, "/f", OpenFlags::RDONLY).unwrap();
        moved.open(pid, "/f", OpenFlags::RDONLY).unwrap();
        moved.close(pid, first).unwrap();
        kept.open(pid, "/f", OpenFlags::RDONLY).unwrap();
        // The same entry in slot 4 and in slot 3.
        assert_ne!(digest(&moved), digest(&kept));
        kept.close(pid, first).unwrap();
        moved.close(pid, Fd::new(4)).unwrap();
        assert_eq!(digest(&moved), digest(&kept));
    }

    #[test]
    fn fd_exhaustion() {
        let mut k = OsKernel::new();
        k.fs_mut().create("/f", vec![]);
        let pid = k.spawn_process(Uid::ROOT);
        let mut opened = Vec::new();
        loop {
            match k.open(pid, "/f", OpenFlags::RDONLY) {
                Ok(fd) => opened.push(fd),
                Err(e) => {
                    assert_eq!(e, Errno::Emfile);
                    break;
                }
            }
        }
        assert_eq!(opened.len(), MAX_FDS - 3);
    }
}
