//! The worker transport abstraction: how a coordinator starts a
//! `campaign_report --shard` worker on a host, watches it, and gets the
//! shard interchange file back.
//!
//! Two implementations ship with the crate:
//!
//! * [`LocalProcessTransport`] — today's single-host path: workers are
//!   plain child processes and the shard file is read straight off the
//!   coordinator's filesystem.
//! * [`CommandTransport`] — workers run through an arbitrary command
//!   prefix (`ssh {host}`, a container runner, or the hermetic
//!   `scripts/fake_remote.sh {host}` test double). The shard file lives on
//!   the *remote* side, so retrieval also goes through the prefix (`...
//!   cat <file>`), exactly like `ssh host cat /path/shard.txt` would.
//!
//! The [`Fleet`](crate::Fleet) scheduler is written entirely against the
//! [`WorkerTransport`] / [`WorkerHandle`] traits, so host pools, health
//! accounting, retries and divergence diagnosis are identical whichever
//! transport carries the workers.

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Why a transport operation failed (spawn refused, retrieval failed, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportError {
    /// Human-readable description.
    pub message: String,
}

impl TransportError {
    /// Creates an error from anything displayable.
    pub fn new(message: impl Into<String>) -> Self {
        TransportError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TransportError {}

/// What one shard execution needs from a worker: which slice of the plan to
/// run, which binary runs it, and the extra arguments (quick mode, worker
/// threads, cache flags) the coordinator forwards verbatim.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// Shard index (`--shard index/count`).
    pub index: usize,
    /// Total shard count.
    pub count: usize,
    /// The worker binary (`campaign_report`). Must be an absolute path so
    /// command-prefix transports that change the working directory still
    /// find it.
    pub worker_bin: PathBuf,
    /// Extra worker arguments, forwarded before the `--shard`/`--out` pair.
    pub worker_args: Vec<String>,
    /// Coordinator-local scratch directory for shard files. Transports that
    /// execute remotely ignore it and use a host-side path instead.
    pub scratch_dir: PathBuf,
}

impl ShardAssignment {
    /// The shard file's name, identical on every side of every transport.
    #[must_use]
    pub fn shard_file_name(&self) -> String {
        format!("shard-{}-of-{}.txt", self.index, self.count)
    }
}

/// The observable state of a spawned worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Still executing.
    Running,
    /// Finished (or failed to be observed).
    Exited {
        /// Whether the worker reported success (exit status 0).
        success: bool,
        /// Human-readable exit detail (`exit status: 0`, `signal: 9
        /// (SIGKILL)`, a wait error, ...).
        detail: String,
    },
}

/// A live worker attempt: poll it, kill it, and — after a successful exit —
/// retrieve the shard interchange stream it produced.
pub trait WorkerHandle {
    /// Non-blocking status check.
    fn poll(&mut self) -> WorkerStatus;

    /// Polls until the worker exits or `deadline` passes; returns
    /// [`WorkerStatus::Running`] only when the deadline expired first.
    fn wait_deadline(&mut self, deadline: Instant) -> WorkerStatus {
        loop {
            match self.poll() {
                WorkerStatus::Running if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                status => return status,
            }
        }
    }

    /// Terminates the worker (idempotent; errors are swallowed — a worker
    /// that already exited cannot be killed again).
    fn kill(&mut self);

    /// Retrieves the shard file the worker wrote as a buffered byte
    /// stream, so the scheduler can spool and validate it without ever
    /// holding the whole file in memory. Only meaningful after a successful
    /// exit; a missing or unreadable file — when opening it, or as a read
    /// error later in the stream — is an error the scheduler counts against
    /// the attempt.
    fn retrieve(&mut self) -> Result<Box<dyn BufRead + Send>, TransportError>;
}

/// The streaming side of a command-prefix retrieval: the retrieval child's
/// piped stdout, with the exit status checked at EOF so a failed `cat`
/// surfaces as a read error instead of a silently truncated shard.
struct CommandStreamReader {
    child: Child,
    stdout: std::process::ChildStdout,
    finished: bool,
}

impl Read for CommandStreamReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.finished {
            return Ok(0);
        }
        let n = self.stdout.read(buf)?;
        if n == 0 {
            self.finished = true;
            let status = self.child.wait()?;
            if !status.success() {
                return Err(std::io::Error::other(format!(
                    "retrieval command exited with {status}"
                )));
            }
        }
        Ok(n)
    }
}

impl Drop for CommandStreamReader {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How the coordinator reaches a host pool: spawn a shard worker on a named
/// host and hand back a [`WorkerHandle`].
pub trait WorkerTransport {
    /// Short human-readable label for run headers (`local process`,
    /// `command prefix "ssh {host}"`).
    fn label(&self) -> String;

    /// Starts `assignment` on `host`.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] when the worker cannot be started at
    /// all (the scheduler counts this against the attempt cap like a
    /// crash).
    fn spawn(
        &self,
        host: &str,
        assignment: &ShardAssignment,
    ) -> Result<Box<dyn WorkerHandle>, TransportError>;
}

/// A child process plus where its shard file will appear locally.
struct ProcessHandle {
    child: Child,
    /// How to read the shard file back once the child exits.
    retrieval: Retrieval,
}

enum Retrieval {
    /// Read a coordinator-local file.
    LocalFile(PathBuf),
    /// Run a command (the transport's prefix + `cat <file>`) and take its
    /// stdout.
    Command(Command),
}

impl WorkerHandle for ProcessHandle {
    fn poll(&mut self) -> WorkerStatus {
        match self.child.try_wait() {
            Ok(None) => WorkerStatus::Running,
            Ok(Some(status)) => WorkerStatus::Exited {
                success: status.success(),
                detail: status.to_string(),
            },
            Err(error) => WorkerStatus::Exited {
                success: false,
                detail: format!("wait failed: {error}"),
            },
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn retrieve(&mut self) -> Result<Box<dyn BufRead + Send>, TransportError> {
        match &mut self.retrieval {
            Retrieval::LocalFile(path) => {
                let file = std::fs::File::open(&*path).map_err(|error| {
                    TransportError::new(format!("cannot read {}: {error}", path.display()))
                })?;
                Ok(Box::new(BufReader::new(file)))
            }
            Retrieval::Command(command) => {
                let mut child = command
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|error| {
                        TransportError::new(format!("retrieval command failed to start: {error}"))
                    })?;
                let stdout = child
                    .stdout
                    .take()
                    .expect("retrieval stdout was requested piped");
                Ok(Box::new(BufReader::new(CommandStreamReader {
                    child,
                    stdout,
                    finished: false,
                })))
            }
        }
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        // Never leave an orphan worker behind a coordinator that bailed
        // out; killing an already-reaped child is a harmless error.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The single-host transport: workers are plain child processes of the
/// coordinator and shard files are read off the shared filesystem. This is
/// exactly the `std::process` path `campaignd` used before the fleet
/// abstraction existed, factored behind the trait.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalProcessTransport;

impl WorkerTransport for LocalProcessTransport {
    fn label(&self) -> String {
        "local process".to_string()
    }

    fn spawn(
        &self,
        _host: &str,
        assignment: &ShardAssignment,
    ) -> Result<Box<dyn WorkerHandle>, TransportError> {
        let out_file = assignment.scratch_dir.join(assignment.shard_file_name());
        let mut command = Command::new(&assignment.worker_bin);
        command
            .args(&assignment.worker_args)
            .arg("--shard")
            .arg(format!("{}/{}", assignment.index, assignment.count))
            .arg("--out")
            .arg(&out_file)
            // Worker chatter stays out of the coordinator's report stream;
            // stderr passes through so real worker errors surface.
            .stdout(Stdio::null());
        let child = command
            .spawn()
            .map_err(|error| TransportError::new(format!("spawn failed: {error}")))?;
        Ok(Box::new(ProcessHandle {
            child,
            retrieval: Retrieval::LocalFile(out_file),
        }))
    }
}

/// A transport that runs every worker through a command prefix with the
/// host name substituted for `{host}` — `ssh {host}` for a real fleet, or
/// `scripts/fake_remote.sh {host}` for the hermetic CI double, which gives
/// each simulated host its own scratch directory plus injectable latency,
/// dropped shard files, and crashes.
///
/// The shard file is written *host-side* (the worker gets a bare file name,
/// resolved in whatever working directory the prefix lands it in), so
/// retrieval also goes through the prefix: `<prefix> cat <file>`. That
/// keeps the transport honest — nothing ever assumes the worker shares a
/// filesystem with the coordinator.
#[derive(Clone, Debug)]
pub struct CommandTransport {
    prefix: Vec<String>,
}

impl CommandTransport {
    /// Builds the transport from prefix tokens; every `{host}` occurrence
    /// is substituted with the target host name at spawn time.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the prefix is empty.
    pub fn new(prefix: impl IntoIterator<Item = String>) -> Result<Self, TransportError> {
        let prefix: Vec<String> = prefix.into_iter().collect();
        if prefix.is_empty() {
            return Err(TransportError::new(
                "command transport needs at least one prefix token (e.g. \"ssh {host}\")",
            ));
        }
        Ok(CommandTransport { prefix })
    }

    /// Parses a whitespace-separated prefix template (`"ssh {host}"`).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if the template has no tokens.
    pub fn from_template(template: &str) -> Result<Self, TransportError> {
        Self::new(template.split_whitespace().map(String::from))
    }

    /// The prefix with `{host}` substituted.
    fn resolved_prefix(&self, host: &str) -> Vec<String> {
        self.prefix
            .iter()
            .map(|token| token.replace("{host}", host))
            .collect()
    }

    fn command_for(&self, host: &str) -> Command {
        let resolved = self.resolved_prefix(host);
        let mut command = Command::new(&resolved[0]);
        command.args(&resolved[1..]);
        command
    }
}

impl WorkerTransport for CommandTransport {
    fn label(&self) -> String {
        format!("command prefix {:?}", self.prefix.join(" "))
    }

    fn spawn(
        &self,
        host: &str,
        assignment: &ShardAssignment,
    ) -> Result<Box<dyn WorkerHandle>, TransportError> {
        let out_file = assignment.shard_file_name();
        let mut command = self.command_for(host);
        command
            .arg(&assignment.worker_bin)
            .args(&assignment.worker_args)
            .arg("--shard")
            .arg(format!("{}/{}", assignment.index, assignment.count))
            .arg("--out")
            .arg(&out_file)
            .stdout(Stdio::null());
        let child = command
            .spawn()
            .map_err(|error| TransportError::new(format!("spawn via prefix failed: {error}")))?;
        let mut retrieve = self.command_for(host);
        retrieve.arg("cat").arg(&out_file);
        Ok(Box::new(ProcessHandle {
            child,
            retrieval: Retrieval::Command(retrieve),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nvfleet-transport-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// The shell every stand-in script runs under.
    const SH: &str = "/bin/sh";

    /// Writes a shell script for [`SH`] to run and returns its path. No
    /// test execs a file it just wrote: a child that another test thread
    /// forks meanwhile holds the file open for writing until it execs, and
    /// an exec in that window fails with "Text file busy".
    fn script(dir: &Path, name: &str, body: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write script");
        path
    }

    /// Retrieves a worker's shard file and reads the stream to its end.
    fn read_back(handle: &mut dyn WorkerHandle) -> Result<String, String> {
        let mut text = String::new();
        handle
            .retrieve()
            .map_err(|error| error.to_string())?
            .read_to_string(&mut text)
            .map_err(|error| error.to_string())?;
        Ok(text)
    }

    /// An assignment whose worker is [`SH`] running the script `worker`.
    fn assignment(dir: &Path, worker: &Path) -> ShardAssignment {
        ShardAssignment {
            index: 1,
            count: 4,
            worker_bin: PathBuf::from(SH),
            worker_args: vec![worker.display().to_string(), "--quick".to_string()],
            scratch_dir: dir.to_path_buf(),
        }
    }

    /// A command transport whose prefix is [`SH`] running the script
    /// `prefix` with the host as its first argument.
    fn through(prefix: &Path) -> CommandTransport {
        CommandTransport::from_template(&format!("{SH} {} {{host}}", prefix.display())).unwrap()
    }

    #[test]
    fn local_transport_runs_a_worker_and_reads_its_file_back() {
        let dir = scratch("local-ok");
        // A stand-in worker: scans for --out and writes a marker there.
        let worker = script(
            &dir,
            "worker.sh",
            r#"out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "--out" ]; then out="$2"; fi
  shift
done
printf 'marker %s\n' "$NVFLEET_TEST_TAG" > "$out"
"#,
        );
        let transport = LocalProcessTransport;
        assert_eq!(transport.label(), "local process");
        std::env::set_var("NVFLEET_TEST_TAG", "local");
        let mut handle = transport
            .spawn("anyhost", &assignment(&dir, &worker))
            .expect("spawn");
        let status = handle.wait_deadline(Instant::now() + Duration::from_secs(10));
        assert_eq!(
            status,
            WorkerStatus::Exited {
                success: true,
                detail: "exit status: 0".to_string()
            }
        );
        assert_eq!(
            read_back(handle.as_mut()).expect("retrieve"),
            "marker local\n"
        );
        // The local transport keeps the shard file in the scratch dir.
        assert!(dir.join("shard-1-of-4.txt").is_file());
    }

    #[test]
    fn command_transport_substitutes_the_host_and_retrieves_through_the_prefix() {
        let dir = scratch("cmd-ok");
        // The prefix double: first argument is the host, the rest is the
        // command, executed in a per-host scratch dir (a miniature of
        // scripts/fake_remote.sh).
        let prefix = script(
            &dir,
            "prefix.sh",
            r#"host="$1"; shift
mkdir -p "$NVFLEET_TEST_ROOT/$host"
cd "$NVFLEET_TEST_ROOT/$host" || exit 9
exec "$@"
"#,
        );
        let worker = script(
            &dir,
            "worker.sh",
            r#"out=""
shard=""
while [ $# -gt 0 ]; do
  if [ "$1" = "--out" ]; then out="$2"; fi
  if [ "$1" = "--shard" ]; then shard="$2"; fi
  shift
done
printf 'host %s shard %s\n' "$(basename "$(pwd)")" "$shard" > "$out"
"#,
        );
        std::env::set_var("NVFLEET_TEST_ROOT", dir.join("remotes"));
        let transport = through(&prefix);
        assert!(transport.label().contains("{host}"));
        let mut handle = transport
            .spawn("alpha", &assignment(&dir, &worker))
            .expect("spawn");
        let status = handle.wait_deadline(Instant::now() + Duration::from_secs(10));
        assert_eq!(
            status,
            WorkerStatus::Exited {
                success: true,
                detail: "exit status: 0".to_string()
            }
        );
        // Retrieval went through the prefix: the file only exists in the
        // simulated host's scratch dir, not the coordinator's.
        assert_eq!(
            read_back(handle.as_mut()).expect("retrieve"),
            "host alpha shard 1/4\n"
        );
        assert!(!dir.join("shard-1-of-4.txt").exists());
        assert!(dir.join("remotes/alpha/shard-1-of-4.txt").is_file());
    }

    #[test]
    fn kill_terminates_a_running_worker() {
        let dir = scratch("kill");
        // `exec`, so the pid `kill` signals is the sleeping one: a shell that
        // had already forked `sleep` would leave it running for a minute.
        let worker = script(&dir, "sleeper.sh", "exec sleep 60\n");
        let transport = LocalProcessTransport;
        let mut handle = transport
            .spawn("anyhost", &assignment(&dir, &worker))
            .expect("spawn");
        assert_eq!(handle.poll(), WorkerStatus::Running);
        handle.kill();
        let status = handle.wait_deadline(Instant::now() + Duration::from_secs(10));
        match status {
            WorkerStatus::Exited { success, detail } => {
                assert!(!success);
                assert!(detail.contains("signal"), "{detail}");
            }
            WorkerStatus::Running => panic!("worker survived kill"),
        }
        // The shard file was never written: retrieval is a clean error.
        assert!(handle.retrieve().is_err());
    }

    #[test]
    fn failed_retrieval_through_the_prefix_is_an_error_not_a_panic() {
        let dir = scratch("cmd-drop");
        // A prefix whose `cat` side always fails: simulates a dropped shard
        // file on the remote host.
        let prefix = script(&dir, "prefix.sh", "shift\nexec \"$@\"\n");
        let worker = script(&dir, "worker.sh", "exit 0\n");
        let transport = through(&prefix);
        let mut assignment = assignment(&dir, &worker);
        assignment.index = 3;
        let mut handle = transport.spawn("beta", &assignment).expect("spawn");
        let status = handle.wait_deadline(Instant::now() + Duration::from_secs(10));
        assert!(matches!(status, WorkerStatus::Exited { success: true, .. }));
        // `cat shard-3-of-4.txt` runs in this process's cwd where no such
        // file exists. The stream opens (the command starts), and the
        // failed `cat` surfaces as a read error at its end, naming the
        // failure, instead of as a silently empty shard.
        let error = read_back(handle.as_mut()).expect_err("missing remote file");
        assert!(error.contains("retrieval command exited with"), "{error}");
    }

    #[test]
    fn empty_prefix_templates_are_rejected() {
        assert!(CommandTransport::from_template("   ").is_err());
        assert!(CommandTransport::new(Vec::<String>::new()).is_err());
    }

    #[test]
    fn spawn_failure_is_a_transport_error() {
        let dir = scratch("no-such-bin");
        let transport = LocalProcessTransport;
        let missing = dir.join("does-not-exist");
        let assignment = ShardAssignment {
            worker_bin: missing.clone(),
            ..assignment(&dir, &missing)
        };
        let error = transport
            .spawn("anyhost", &assignment)
            .err()
            .expect("missing binary cannot spawn");
        assert!(error.message.contains("spawn failed"), "{error}");
    }
}
