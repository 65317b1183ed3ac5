//! Hermetic `Fleet` scheduler tests: a mock transport with scripted host
//! behaviors (success, crash, hang, limited crashes) drives the scheduler
//! through warm serving, retries, quarantine, re-admission, exhaustion,
//! fault injection and divergence diagnosis — no real worker processes.

use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_campaign::{CampaignPlan, CampaignReport, CellSpec, Scenario};
use nvariant_fleet::{
    Divergence, Fleet, FleetConfig, FleetError, FleetRun, ShardAssignment, TransportError,
    WorkerHandle, WorkerStatus, WorkerTransport,
};
use std::collections::BTreeSet;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ECHO_SERVER: &str = r#"
    fn main() -> int {
        var sock: int; var conn: int; var request: buf[128];
        sock = socket(); bind(sock, 80); listen(sock); setuid(48);
        conn = accept(sock);
        while (conn >= 0) {
            recv(conn, &request, 127);
            send_str(conn, "HTTP/1.0 200 OK\r\n\r\nok");
            close(conn);
            conn = accept(sock);
        }
        return 0;
    }
"#;

/// A 1 config x 1 world x 1 scenario x 4 replicate plan: 4 cells, so a
/// 2-shard split gives each shard 2 round-robin cells.
fn plan() -> CampaignPlan {
    let compiled = Arc::new(
        NVariantSystemBuilder::from_source(ECHO_SERVER)
            .expect("parse echo server")
            .config(DeploymentConfig::TwoVariantUid)
            .compile()
            .expect("compile echo server"),
    );
    CampaignPlan::new("fleet-test")
        .config(compiled)
        .scenario(Scenario::fixed_requests(
            "ping",
            vec![b"GET / HTTP/1.0\r\n\r\n".to_vec()],
        ))
        .replicates(4)
}

/// An empty directory for this process: one a recycled process id left
/// behind would hand a test another run's cell packs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvfleet-sched-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// What a mock host does with every attempt it receives.
#[derive(Clone, Debug)]
enum HostBehavior {
    /// Exit successfully and serve the shard's prepared text.
    Ok,
    /// Crash every attempt.
    CrashAlways,
    /// Crash the first `n` attempts, then behave.
    CrashTimes(usize),
    /// Never exit (the scheduler's timeout must kill it).
    Hang,
    /// Exit successfully but deliver these bytes in place of the shard's
    /// text on the first attempt, then behave.
    DamagedOnce(Vec<u8>),
}

struct MockTransport {
    /// Prepared shard interchange text, indexed by shard.
    texts: Vec<String>,
    behaviors: Mutex<Vec<(String, HostBehavior)>>,
}

impl MockTransport {
    fn new(texts: Vec<String>, behaviors: Vec<(&str, HostBehavior)>) -> Self {
        MockTransport {
            texts,
            behaviors: Mutex::new(
                behaviors
                    .into_iter()
                    .map(|(host, behavior)| (host.to_string(), behavior))
                    .collect(),
            ),
        }
    }
}

struct MockHandle {
    exits_ok: bool,
    hangs: bool,
    killed: bool,
    text: Vec<u8>,
}

impl WorkerHandle for MockHandle {
    fn poll(&mut self) -> WorkerStatus {
        if self.killed {
            return WorkerStatus::Exited {
                success: false,
                detail: "signal: 9 (SIGKILL)".to_string(),
            };
        }
        if self.hangs {
            return WorkerStatus::Running;
        }
        WorkerStatus::Exited {
            success: self.exits_ok,
            detail: if self.exits_ok {
                "exit status: 0".to_string()
            } else {
                "exit status: 1".to_string()
            },
        }
    }

    fn kill(&mut self) {
        self.killed = true;
    }

    fn retrieve(&mut self) -> Result<Box<dyn BufRead + Send>, TransportError> {
        Ok(Box::new(std::io::Cursor::new(self.text.clone())))
    }
}

impl WorkerTransport for MockTransport {
    fn label(&self) -> String {
        "mock".to_string()
    }

    fn spawn(
        &self,
        host: &str,
        assignment: &ShardAssignment,
    ) -> Result<Box<dyn WorkerHandle>, TransportError> {
        let mut behaviors = self.behaviors.lock().unwrap();
        let behavior = behaviors
            .iter_mut()
            .find(|(name, _)| name == host)
            .map(|(_, behavior)| behavior)
            .expect("spawn on an unconfigured host");
        let mut text = self.texts[assignment.index].clone().into_bytes();
        let (exits_ok, hangs) = match behavior {
            HostBehavior::Ok => (true, false),
            HostBehavior::CrashAlways => (false, false),
            HostBehavior::CrashTimes(remaining) => {
                if *remaining > 0 {
                    *remaining -= 1;
                    (false, false)
                } else {
                    (true, false)
                }
            }
            HostBehavior::Hang => (true, true),
            HostBehavior::DamagedOnce(damaged) => {
                text = std::mem::take(damaged);
                *behavior = HostBehavior::Ok;
                (true, false)
            }
        };
        Ok(Box::new(MockHandle {
            exits_ok,
            hangs,
            killed: false,
            text,
        }))
    }
}

fn shard_texts(plan: &CampaignPlan, shards: usize) -> Vec<String> {
    (0..shards)
        .map(|index| plan.run_shard(index, shards, 1).to_shard_text())
        .collect()
}

/// The canonical text of a run's validated shard files, merged by the one
/// merge.
fn merged_canonical(run: &FleetRun) -> String {
    let shards = run.spools.iter().map(|spool| {
        let text = std::fs::read_to_string(spool).expect("spool readable");
        CampaignReport::from_shard_text(&text).expect("spool parses")
    });
    CampaignReport::merge(shards)
        .expect("validated shards merge")
        .canonical_text()
}

fn quick_config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        poll_interval: Duration::from_millis(1),
        ..FleetConfig::default()
    }
}

/// A fleet over mock hosts, collecting progress lines. Every fleet gets a
/// spool directory of its own: tests run in parallel, and a shared one
/// would let one test's spooled shard files overwrite another's.
fn fleet_over<'a>(
    plan: &'a CampaignPlan,
    transport: MockTransport,
    hosts: &[&str],
    config: FleetConfig,
    log: Arc<Mutex<Vec<String>>>,
) -> Fleet<'a> {
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let spool = scratch(&format!("spool-{}", FLEETS.fetch_add(1, Ordering::Relaxed)));
    Fleet::new(
        plan,
        Box::new(transport),
        PathBuf::from("/unused/worker"),
        spool,
    )
    .hosts(hosts.iter().map(|h| (*h).to_string()).collect())
    .config(config)
    .on_progress(move |line| log.lock().unwrap().push(line.to_string()))
}

#[test]
fn healthy_pool_splits_shards_and_merges_byte_identically() {
    let plan = plan();
    let whole = plan.run(1);
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(
        texts,
        vec![("alpha", HostBehavior::Ok), ("beta", HostBehavior::Ok)],
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    let run = fleet_over(&plan, transport, &["alpha", "beta"], quick_config(2), log)
        .run()
        .expect("healthy run succeeds");

    assert_eq!(merged_canonical(&run), whole.canonical_text());
    assert_eq!(run.retries, 0);
    assert_eq!(run.warm_shards, 0);
    // Least-loaded assignment spreads 2 shards over 2 hosts: one attempt
    // each, both successful, nobody quarantined.
    for host in &run.hosts {
        assert_eq!(host.attempts, 1, "{host}");
        assert_eq!(host.successes, 1, "{host}");
        assert_eq!(host.failures, 0, "{host}");
        assert!(!host.quarantined, "{host}");
    }
    let summary = run.render_host_summary();
    assert!(summary.contains("host alpha: 1 attempt(s)"), "{summary}");
    assert!(summary.contains("healthy at end of run"), "{summary}");
}

#[test]
fn crashing_host_is_quarantined_and_work_moves_to_the_healthy_one() {
    let plan = plan();
    let whole = plan.run(1);
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(
        texts,
        vec![
            ("flaky", HostBehavior::CrashAlways),
            ("steady", HostBehavior::Ok),
        ],
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        quarantine_after: 1,
        ..quick_config(2)
    };
    let run = fleet_over(
        &plan,
        transport,
        &["flaky", "steady"],
        config,
        Arc::clone(&log),
    )
    .run()
    .expect("the healthy host absorbs the work");

    assert_eq!(merged_canonical(&run), whole.canonical_text());
    assert_eq!(run.retries, 1);
    let flaky = &run.hosts[0];
    assert_eq!(flaky.name, "flaky");
    assert_eq!(flaky.failures, 1);
    assert_eq!(flaky.quarantines, 1);
    assert!(flaky.quarantined, "stays quarantined: steady is healthy");
    let steady = &run.hosts[1];
    assert_eq!(steady.successes, 2);
    let lines = log.lock().unwrap().join("\n");
    assert!(
        lines.contains("host flaky: quarantined after 1 consecutive failure(s)"),
        "{lines}"
    );
    assert!(run
        .render_host_summary()
        .contains("quarantined at end of run"));
}

#[test]
fn sole_host_is_readmitted_from_quarantine() {
    let plan = plan();
    let texts = shard_texts(&plan, 1);
    let transport = MockTransport::new(texts, vec![("solo", HostBehavior::CrashTimes(1))]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        quarantine_after: 1,
        ..quick_config(1)
    };
    let run = fleet_over(&plan, transport, &["solo"], config, Arc::clone(&log))
        .run()
        .expect("re-admission lets the retry land");

    let solo = &run.hosts[0];
    assert_eq!(solo.attempts, 2);
    assert_eq!(solo.failures, 1);
    assert_eq!(solo.quarantines, 1);
    assert!(!solo.quarantined, "re-admitted and then succeeded");
    let lines = log.lock().unwrap().join("\n");
    assert!(lines.contains("re-admitted from quarantine"), "{lines}");
}

#[test]
fn exhausted_shard_fails_the_run_with_every_attempt_reason() {
    let plan = plan();
    let texts = shard_texts(&plan, 1);
    let transport = MockTransport::new(texts, vec![("dead", HostBehavior::CrashAlways)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        attempts: 2,
        ..quick_config(1)
    };
    let error = fleet_over(&plan, transport, &["dead"], config, log)
        .run()
        .expect_err("a dead pool exhausts the shard");
    match &error {
        FleetError::Exhausted {
            shard,
            attempts,
            failures,
        } => {
            assert_eq!(*shard, 0);
            assert_eq!(*attempts, 2);
            assert_eq!(failures.len(), 2);
        }
        other @ FleetError::Divergence { .. } => panic!("expected Exhausted, got {other:?}"),
    }
    let rendered = error.to_string();
    assert!(
        rendered.contains("shard 0: exhausted 2 attempt(s)"),
        "{rendered}"
    );
    assert!(rendered.contains("exit status: 1"), "{rendered}");
}

#[test]
fn hung_worker_is_killed_by_the_attempt_timeout() {
    let plan = plan();
    let texts = shard_texts(&plan, 1);
    let transport = MockTransport::new(texts, vec![("tarpit", HostBehavior::Hang)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        attempts: 1,
        timeout: Duration::from_millis(30),
        ..quick_config(1)
    };
    let error = fleet_over(&plan, transport, &["tarpit"], config, log)
        .run()
        .expect_err("the hung attempt is the only one");
    let rendered = error.to_string();
    assert!(rendered.contains("timed out after"), "{rendered}");
    assert!(rendered.contains("was killed"), "{rendered}");
}

#[test]
fn kill_injection_fires_then_the_retry_collects() {
    let plan = plan();
    let whole = plan.run(1);
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(texts, vec![("alpha", HostBehavior::Ok)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        kill_shards: BTreeSet::from([0]),
        ..quick_config(2)
    };
    let run = fleet_over(&plan, transport, &["alpha"], config, Arc::clone(&log))
        .run()
        .expect("retry after the injected kill");

    assert_eq!(merged_canonical(&run), whole.canonical_text());
    assert_eq!(run.retries, 1);
    assert_eq!(run.hosts[0].failures, 1);
    let lines = log.lock().unwrap().join("\n");
    assert!(lines.contains("killed by --kill-shard"), "{lines}");
    assert!(lines.contains("shard 0: retrying (attempt 2)"), "{lines}");
    assert!(lines.contains("SIGKILL"), "{lines}");
}

#[test]
fn fully_cached_plan_is_served_warm_without_a_single_spawn() {
    let dir = scratch("warm-cache");
    let plan = plan().with_cache_dir(&dir);
    let whole = plan.run(1); // populates the cache
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(texts, vec![("alpha", HostBehavior::Ok)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let run = fleet_over(
        &plan,
        transport,
        &["alpha"],
        quick_config(2),
        Arc::clone(&log),
    )
    .run()
    .expect("warm run succeeds");

    assert_eq!(merged_canonical(&run), whole.canonical_text());
    assert_eq!(run.warm_shards, 2);
    assert_eq!(run.warm_cells, 4);
    assert_eq!(run.hosts[0].attempts, 0, "no worker ever spawned");
    let lines = log.lock().unwrap().join("\n");
    assert!(lines.contains("shard 0: served warm from cache"), "{lines}");
    assert!(lines.contains("shard 1: served warm from cache"), "{lines}");
}

#[test]
fn zero_shards_runs_the_plan_as_one_shard() {
    let dir = scratch("zero-shards");
    let plan = plan().with_cache_dir(&dir);
    let whole = plan.run(1); // populates the cache
    let transport = MockTransport::new(shard_texts(&plan, 1), vec![("alpha", HostBehavior::Ok)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let run = fleet_over(&plan, transport, &["alpha"], quick_config(0), log)
        .run()
        .expect("a zero shard count runs as one shard");

    assert_eq!(run.warm_shards, 1);
    assert_eq!(run.warm_cells, 4);
    assert_eq!(merged_canonical(&run), whole.canonical_text());
}

#[test]
fn corrupt_injection_is_diagnosed_to_the_exact_first_coordinate() {
    let dir = scratch("divergence-cache");
    let plan = plan().with_cache_dir(&dir);
    let _ = plan.run(1); // authoritative results into the cache
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(texts, vec![("alpha", HostBehavior::Ok)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let config = FleetConfig {
        corrupt_shards: BTreeSet::from([1]),
        ..quick_config(2)
    };
    let error = fleet_over(&plan, transport, &["alpha"], config, Arc::clone(&log))
        .run()
        .expect_err("the corrupted shard must be caught");
    match &error {
        FleetError::Divergence {
            shard,
            against,
            divergence,
        } => {
            assert_eq!(*shard, Some(1));
            assert_eq!(against, "shared cell cache");
            // Shard 1 of 2 over 4 replicates holds cells (0,0,0,1) and
            // (0,0,0,3) round-robin; the corruption hits its first cell.
            match divergence.as_ref() {
                Divergence::Cell {
                    index,
                    coordinates,
                    expected,
                    observed,
                } => {
                    assert_eq!(*index, 0);
                    assert_eq!(*coordinates, (0, 0, 0, 1));
                    assert_ne!(expected, observed);
                }
                Divergence::Length { .. } => panic!("not a length mismatch"),
            }
        }
        other @ FleetError::Exhausted { .. } => panic!("expected Divergence, got {other:?}"),
    }
    let rendered = error.to_string();
    assert!(
        rendered.contains("(config 0, world 0, scenario 0, replicate 1)"),
        "{rendered}"
    );
    assert!(
        rendered.contains("diverges from shared cell cache"),
        "{rendered}"
    );
}

#[test]
fn uncached_honest_hosts_pass_the_cross_check_trivially() {
    // No cache configured: the cross-check is skipped entirely, and the
    // corruption injection (which needs the cache as the authority) is the
    // only way a valid-but-wrong shard could slip through — which is why
    // campaignd's --corrupt-shard requires --cache-dir.
    let plan = plan();
    let whole = plan.run(1);
    let texts = shard_texts(&plan, 2);
    let transport = MockTransport::new(texts, vec![("alpha", HostBehavior::Ok)]);
    let log = Arc::new(Mutex::new(Vec::new()));
    let run = fleet_over(&plan, transport, &["alpha"], quick_config(2), log)
        .run()
        .expect("honest hosts pass");
    assert_eq!(merged_canonical(&run), whole.canonical_text());
}

/// Rewrites the seed of a shard text's first cell, the way a transport
/// could alter it in transit without breaking the file's structure.
fn with_first_seed_altered(text: &str) -> String {
    let mut altered = false;
    let mut out = String::new();
    for line in text.lines() {
        match line.strip_prefix("cell ") {
            Some(fields) if !altered => {
                let mut fields: Vec<&str> = fields.split(' ').collect();
                fields[4] = "0x0000000000000001";
                out.push_str(&format!("cell {}\n", fields.join(" ")));
                altered = true;
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Flips one digit of the `metrics` line of `spec`'s record in the plan's
/// cell-cache packs, so the record fails its checksum and the cell misses
/// the cache.
fn damage_record(root: &Path, plan: &CampaignPlan, spec: &CellSpec) {
    let (config, world, scenario, replicate) = spec.coordinates();
    let frame = format!("record {config} {world} {scenario} {replicate} ");
    let dir = root
        .join("cells")
        .join(format!("{:016x}", plan.plan_hash()));
    for entry in std::fs::read_dir(dir).expect("cell packs written") {
        let pack = entry.expect("pack readable").path();
        let mut bytes = std::fs::read(&pack).expect("pack readable");
        let find = |needle: &[u8], from: usize| {
            bytes[from..]
                .windows(needle.len())
                .position(|window| window == needle)
                .map(|at| from + at + needle.len())
        };
        let Some(record) = find(frame.as_bytes(), 0) else {
            continue;
        };
        let digit = find(b"\nmetrics ", record).expect("record has a metrics line");
        bytes[digit] = if bytes[digit] == b'1' { b'2' } else { b'1' };
        std::fs::write(&pack, bytes).expect("pack writable");
        return;
    }
    panic!("no record of cell {:?}", spec.coordinates());
}

#[test]
fn a_cell_with_an_altered_seed_is_refused_with_and_without_a_cache() {
    for cached in [false, true] {
        let plan = if cached {
            plan().with_cache_dir(scratch("altered-seed-cache"))
        } else {
            plan()
        };
        // With a cache, shard_texts fills it; damaging one record of shard
        // 1 makes that shard spawn a worker while its first cell, the one
        // the transport alters, stays cached.
        let mut texts = shard_texts(&plan, 2);
        if let Some(root) = plan.cache_dir() {
            damage_record(root, &plan, &plan.shard(1, 2)[1]);
        }
        texts[1] = with_first_seed_altered(&texts[1]);
        let transport = MockTransport::new(texts, vec![("alpha", HostBehavior::Ok)]);
        let log = Arc::new(Mutex::new(Vec::new()));
        let error = fleet_over(&plan, transport, &["alpha"], quick_config(2), log)
            .run()
            .expect_err("a shard whose cell the plan does not fix must not be collected");
        match &error {
            FleetError::Exhausted {
                shard, failures, ..
            } => {
                assert_eq!(*shard, 1, "cached: {cached}");
                assert_eq!(failures.len(), 3, "cached: {cached}");
                for failure in failures {
                    assert!(
                        failure.contains("shard cell set mismatch") && failure.contains("cell #0"),
                        "cached: {cached}: {failure}"
                    );
                }
            }
            other @ FleetError::Divergence { .. } => {
                panic!("cached: {cached}: expected Exhausted, got {other:?}")
            }
        }
    }
}

/// A change to one line's bytes, its `\n` left out.
type Damage = dyn Fn(&mut Vec<u8>);

/// `text` with its first `exchange` line passed through `damage`.
fn with_first_exchange_damaged(text: &str, damage: &Damage) -> Vec<u8> {
    let mut out = Vec::new();
    let mut damaged = false;
    for line in text.lines() {
        let mut bytes = line.as_bytes().to_vec();
        if !damaged && line.starts_with("exchange ") {
            damage(&mut bytes);
            damaged = true;
        }
        out.extend_from_slice(&bytes);
        out.push(b'\n');
    }
    assert!(damaged, "the shard holds an exchange line");
    out
}

#[test]
fn damaged_exchange_lines_fail_one_attempt_and_the_retry_merges_byte_identically() {
    let plan = plan();
    let whole = plan.run(1);
    let texts = shard_texts(&plan, 1);
    // Line 15 is the first exchange line, `exchange <request> <response>`:
    // its request token starts after the 9 bytes of `exchange `.
    let damages: [(&Damage, &str); 5] = [
        (
            &|line| line[9] = b'g',
            "parse error at line 15: bad hex digit 'g'",
        ),
        (
            &|line| {
                line.pop();
            },
            "parse error at line 15: odd-length hex payload (41 bytes)",
        ),
        (
            &|line| line[10] = 0xff,
            "parse error at line 15: cannot read line: stream did not contain valid UTF-8",
        ),
        (
            &|line| line[11] = b' ',
            "parse error at line 15: exchange needs request and response payloads, got 3",
        ),
        (
            &|line| line.resize(nvariant_types::lines::MAX_LINE_BYTES, b'0'),
            "parse error at line 15: line exceeds 1048576 bytes",
        ),
    ];
    for (damage, reason) in damages {
        let transport = MockTransport::new(
            texts.clone(),
            vec![(
                "alpha",
                HostBehavior::DamagedOnce(with_first_exchange_damaged(&texts[0], damage)),
            )],
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        let run = fleet_over(
            &plan,
            transport,
            &["alpha"],
            quick_config(1),
            Arc::clone(&log),
        )
        .run()
        .unwrap_or_else(|error| panic!("{reason}: the retry must collect: {error}"));
        let lines = log.lock().unwrap();
        let retried = lines
            .iter()
            .find_map(|line| line.strip_prefix("shard 0: retrying (attempt 2): attempt 1: "))
            .unwrap_or_else(|| panic!("{reason}: no retry logged in {lines:?}"));
        assert!(retried.ends_with(reason), "{retried}");
        assert_eq!(run.retries, 1, "{reason}");
        assert_eq!(run.hosts[0].failures, 1, "{reason}");
        assert_eq!(merged_canonical(&run), whole.canonical_text(), "{reason}");
    }
}
