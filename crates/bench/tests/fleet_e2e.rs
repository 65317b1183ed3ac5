//! End-to-end fleet tests with real binaries: `campaignd` drives
//! `campaign_report` workers through `CommandTransport` and the
//! `scripts/fake_remote.sh` wrapper — two simulated hosts with their own
//! scratch dirs, one of them dead — and the merged report is byte-identical
//! to a single-host in-process run. A seeded shard corruption must exit
//! with the divergence code and name the exact first differing cell
//! coordinate.

use nvariant_apps::campaigns::report_matrix_plan;
use std::path::PathBuf;
use std::process::Command;

fn campaignd() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaignd"));
    command
        .arg("--worker-bin")
        .arg(env!("CARGO_BIN_EXE_campaign_report"));
    command
}

fn fake_remote() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scripts/fake_remote.sh")
        .canonicalize()
        .expect("scripts/fake_remote.sh exists")
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn two_simulated_hosts_with_one_dead_merge_byte_identically_to_a_single_host_run() {
    let dir = scratch("crash-host");
    let canonical_file = dir.join("fleet-canonical.txt");
    let output = campaignd()
        .args(["--quick", "--shards", "4", "--workers", "1", "--no-cache"])
        .args(["--hosts", "alpha,beta", "--quarantine-after", "1"])
        .arg("--transport")
        .arg(format!("cmd:{} {{host}}", fake_remote().display()))
        .arg("--dir")
        .arg(&dir)
        .arg("--canonical-out")
        .arg(&canonical_file)
        .env("FAKE_REMOTE_ROOT", dir.join("remotes"))
        .env("FAKE_REMOTE_CRASH_HOSTS", "beta")
        .env("FAKE_REMOTE_LATENCY_MS", "5")
        .output()
        .expect("campaignd runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "fleet run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // The dead host was quarantined after its first failure and stayed
    // quarantined (alpha was healthy the whole run), with the failures on
    // the books.
    assert!(
        stdout.contains("host beta: quarantined after 1 consecutive failure(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("per-host stats:"), "{stdout}");
    assert!(stdout.contains("quarantined at end of run"), "{stdout}");
    assert!(stdout.contains("host alpha:"), "{stdout}");
    assert!(stdout.contains("healthy at end of run"), "{stdout}");

    // Shard files really lived host-side: the workers ran inside the fake
    // remotes' per-host scratch dirs, and retrieval went through the
    // prefix (`... cat FILE`), not the coordinator's filesystem.
    assert!(dir.join("remotes/alpha").is_dir(), "alpha scratch exists");
    assert!(
        std::fs::read_dir(dir.join("remotes/alpha"))
            .expect("alpha scratch readable")
            .filter_map(Result::ok)
            .any(|entry| entry.file_name().to_string_lossy().starts_with("shard-")),
        "alpha executed at least one shard host-side"
    );

    // Byte-identical to the single-host in-process run of the same plan.
    let fleet_canonical = std::fs::read_to_string(&canonical_file).expect("canonical written");
    let (plan, _, _) = report_matrix_plan(true);
    assert_eq!(fleet_canonical, plan.run(2).canonical_text());
}

#[test]
fn seeded_corruption_exits_with_the_divergence_code_naming_the_exact_coordinate() {
    let dir = scratch("corruption");
    let cache_dir = dir.join("cache");
    // Authoritative results into the shared cache, in-process.
    let (plan, _, _) = report_matrix_plan(true);
    let cached_plan = plan.clone().with_cache_dir(&cache_dir);
    let _ = cached_plan.run(2);

    let output = campaignd()
        .args(["--quick", "--shards", "2", "--workers", "1"])
        .args(["--corrupt-shard", "1"])
        .arg("--cache-dir")
        .arg(&cache_dir)
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("campaignd runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    // Exit code 5: divergence, distinct from exhaustion (3) and merge
    // rejection (4).
    assert_eq!(
        output.status.code(),
        Some(5),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("corrupted in transit"), "{stdout}");
    assert!(
        stderr.contains("diverges from shared cell cache"),
        "{stderr}"
    );
    // The check names the corrupted shard's exact first cell: shard 1 of 2
    // holds the plan's odd-indexed cells round-robin, so its first cell is
    // the plan's second.
    let spec = &cached_plan.shard(1, 2)[0];
    let (config, world, scenario, replicate) = spec.coordinates();
    let named = format!(
        "first divergence at cell #0 (config {config}, world {world}, scenario {scenario}, \
         replicate {replicate}):"
    );
    let mut lines = stderr.lines().skip_while(|line| *line != named).skip(1);
    // Under it, both canonical lines of that cell: the cached one and the
    // one the transport delivered.
    let cell = format!(
        "config={:?} world={:?} scenario={:?} rep={replicate} ",
        spec.config_label, spec.world_label, spec.scenario_label
    );
    let expected = lines
        .next()
        .and_then(|line| line.strip_prefix("  expected: "));
    let observed = lines
        .next()
        .and_then(|line| line.strip_prefix("  observed: "));
    match (expected, observed) {
        (Some(expected), Some(observed)) => {
            assert!(expected.starts_with(&cell), "{stderr}");
            assert!(observed.starts_with(&cell), "{stderr}");
            assert_ne!(expected, observed, "{stderr}");
        }
        _ => panic!("no expected/observed lines under {named:?}:\n{stderr}"),
    }
}

#[test]
fn dropped_shard_files_on_a_host_are_retried_and_the_run_still_succeeds() {
    let dir = scratch("drop-host");
    let output = campaignd()
        .args(["--quick", "--shards", "2", "--workers", "1", "--no-cache"])
        .args(["--hosts", "gamma,delta", "--quarantine-after", "1"])
        .arg("--transport")
        .arg(format!("cmd:{} {{host}}", fake_remote().display()))
        .arg("--dir")
        .arg(&dir)
        .env("FAKE_REMOTE_ROOT", dir.join("remotes"))
        .env("FAKE_REMOTE_DROP_HOSTS", "delta")
        .output()
        .expect("campaignd runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "fleet run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The dropped file surfaced as a retrieval failure, charged to the
    // host, and the retry landed elsewhere.
    assert!(stdout.contains("shard file retrieval failed"), "{stdout}");
    assert!(
        stdout.contains("host delta: quarantined after 1 consecutive failure(s)"),
        "{stdout}"
    );
}

#[test]
fn help_documents_the_distinct_exit_codes() {
    let output = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .arg("--help")
        .output()
        .expect("campaignd --help runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("exit codes:"), "{stdout}");
    assert!(stdout.contains("3 worker exhaustion"), "{stdout}");
    assert!(stdout.contains("4 merge validation"), "{stdout}");
    assert!(stdout.contains("5 divergence"), "{stdout}");
    assert!(stdout.contains("--hosts"), "{stdout}");
    assert!(stdout.contains("--transport"), "{stdout}");
    assert!(stdout.contains("--quarantine-after"), "{stdout}");
}
