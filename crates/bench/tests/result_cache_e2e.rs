//! End-to-end tests of the cross-process result cache as real processes:
//! a cold `campaign_report` run populates the artifact store and cell
//! cache, a warm run re-reads everything (byte-identical canonical output,
//! zero misses, zero recompilation), corruption falls back to recompute,
//! `campaignd` serves a killed shard's retry warm from the cache, and
//! degenerate `--shard` specs are rejected up front.

use std::path::PathBuf;
use std::process::Command;

fn campaign_report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign_report"))
}

fn campaignd() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaignd"));
    command
        .arg("--worker-bin")
        .arg(env!("CARGO_BIN_EXE_campaign_report"));
    command
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("result-cache-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_ok(command: &mut Command, label: &str) -> String {
    let output = command.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{label} failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

#[test]
fn cold_then_warm_runs_are_byte_identical_with_full_cache_hits() {
    let dir = scratch("cold-warm");
    let cache = dir.join("cache");
    let cold_canonical = dir.join("cold.txt");
    let warm_canonical = dir.join("warm.txt");

    let cold = run_ok(
        campaign_report()
            .args(["--quick", "--workers", "2"])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&cold_canonical),
        "cold campaign_report",
    );
    // The cold run's *main* sweep missed every cell and compiled every
    // artifact fresh.
    assert!(cold.contains("cell cache: 0 hits"), "{cold}");
    assert!(cold.contains("Artifact store"), "{cold}");

    let warm = run_ok(
        campaign_report()
            .args(["--quick", "--workers", "2"])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&warm_canonical),
        "warm campaign_report",
    );
    // Every cell of the warm main sweep is a cache hit — and nothing was
    // recompiled: the artifact store reports no misses either.
    assert!(warm.contains(", 0 misses, 0 invalidations"), "{warm}");
    assert!(!warm.contains("cell cache: 0 hits"), "{warm}");
    let store_line = warm
        .lines()
        .find(|l| l.starts_with("Artifact store"))
        .expect("store line");
    assert!(store_line.contains(" 0 misses"), "{store_line}");

    let cold_text = std::fs::read_to_string(&cold_canonical).unwrap();
    let warm_text = std::fs::read_to_string(&warm_canonical).unwrap();
    assert!(!cold_text.is_empty());
    assert_eq!(cold_text, warm_text, "warm run must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_recover_by_recomputing() {
    let dir = scratch("corruption-recovery");
    let cache = dir.join("cache");
    let cold_canonical = dir.join("cold.txt");
    let recovered_canonical = dir.join("recovered.txt");

    run_ok(
        campaign_report()
            .args(["--quick", "--workers", "2"])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&cold_canonical),
        "cold campaign_report",
    );

    // Corrupt one cell record (one flipped payload digit, which only its
    // checksum catches) and one artifact entry (garbage).
    let cells_root = cache.join("cells");
    let cell_dir = std::fs::read_dir(&cells_root)
        .expect("cell cache populated")
        .find_map(Result::ok)
        .expect("one plan hash dir")
        .path();
    let pack = std::fs::read_dir(&cell_dir)
        .unwrap()
        .find_map(Result::ok)
        .expect("one cell pack")
        .path();
    let mut bytes = std::fs::read(&pack).unwrap();
    let digit = bytes
        .windows(10)
        .position(|window| window == b"\nexchange ")
        .expect("a record with an exchange")
        + 10;
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(&pack, bytes).unwrap();

    let artifact_entry = std::fs::read_dir(cache.join("artifacts"))
        .expect("artifact store populated")
        .find_map(Result::ok)
        .expect("one artifact entry")
        .path();
    std::fs::write(&artifact_entry, "garbage").unwrap();

    // The damaged entries recompute — reported as invalidations, not
    // failures — and the output stays byte-identical.
    let recovered = run_ok(
        campaign_report()
            .args(["--quick", "--workers", "2"])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&recovered_canonical),
        "recovery campaign_report",
    );
    assert!(recovered.contains("1 invalidations"), "{recovered}");
    assert!(
        recovered.lines().any(
            |line| line.contains("cell cache:") && line.ends_with(" 0 misses, 1 invalidations")
        ),
        "{recovered}"
    );
    assert_eq!(
        std::fs::read_to_string(&cold_canonical).unwrap(),
        std::fs::read_to_string(&recovered_canonical).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaignd_serves_a_killed_shards_retry_warm_from_cache() {
    let dir = scratch("warm-retry");
    let cache = dir.join("cache");
    let cold_canonical = dir.join("cold.txt");
    let warm_canonical = dir.join("warm.txt");

    // Cold distributed run: workers execute and populate the cache.
    let cold = run_ok(
        campaignd()
            .args(["--quick", "--shards", "2", "--workers", "2"])
            .arg("--dir")
            .arg(dir.join("shards-cold"))
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&cold_canonical),
        "cold campaignd",
    );
    assert!(cold.contains("0/2 shards served warm"), "{cold}");

    // Warm run with fault injection: shard 0's first attempt spawns a real
    // worker (the injection must fire) and is killed; its *retry* — and
    // shard 1's first attempt — are served from cache as file reads.
    let warm = run_ok(
        campaignd()
            .args(["--quick", "--shards", "2", "--workers", "2"])
            .args(["--kill-shard", "0"])
            .arg("--dir")
            .arg(dir.join("shards-warm"))
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--canonical-out")
            .arg(&warm_canonical),
        "warm campaignd",
    );
    assert!(warm.contains("killed by --kill-shard"), "{warm}");
    assert!(
        warm.contains("shard 0: served warm from cache") && warm.contains("attempt 2"),
        "{warm}"
    );
    assert!(warm.contains("shard 1: served warm from cache"), "{warm}");
    assert!(warm.contains("2/2 shards served warm"), "{warm}");

    // The warm, retried, file-read-served run is byte-identical to the
    // cold distributed run.
    assert_eq!(
        std::fs::read_to_string(&cold_canonical).unwrap(),
        std::fs::read_to_string(&warm_canonical).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_shard_specs_are_rejected_with_clear_errors() {
    // N == 0: no such division of the plan exists.
    let output = campaign_report()
        .args(["--quick", "--shard", "0/0", "--out", "/dev/null"])
        .output()
        .expect("campaign_report runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("shard count must be positive"), "{stderr}");

    // I >= N: the shard would be empty/undefined, never silently produced.
    let output = campaign_report()
        .args(["--quick", "--shard", "2/2", "--out", "/dev/null"])
        .output()
        .expect("campaign_report runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("out of range") && stderr.contains("valid indices are 0..2"),
        "{stderr}"
    );

    // Malformed specs still name the expected form.
    let output = campaign_report()
        .args(["--quick", "--shard", "nonsense", "--out", "/dev/null"])
        .output()
        .expect("campaign_report runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("expects I/N"), "{stderr}");
}
