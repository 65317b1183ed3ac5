//! End-to-end tests of the `campaignd` coordinator as real processes: the
//! coordinator spawns `campaign_report --shard` workers, survives a killed
//! worker by retrying its shard, and produces a merged report
//! byte-identical to an unsharded in-process run — while an exhausted
//! shard, a missing shard file, or a foreign plan hash fails the run
//! without executing any cells.

use nvariant_apps::campaigns::report_matrix_plan;
use nvariant_campaign::CampaignReport;
use std::path::PathBuf;
use std::process::Command;

fn campaignd() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaignd"));
    command
        .arg("--worker-bin")
        .arg(env!("CARGO_BIN_EXE_campaign_report"));
    command
}

/// A per-test scratch directory under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn coordinator_merges_shards_byte_identically_even_after_killing_a_worker() {
    let dir = scratch("kill-retry");
    let merged_file = dir.join("merged.txt");
    let output = campaignd()
        .args([
            "--quick",
            "--shards",
            "2",
            "--workers",
            "2",
            "--kill-shard",
            "0",
        ])
        .arg("--dir")
        .arg(&dir)
        .arg("--out")
        .arg(&merged_file)
        .output()
        .expect("campaignd runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "campaignd failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The fault injection really fired and the shard was retried.
    assert!(stdout.contains("killed by --kill-shard"), "{stdout}");
    assert!(stdout.contains("shard 0: retrying (attempt 2)"), "{stdout}");
    assert!(stdout.contains("1 retry"), "{stdout}");

    // The distributed merge is byte-identical to an unsharded in-process
    // run of the same plan.
    let merged_text = std::fs::read_to_string(&merged_file).expect("merged report written");
    let merged = CampaignReport::from_shard_text(&merged_text).expect("merged report parses");
    let (plan, _, _) = report_matrix_plan(true);
    assert_eq!(merged.plan_hash, plan.plan_hash());
    let whole = plan.run(2);
    assert_eq!(merged.canonical_text(), whole.canonical_text());
}

#[test]
fn exhausted_shard_attempts_fail_the_whole_run() {
    let dir = scratch("exhausted");
    // One attempt, and that attempt is killed: the shard can never
    // complete, so the coordinator must exit non-zero and say why.
    let output = campaignd()
        .args(["--quick", "--shards", "2", "--workers", "1"])
        .args(["--kill-shard", "1", "--attempts", "1"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("campaignd runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "coordinator must fail");
    // Worker exhaustion has its own exit code (3), distinct from merge
    // validation failures (4) and divergence (5).
    assert_eq!(output.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("shard 1: exhausted 1 attempt(s)"),
        "{stderr}"
    );
    assert!(
        stderr.contains("SIGKILL") || stderr.contains("signal"),
        "{stderr}"
    );
}

#[test]
fn kill_shard_is_repeatable_and_kills_each_listed_shard_once() {
    let dir = scratch("kill-two");
    let output = campaignd()
        .args(["--quick", "--shards", "3", "--workers", "1"])
        .args(["--kill-shard", "0", "--kill-shard", "2"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("campaignd runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "campaignd failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // Both injections fired, both shards retried, and the summary counts
    // both retries.
    for shard in [0, 2] {
        assert!(
            stdout.contains(&format!(
                "shard {shard}: attempt 1 killed by --kill-shard fault injection"
            )),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("shard {shard}: retrying (attempt 2)")),
            "{stdout}"
        );
    }
    assert!(!stdout.contains("shard 1: retrying"), "{stdout}");
    assert!(stdout.contains("2 retries"), "{stdout}");
}

#[test]
fn out_of_range_fault_injection_is_a_usage_error() {
    let output = campaignd()
        .args(["--quick", "--shards", "2", "--kill-shard", "2"])
        .output()
        .expect("campaignd runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn merge_mode_rejects_missing_shards_and_foreign_plan_hashes_without_running_cells() {
    let dir = scratch("merge-validation");
    // Produce both shard files in-process (the compiled-artifact cache
    // makes this cheap) — the binary under test is the *merger*.
    let (plan, _, _) = report_matrix_plan(true);
    let shard0 = dir.join("shard0.txt");
    let shard1 = dir.join("shard1.txt");
    std::fs::write(&shard0, plan.run_shard(0, 2, 2).to_shard_text()).unwrap();
    std::fs::write(&shard1, plan.run_shard(1, 2, 2).to_shard_text()).unwrap();

    let merge = |files: &[&PathBuf]| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_campaign_report"));
        command.args(["--quick", "--merge"]);
        for file in files {
            command.arg(file);
        }
        command.output().expect("campaign_report runs")
    };

    // The complete pair merges fine, with no re-run.
    let output = merge(&[&shard0, &shard1]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("no re-run"), "{stdout}");

    // A missing shard is a hard error naming the gap.
    let output = merge(&[&shard0]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing"), "{stderr}");

    // A tampered plan hash is rejected before any aggregation.
    let tampered = dir.join("tampered.txt");
    let mut text = std::fs::read_to_string(&shard1).unwrap();
    let hash_line_start = text.find("plan_hash 0x").expect("hash line");
    // Flip one hex digit of the hash in place.
    let digit = hash_line_start + "plan_hash 0x".len();
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    text = String::from_utf8(bytes).unwrap();
    std::fs::write(&tampered, text).unwrap();
    let output = merge(&[&shard0, &tampered]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("does not match this plan"), "{stderr}");

    // A tampered shape line must not shrink the expected matrix: a lone
    // shard whose header declares exactly its own cell set as the whole
    // plan would otherwise pass coverage validation as "complete".
    let shrunk = dir.join("shrunk.txt");
    let shard0_cells = plan.shard(0, 2).len();
    let text = std::fs::read_to_string(&shard0).unwrap();
    let shape = plan.shape();
    let shrunk_text = text.replace(
        &format!(
            "shape {} {} {} {}",
            shape.configs, shape.worlds, shape.scenarios, shape.replicates
        ),
        &format!("shape {shard0_cells} 1 1 1"),
    );
    assert_ne!(shrunk_text, text, "shape line not found to tamper");
    std::fs::write(&shrunk, shrunk_text).unwrap();
    let output = merge(&[&shrunk]);
    assert!(!output.status.success(), "shrunken shape must be rejected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("declares matrix shape"), "{stderr}");
}

#[test]
fn merge_verify_rerun_names_the_first_differing_cell() {
    let dir = scratch("merge-verify");
    let (plan, _, _) = report_matrix_plan(true);
    let shard0 = dir.join("shard0.txt");
    let shard1 = dir.join("shard1.txt");
    std::fs::write(&shard0, plan.run_shard(0, 2, 2).to_shard_text()).unwrap();
    // Shard 1 altered the way `campaignd --corrupt-shard` alters a shard in
    // transit: the last counter of its first `metrics` line is bumped, so
    // the file still parses and covers its cells.
    let text = plan.run_shard(1, 2, 2).to_shard_text();
    let metrics = text.find("\nmetrics ").expect("metrics line") + 1;
    let end = metrics + text[metrics..].find('\n').expect("line end");
    let (head, last) = text[metrics..end].rsplit_once(' ').expect("counters");
    let bumped = last.parse::<u64>().expect("counter") + 1;
    let altered = format!("{}{head} {bumped}{}", &text[..metrics], &text[end..]);
    std::fs::write(&shard1, altered).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_campaign_report"))
        .args(["--quick", "--workers", "2", "--merge"])
        .arg(&shard0)
        .arg(&shard1)
        .arg("--verify-rerun")
        .output()
        .expect("campaign_report runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stdout}\n{stderr}");
    assert!(stdout.contains("MISMATCH"), "{stdout}");
    // Shard 1's first cell is the plan's second: merged cell #1.
    let (config, world, scenario, replicate) = plan.shard(1, 2)[0].coordinates();
    let named = format!(
        "first divergence at cell #1 (config {config}, world {world}, scenario {scenario}, \
         replicate {replicate}):"
    );
    let mut lines = stderr.lines().skip_while(|line| *line != named).skip(1);
    let expected = lines
        .next()
        .and_then(|line| line.strip_prefix("  expected: "));
    let observed = lines
        .next()
        .and_then(|line| line.strip_prefix("  observed: "));
    match (expected, observed) {
        (Some(expected), Some(observed)) => assert_ne!(expected, observed, "{stderr}"),
        _ => panic!("no expected/observed lines under {named:?}:\n{stderr}"),
    }
}
