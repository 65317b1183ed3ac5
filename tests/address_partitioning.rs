//! Integration test of the Figure 1 scenario: address-space partitioning
//! detects complete absolute-address injection, and the extended variant of
//! Bruschi et al. additionally perturbs partial overwrites.

use nvariant::prelude::*;
use nvariant_diversity::AddressTransform;

const ABSOLUTE_WRITE: &str = r"
    var target: int = 5;
    fn main() -> int {
        var p: ptr;
        p = 0x00100000;
        *p = 99;
        return target;
    }
";

#[test]
fn absolute_address_injection_succeeds_alone_and_is_detected_partitioned() {
    let mut single = NVariantSystemBuilder::from_source(ABSOLUTE_WRITE)
        .unwrap()
        .config(DeploymentConfig::Unmodified)
        .build()
        .unwrap();
    let outcome = single.run();
    // The absolute write landed on the global and changed the exit status.
    assert_eq!(outcome.exit_status, Some(99));

    let mut partitioned = NVariantSystemBuilder::from_source(ABSOLUTE_WRITE)
        .unwrap()
        .config(DeploymentConfig::TwoVariantAddress)
        .build()
        .unwrap();
    let outcome = partitioned.run();
    assert!(outcome.detected_attack());
    let alarm = outcome.alarm.unwrap();
    assert!(matches!(alarm.kind, DivergenceKind::VariantFault { .. }));
}

#[test]
fn partitioned_variants_serve_identical_content_from_disjoint_address_spaces() {
    use nvariant_apps::scenarios::run_requests;
    use nvariant_apps::workload::benign_request;
    let cell = run_requests(
        &DeploymentConfig::TwoVariantAddress,
        &[benign_request("/index.html"), benign_request("/news.html")],
    );
    assert!(cell.outcome.exited_normally(), "{}", cell.outcome);
    assert_eq!(cell.tally().ok, 2);
}

#[test]
fn extended_partitioning_also_skews_relative_layout() {
    let base = Variation::address_partitioning().variant_specs(2);
    let extended = Variation::extended_address_partitioning(0x40).variant_specs(2);
    assert_eq!(base[1].addr, AddressTransform::PartitionHigh);
    assert_eq!(
        extended[1].addr,
        AddressTransform::PartitionHighWithOffset(0x40)
    );
    // The extended variant displaces every address by the partition bit plus
    // the offset, so even a low-order partial overwrite lands differently.
    assert_ne!(base[1].addr.displacement(), extended[1].addr.displacement());

    // And a custom deployment using it still runs cleanly.
    let config = DeploymentConfig::Custom {
        variation: Variation::extended_address_partitioning(0x40),
        variants: 2,
        transform_uids: false,
    };
    let mut system = NVariantSystemBuilder::from_source(
        "fn main() -> int { var b: buf[32]; strcpy(&b, \"hello\"); return strlen(&b); }",
    )
    .unwrap()
    .config(config)
    .build()
    .unwrap();
    let outcome = system.run();
    assert_eq!(outcome.exit_status, Some(5));
}

#[test]
fn instruction_tagging_deployment_detects_nothing_on_clean_runs() {
    let mut system = NVariantSystemBuilder::from_source(
        "fn main() -> int { var i: int = 0; while (i < 50) { i = i + 1; } return i; }",
    )
    .unwrap()
    .config(DeploymentConfig::two_variant_instruction_tagging())
    .build()
    .unwrap();
    let outcome = system.run();
    assert_eq!(outcome.exit_status, Some(50));
    assert!(!outcome.detected_attack());
}
