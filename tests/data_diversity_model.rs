//! Integration test of the paper's model (Figure 2, §2): normal equivalence
//! and detection, checked end to end through the public API.

use nvariant::prelude::*;
use nvariant_apps::httpd_source;
use nvariant_apps::workload::benign_request;
use nvariant_diversity::verify_variation;
use nvariant_transform::TransformOptions;
use proptest::prelude::*;

/// The program used for the normal-equivalence checks: it exercises every
/// kind of UID flow (kernel to program, program to kernel, constants,
/// comparisons, external data via /etc/passwd) without any vulnerability.
const CLEAN_SERVER: &str = r#"
    var service_uid: uid_t;

    fn lookup(name: ptr) -> uid_t {
        var fd: int;
        var text: buf[1024];
        var n: int;
        var pos: int;
        var field: int;
        var value: int;
        fd = open("/etc/passwd", 0);
        if (fd < 0) { return 0; }
        n = read(fd, &text, 1000);
        close(fd);
        text[n] = 0;
        pos = 0;
        while (text[pos] != 0) {
            if (starts_with(text + pos, name)) {
                field = 0;
                while (field < 2) {
                    while (text[pos] != ':') { pos = pos + 1; }
                    pos = pos + 1;
                    field = field + 1;
                }
                value = 0;
                while (text[pos] >= '0' && text[pos] <= '9') {
                    value = value * 10 + (text[pos] - '0');
                    pos = pos + 1;
                }
                return value;
            }
            while (text[pos] != 0 && text[pos] != '\n') { pos = pos + 1; }
            if (text[pos] == '\n') { pos = pos + 1; }
        }
        return 0;
    }

    fn main() -> int {
        var rc: int;
        service_uid = lookup("httpd");
        if (service_uid == 0) { return 1; }
        if (service_uid >= 65534) { return 2; }
        rc = setuid(service_uid);
        if (rc != 0) { return 3; }
        if (geteuid() == 0) { return 4; }
        if (geteuid() != getuid()) { return 5; }
        return 0;
    }
"#;

#[test]
fn normal_equivalence_holds_across_all_configurations() {
    // The same program produces the same observable behaviour whether run
    // unprotected, transformed, or as any 2-variant system.
    let mut reference = None;
    for config in DeploymentConfig::paper_configurations() {
        let mut system = NVariantSystemBuilder::from_source(CLEAN_SERVER)
            .unwrap()
            .config(config.clone())
            .initial_uid(Uid::ROOT)
            .build()
            .unwrap();
        let outcome = system.run();
        assert!(outcome.exited_normally(), "{config}: {outcome}");
        assert_eq!(outcome.exit_status, Some(0), "{config}");
        // Kernel-visible effect is identical: the group dropped to uid 48.
        let group_uid = match system.monitor() {
            Some(monitor) => monitor
                .kernel()
                .credentials(monitor.group_pid())
                .unwrap()
                .euid(),
            None => Uid::new(48),
        };
        match reference {
            None => reference = Some(group_uid),
            Some(expected) => assert_eq!(group_uid, expected, "{config}"),
        }
    }
}

#[test]
fn the_two_variants_really_operate_on_different_concrete_data() {
    let mut system = NVariantSystemBuilder::from_source(CLEAN_SERVER)
        .unwrap()
        .config(DeploymentConfig::TwoVariantUid)
        .initial_uid(Uid::ROOT)
        .build()
        .unwrap();
    let outcome = system.run();
    assert!(outcome.exited_normally(), "{outcome}");
    let monitor = system.monitor().unwrap();
    let p0 = monitor.variant_process(VariantId::P0);
    let p1 = monitor.variant_process(VariantId::P1);
    let addr0 = p0.global_addr("service_uid").unwrap();
    let addr1 = p1.global_addr("service_uid").unwrap();
    let raw0 = p0.read_word(addr0).unwrap();
    let raw1 = p1.read_word(addr1).unwrap();
    // Different concrete representations ...
    assert_ne!(raw0, raw1);
    // ... of the same canonical value.
    assert_eq!(raw0.as_u32(), 48);
    assert_eq!(raw1.as_u32(), 48 ^ 0x7FFF_FFFF);
}

/// Normal equivalence of the bundled server under the design alternatives:
/// the Table 2 detection calls or the system-call boundary checks alone
/// (§5), the full-bit-flip UID mask, and the UID and address variations
/// composed. Each serves four benign requests to a clean exit.
#[test]
fn design_alternatives_serve_benign_requests_without_alarm() {
    let boundary_only = TransformOptions {
        insert_detection_calls: false,
        ..TransformOptions::default()
    };
    let setups = [
        (
            "detection calls",
            TransformOptions::default(),
            Variation::uid_diversity(),
        ),
        (
            "boundary checks only",
            boundary_only,
            Variation::uid_diversity(),
        ),
        (
            "full-bit-flip mask",
            TransformOptions::default(),
            Variation::uid_diversity_full_mask(),
        ),
        (
            "UID and address composed",
            TransformOptions::default(),
            Variation::composed(vec![
                Variation::uid_diversity(),
                Variation::address_partitioning(),
            ]),
        ),
    ];
    let mut instructions = Vec::new();
    for (setup, options, variation) in setups {
        let mut system = NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(DeploymentConfig::Custom {
                variation,
                variants: 2,
                transform_uids: true,
            })
            .transform_options(options)
            .initial_uid(Uid::ROOT)
            .build()
            .unwrap();
        for _ in 0..4 {
            system
                .kernel_mut()
                .net_mut()
                .preload_request(Port::HTTP, benign_request("/index.html"));
        }
        let outcome = system.run();
        assert!(outcome.exited_normally(), "{setup}: {outcome}");
        assert_eq!(outcome.alarm, None, "{setup}");
        instructions.push(outcome.metrics.total_instructions);
    }
    // Without detection calls the variants skip executing them.
    assert!(
        instructions[1] < instructions[0],
        "boundary checks only {} vs detection calls {}",
        instructions[1],
        instructions[0]
    );
}

#[test]
fn table1_variations_satisfy_inverse_and_disjointedness() {
    for variation in [
        Variation::address_partitioning(),
        Variation::extended_address_partitioning(0x40),
        Variation::instruction_tagging(),
        Variation::uid_diversity(),
    ] {
        let report = verify_variation(&variation, 2);
        assert!(report.all_hold(), "{variation}: {report}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The detection property the monitor relies on, at the value level:
    /// whatever single concrete word an attacker manages to place into the
    /// UID data of *both* variants (the most replicated input allows), the
    /// two variants' canonical interpretations of it differ — so the first
    /// UID-carrying system call or detection call must raise an alarm.
    #[test]
    fn prop_any_injected_uid_value_has_divergent_meanings(injected in any::<u32>()) {
        use nvariant_diversity::{Canonicalizer, VariantSet};
        use nvariant_types::Word;
        let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
        let c0 = Canonicalizer::new(*specs.spec(VariantId::P0));
        let c1 = Canonicalizer::new(*specs.spec(VariantId::P1));
        let word = Word::from_u32(injected);
        prop_assert_ne!(c0.canonical_uid(word), c1.canonical_uid(word));
    }

    /// Normal equivalence at the value level: legitimately produced UID data
    /// (re-expressed per variant by the kernel boundary) always
    /// canonicalizes back to the same meaning in both variants.
    #[test]
    fn prop_legitimate_uid_values_stay_equivalent(canonical in any::<u32>()) {
        use nvariant_diversity::{Canonicalizer, VariantSet};
        use nvariant_types::Word;
        let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
        let c0 = Canonicalizer::new(*specs.spec(VariantId::P0));
        let c1 = Canonicalizer::new(*specs.spec(VariantId::P1));
        let word = Word::from_u32(canonical);
        let in_v0 = c0.reexpress_uid(word);
        let in_v1 = c1.reexpress_uid(word);
        prop_assert_ne!(in_v0, in_v1);
        prop_assert_eq!(c0.canonical_uid(in_v0), c1.canonical_uid(in_v1));
    }
}
