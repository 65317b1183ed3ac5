//! The attack library: one concrete payload per attack class the paper
//! discusses, plus the machinery to run them against each configuration and
//! classify the outcome.

use crate::scenarios::{compiled_httpd_system, ScenarioOutcome, ServedRequest};
use nvariant::{DeploymentConfig, RunnableSystem};
use nvariant_campaign::{CampaignPlan, CellOutcome, CellRun, CellVerdict, Scenario};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of a concrete attack, in the paper's terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AttackClass {
    /// Non-control-data attack corrupting a UID value through a *relative*
    /// overflow (the Chen et al. class the UID variation targets).
    UidCorruptionRelative,
    /// UID corruption through an *absolute-address* write (the class
    /// address-space partitioning targets, aimed here at UID data).
    UidCorruptionAbsolute,
    /// Corruption of non-UID security data through an absolute-address
    /// write (outside the UID variation's protected class).
    NonUidDataCorruption,
}

/// What happened when an attack was launched against a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackResult {
    /// The monitor raised an alarm before the attack achieved its goal.
    Detected,
    /// The attack achieved its goal without being detected.
    Succeeded,
    /// The attack neither achieved its goal nor triggered an alarm (e.g. it
    /// was stopped by ordinary file permissions).
    Failed,
}

impl fmt::Display for AttackResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackResult::Detected => write!(f, "detected"),
            AttackResult::Succeeded => write!(f, "SUCCEEDED"),
            AttackResult::Failed => write!(f, "failed"),
        }
    }
}

/// A concrete attack against the mini Apache.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attack {
    /// The attack class.
    pub class: AttackClass,
    /// Short identifier used in reports.
    pub name: String,
    /// What the attack does.
    pub description: String,
}

impl Attack {
    /// The three attacks of the evaluation matrix.
    #[must_use]
    pub fn all() -> Vec<Attack> {
        vec![
            Attack {
                class: AttackClass::UidCorruptionRelative,
                name: "uid-overflow".to_string(),
                description: "overflow the User-Agent log buffer to overwrite the cached \
                              server UID, then read /etc/shadow via path traversal while the \
                              privilege drop silently fails"
                    .to_string(),
            },
            Attack {
                class: AttackClass::UidCorruptionAbsolute,
                name: "uid-poke".to_string(),
                description: "use the arbitrary-write endpoint to overwrite the cached server \
                              UID at its absolute address, then read /etc/shadow"
                    .to_string(),
            },
            Attack {
                class: AttackClass::NonUidDataCorruption,
                name: "docroot-poke".to_string(),
                description: "use the arbitrary-write endpoint to truncate the DocumentRoot \
                              string, then read a file outside the document root"
                    .to_string(),
            },
        ]
    }

    /// Builds the request sequence for this attack against a deployed
    /// system (absolute-address attacks need the symbol addresses of
    /// variant 0, which models an attacker who has obtained them from a
    /// leak or a copy of the binary — the N-variant argument explicitly does
    /// not rely on keeping them secret).
    #[must_use]
    pub fn requests(&self, system: &RunnableSystem) -> Vec<Vec<u8>> {
        match self.class {
            AttackClass::UidCorruptionRelative => {
                // Classic NUL-byte zeroing: each overflow is one byte shorter
                // than the previous, so the copy's terminating NUL clears the
                // cached UID from its top byte down. Once `server_uid` is 0,
                // the post-log `seteuid(server_uid)` keeps the worker at
                // root, and the final traversal request reads the shadow
                // file.
                let logbuf = crate::httpd::LOGBUF_SIZE;
                let mut requests: Vec<Vec<u8>> = (0..4)
                    .map(|step| {
                        let overflow = "A".repeat(logbuf + 3 - step);
                        format!(
                            "GET /index.html HTTP/1.0\r\nHost: victim\r\nUser-Agent: {overflow}\r\n\r\n"
                        )
                        .into_bytes()
                    })
                    .collect();
                requests.push(
                    b"GET /../../../../etc/shadow HTTP/1.0\r\nHost: victim\r\nUser-Agent: curl\r\n\r\n"
                        .to_vec(),
                );
                requests
            }
            AttackClass::UidCorruptionAbsolute => {
                let addr = system
                    .global_addr("server_uid")
                    .map_or(0, nvariant_types::VirtAddr::as_u32);
                vec![
                    format!(
                        "GET /debug/poke/{addr}/0 HTTP/1.0\r\nHost: victim\r\nUser-Agent: curl\r\n\r\n"
                    )
                    .into_bytes(),
                    b"GET /../../../../etc/shadow HTTP/1.0\r\nHost: victim\r\nUser-Agent: curl\r\n\r\n"
                        .to_vec(),
                ]
            }
            AttackClass::NonUidDataCorruption => {
                let addr = system
                    .global_addr("docroot")
                    .map_or(0, nvariant_types::VirtAddr::as_u32);
                vec![
                    format!(
                        "GET /debug/poke/{addr}/0 HTTP/1.0\r\nHost: victim\r\nUser-Agent: curl\r\n\r\n"
                    )
                    .into_bytes(),
                    b"GET /etc/httpd.conf HTTP/1.0\r\nHost: victim\r\nUser-Agent: curl\r\n\r\n"
                        .to_vec(),
                ]
            }
        }
    }

    /// Classifies what the attack achieved given the served responses and
    /// the system outcome.
    #[must_use]
    pub fn evaluate(&self, scenario: &ScenarioOutcome) -> AttackResult {
        self.evaluate_parts(scenario.system.detected_attack(), &scenario.requests)
    }

    /// Like [`evaluate`](Self::evaluate), from the raw parts a campaign
    /// cell observes: whether the monitor alarmed, and the exchanges. The
    /// leak needles are world-agnostic (the shadow hashes and the
    /// `DocumentRoot` directive exist in every world template, wherever the
    /// document tree actually lives), so the same judge serves every world
    /// on a plan's environment axis.
    #[must_use]
    pub fn evaluate_parts(&self, detected: bool, exchanges: &[ServedRequest]) -> AttackResult {
        if detected {
            return AttackResult::Detected;
        }
        let leaked = |needle: &str| {
            exchanges
                .iter()
                .any(|r| String::from_utf8_lossy(r.body()).contains(needle))
        };
        let succeeded = match self.class {
            AttackClass::UidCorruptionRelative | AttackClass::UidCorruptionAbsolute => {
                leaked("EncryptedRootPasswordHash")
            }
            // Success = the server leaked its own configuration file, which
            // only the docroot truncation makes reachable. Match the
            // directive, not a hardcoded path: worlds relocate the tree.
            AttackClass::NonUidDataCorruption => leaked("DocumentRoot /"),
        };
        if succeeded {
            AttackResult::Succeeded
        } else {
            AttackResult::Failed
        }
    }

    /// The result the paper's arguments predict for this attack under the
    /// given configuration (used by the integration tests and by the attack
    /// matrix report to flag discrepancies).
    #[must_use]
    pub fn expected_result(&self, config: &DeploymentConfig) -> AttackResult {
        let protects_uid = matches!(config, DeploymentConfig::TwoVariantUid)
            || matches!(
                config,
                DeploymentConfig::Custom { transform_uids: true, variants, .. } if *variants > 1
            );
        let protects_addresses = matches!(config, DeploymentConfig::TwoVariantAddress)
            || matches!(
                config,
                DeploymentConfig::Custom { variation, variants, .. }
                    if *variants > 1 && variation.target_type().contains("Address")
            );
        match self.class {
            AttackClass::UidCorruptionRelative => {
                if protects_uid {
                    AttackResult::Detected
                } else {
                    AttackResult::Succeeded
                }
            }
            AttackClass::UidCorruptionAbsolute => {
                if protects_uid || protects_addresses {
                    AttackResult::Detected
                } else {
                    AttackResult::Succeeded
                }
            }
            AttackClass::NonUidDataCorruption => {
                if protects_addresses {
                    AttackResult::Detected
                } else {
                    AttackResult::Succeeded
                }
            }
        }
    }
}

/// The outcome of launching one attack against one configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// The attack name.
    pub attack: String,
    /// The attack class.
    pub class: AttackClass,
    /// The configuration label.
    pub config_label: String,
    /// What happened.
    pub result: AttackResult,
    /// What the paper's arguments predict.
    pub expected: AttackResult,
    /// The alarm message, when one was raised.
    pub alarm: Option<String>,
}

impl AttackOutcome {
    /// Returns `true` if the observed result matches the prediction.
    #[must_use]
    pub fn matches_expectation(&self) -> bool {
        self.result == self.expected
    }
}

/// Wraps an attack as a judged campaign [`Scenario`]: the request generator
/// crafts the payload against the freshly instantiated system (absolute
/// attacks read symbol addresses from it) and the judge records the
/// observed result next to the paper's prediction.
#[must_use]
pub fn attack_scenario(attack: &Attack) -> Scenario {
    let generator = attack.clone();
    let judge = attack.clone();
    Scenario::new(attack.name.clone(), move |system, _seed| {
        generator.requests(system)
    })
    .with_judge(move |config, run: CellRun<'_>| CellVerdict {
        observed: judge
            .evaluate_parts(run.outcome.detected_attack(), run.exchanges)
            .to_string(),
        expected: judge.expected_result(config).to_string(),
    })
}

/// Declares the full attack matrix — every attack of [`Attack::all`]
/// against every supplied configuration — as a plan over the cached
/// compiled artifacts.
#[must_use]
pub fn attack_campaign(configs: &[DeploymentConfig]) -> CampaignPlan {
    let mut plan = crate::campaigns::httpd_campaign("attack-matrix", configs);
    for attack in Attack::all() {
        plan = plan.scenario(attack_scenario(&attack));
    }
    plan
}

fn outcome_from_parts(
    attack: &Attack,
    config: &DeploymentConfig,
    outcome: &CellOutcome,
    exchanges: &[ServedRequest],
) -> AttackOutcome {
    AttackOutcome {
        attack: attack.name.clone(),
        class: attack.class,
        config_label: config.label(),
        result: attack.evaluate_parts(outcome.detected_attack(), exchanges),
        expected: attack.expected_result(config),
        alarm: outcome.alarm.clone(),
    }
}

/// Launches `attack` against the mini Apache deployed under `config`
/// (a one-cell plan over the cached compiled artifact).
#[must_use]
pub fn run_attack(config: &DeploymentConfig, attack: &Attack) -> AttackOutcome {
    let report = CampaignPlan::new("attack")
        .config(compiled_httpd_system(config))
        .scenario(attack_scenario(attack))
        .run(1);
    let cell = &report.cells[0];
    outcome_from_parts(attack, config, &cell.outcome, &cell.exchanges)
}

/// Runs every attack against every supplied configuration, in parallel
/// across the machine's cores, returning rows in attack-major order (the
/// order the paper's matrix is read in).
#[must_use]
pub fn attack_matrix(configs: &[DeploymentConfig]) -> Vec<AttackOutcome> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    attack_matrix_with_workers(configs, workers)
}

/// [`attack_matrix`] with an explicit worker count (the result is identical
/// at any worker count).
#[must_use]
pub fn attack_matrix_with_workers(
    configs: &[DeploymentConfig],
    workers: usize,
) -> Vec<AttackOutcome> {
    attack_outcomes_from_report(&attack_campaign(configs).run(workers), configs)
}

/// Reads an [`attack_campaign`] report back into attack-major
/// [`AttackOutcome`] rows (the one place that knows how to transpose the
/// campaign's canonical config-major cell order).
///
/// # Panics
///
/// Panics if `report` did not come from [`attack_campaign`] over exactly
/// `configs` (cell count or coordinates disagree).
#[must_use]
pub fn attack_outcomes_from_report(
    report: &nvariant_campaign::CampaignReport,
    configs: &[DeploymentConfig],
) -> Vec<AttackOutcome> {
    let attacks = Attack::all();
    assert_eq!(
        report.cells.len(),
        configs.len() * attacks.len(),
        "report does not match an attack campaign over these configs"
    );
    let mut rows = Vec::with_capacity(report.cells.len());
    // Plan cells are canonical config-major order with one implicit world
    // and one replicate; the matrix reads attack-major, so transpose by
    // direct indexing.
    for (scenario_index, attack) in attacks.iter().enumerate() {
        for (config_index, config) in configs.iter().enumerate() {
            let cell = &report.cells[config_index * attacks.len() + scenario_index];
            assert_eq!(cell.spec.config_index, config_index);
            assert_eq!(cell.spec.world_index, 0);
            assert_eq!(cell.spec.scenario_index, scenario_index);
            rows.push(outcome_from_parts(
                attack,
                config,
                &cell.outcome,
                &cell.exchanges,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_catalogue_and_expectations() {
        let attacks = Attack::all();
        assert_eq!(attacks.len(), 3);
        let uid_overflow = &attacks[0];
        assert_eq!(
            uid_overflow.expected_result(&DeploymentConfig::Unmodified),
            AttackResult::Succeeded
        );
        assert_eq!(
            uid_overflow.expected_result(&DeploymentConfig::TwoVariantAddress),
            AttackResult::Succeeded
        );
        assert_eq!(
            uid_overflow.expected_result(&DeploymentConfig::TwoVariantUid),
            AttackResult::Detected
        );
        let docroot = &attacks[2];
        assert_eq!(
            docroot.expected_result(&DeploymentConfig::TwoVariantUid),
            AttackResult::Succeeded
        );
        assert_eq!(
            docroot.expected_result(&DeploymentConfig::TwoVariantAddress),
            AttackResult::Detected
        );
        assert_eq!(
            docroot.expected_result(&DeploymentConfig::composed_uid_and_address()),
            AttackResult::Detected
        );
    }

    #[test]
    fn uid_overflow_succeeds_against_the_unprotected_server() {
        let attack = &Attack::all()[0];
        let outcome = run_attack(&DeploymentConfig::Unmodified, attack);
        assert_eq!(outcome.result, AttackResult::Succeeded, "{outcome:?}");
        assert!(outcome.matches_expectation());
        assert!(outcome.alarm.is_none());
    }

    #[test]
    fn uid_overflow_is_detected_by_the_uid_variation() {
        let attack = &Attack::all()[0];
        let outcome = run_attack(&DeploymentConfig::TwoVariantUid, attack);
        assert_eq!(outcome.result, AttackResult::Detected, "{outcome:?}");
        assert!(outcome.matches_expectation());
        assert!(outcome.alarm.is_some());
    }

    #[test]
    fn a_detected_overflow_reports_the_same_outcome_when_run_again() {
        // The alarm leaves both variants at a syscall the monitor never
        // answered; a second run must not resume them from it.
        let mut system = crate::build_httpd_system(&DeploymentConfig::TwoVariantUid);
        for request in Attack::all()[0].requests(&system) {
            system
                .kernel_mut()
                .net_mut()
                .preload_request(nvariant_types::Port::HTTP, request);
        }
        let first = system.run();
        assert!(first.detected_attack(), "{first}");
        assert_eq!(system.run(), first);
    }

    #[test]
    fn uid_overflow_evades_address_partitioning() {
        // Class-specificity: the relative overwrite is identical in both
        // address spaces, so Configuration 3 does not stop it.
        let attack = &Attack::all()[0];
        let outcome = run_attack(&DeploymentConfig::TwoVariantAddress, attack);
        assert_eq!(outcome.result, AttackResult::Succeeded, "{outcome:?}");
        assert!(outcome.matches_expectation());
    }

    #[test]
    fn absolute_uid_write_is_detected_by_both_variations() {
        let attack = &Attack::all()[1];
        for config in [
            DeploymentConfig::TwoVariantAddress,
            DeploymentConfig::TwoVariantUid,
        ] {
            let outcome = run_attack(&config, attack);
            assert_eq!(outcome.result, AttackResult::Detected, "{outcome:?}");
            assert!(outcome.matches_expectation());
        }
        let unprotected = run_attack(&DeploymentConfig::Unmodified, attack);
        assert_eq!(
            unprotected.result,
            AttackResult::Succeeded,
            "{unprotected:?}"
        );
    }

    #[test]
    fn attack_matrix_is_worker_count_invariant() {
        let configs = vec![
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ];
        let serial = attack_matrix_with_workers(&configs, 1);
        let parallel = attack_matrix_with_workers(&configs, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        // Attack-major ordering, as the paper's matrix reads.
        assert_eq!(serial[0].attack, "uid-overflow");
        assert_eq!(serial[0].config_label, "Unmodified");
        assert_eq!(serial[1].config_label, "2-Variant UID");
        assert_eq!(serial[2].attack, "uid-poke");
        assert!(serial.iter().all(AttackOutcome::matches_expectation));
    }

    #[test]
    fn non_uid_corruption_evades_the_uid_variation_but_not_address_partitioning() {
        let attack = &Attack::all()[2];
        let against_uid = run_attack(&DeploymentConfig::TwoVariantUid, attack);
        assert_eq!(
            against_uid.result,
            AttackResult::Succeeded,
            "{against_uid:?}"
        );
        let against_addr = run_attack(&DeploymentConfig::TwoVariantAddress, attack);
        assert_eq!(
            against_addr.result,
            AttackResult::Detected,
            "{against_addr:?}"
        );
        assert!(against_uid.matches_expectation());
        assert!(against_addr.matches_expectation());
    }
}
