//! The attack library: one concrete payload per attack class the paper
//! discusses, and a judged campaign [`Scenario`] per attack whose verdict
//! records the observed result next to the one the paper predicts for the
//! cell's configuration.

use crate::scenarios::{run_cell, ServedRequest};
use nvariant::{DeploymentConfig, RunnableSystem};
use nvariant_campaign::{CampaignPlan, CellResult, CellRun, CellVerdict, Scenario};
use std::fmt;

/// The class of a concrete attack, in the paper's terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// Classifies what the attack achieved from the parts a campaign cell
    /// observes: whether the monitor alarmed, and the exchanges. The
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
    /// given configuration (the judge of [`attack_scenario`] records it next
    /// to the observed result).
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

/// Launches `attack` against the mini Apache deployed under `config` (a
/// one-cell plan over the cached compiled artifact). The cell's `verdict`
/// holds the observed result and the paper's prediction, as rendered by
/// [`AttackResult`]'s `Display`.
#[must_use]
pub fn run_attack(config: &DeploymentConfig, attack: &Attack) -> CellResult {
    run_cell("attack", config, attack_scenario(attack))
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

    /// The verdict every attack cell carries.
    fn verdict(cell: &CellResult) -> &CellVerdict {
        cell.verdict.as_ref().expect("attack cells are judged")
    }

    #[test]
    fn uid_overflow_succeeds_against_the_unprotected_server() {
        let attack = &Attack::all()[0];
        let cell = run_attack(&DeploymentConfig::Unmodified, attack);
        let verdict = verdict(&cell);
        assert_eq!(verdict.observed, "SUCCEEDED", "{}", cell.outcome);
        assert!(verdict.matches(), "{verdict:?}");
        assert!(cell.outcome.alarm.is_none());
    }

    #[test]
    fn uid_overflow_is_detected_by_the_uid_variation() {
        let attack = &Attack::all()[0];
        let cell = run_attack(&DeploymentConfig::TwoVariantUid, attack);
        let verdict = verdict(&cell);
        assert_eq!(verdict.observed, "detected", "{}", cell.outcome);
        assert!(verdict.matches(), "{verdict:?}");
        assert!(cell.outcome.alarm.is_some());
    }

    #[test]
    fn a_detected_overflow_reports_the_same_outcome_when_run_again() {
        // The alarm leaves both variants at a syscall the monitor never
        // answered; a second run must not resume them from it.
        let mut system =
            crate::compiled_httpd_system(&DeploymentConfig::TwoVariantUid).instantiate();
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
        let cell = run_attack(&DeploymentConfig::TwoVariantAddress, attack);
        let verdict = verdict(&cell);
        assert_eq!(verdict.observed, "SUCCEEDED", "{}", cell.outcome);
        assert!(verdict.matches(), "{verdict:?}");
    }

    #[test]
    fn absolute_uid_write_is_detected_by_both_variations() {
        let attack = &Attack::all()[1];
        for config in [
            DeploymentConfig::TwoVariantAddress,
            DeploymentConfig::TwoVariantUid,
        ] {
            let cell = run_attack(&config, attack);
            let verdict = verdict(&cell);
            assert_eq!(verdict.observed, "detected", "{config}: {}", cell.outcome);
            assert!(verdict.matches(), "{verdict:?}");
        }
        let unprotected = run_attack(&DeploymentConfig::Unmodified, attack);
        assert_eq!(
            verdict(&unprotected).observed,
            "SUCCEEDED",
            "{}",
            unprotected.outcome
        );
    }

    #[test]
    fn attack_matrix_is_worker_count_invariant() {
        let configs = vec![
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ];
        let serial = attack_campaign(&configs).run(1);
        let parallel = attack_campaign(&configs).run(4);
        assert_eq!(serial.canonical_text(), parallel.canonical_text());
        assert_eq!(serial.cells.len(), 6);
        assert!(serial.cells.iter().all(|cell| verdict(cell).matches()));
    }

    #[test]
    fn non_uid_corruption_evades_the_uid_variation_but_not_address_partitioning() {
        let attack = &Attack::all()[2];
        let against_uid = run_attack(&DeploymentConfig::TwoVariantUid, attack);
        assert_eq!(
            verdict(&against_uid).observed,
            "SUCCEEDED",
            "{}",
            against_uid.outcome
        );
        let against_addr = run_attack(&DeploymentConfig::TwoVariantAddress, attack);
        assert_eq!(
            verdict(&against_addr).observed,
            "detected",
            "{}",
            against_addr.outcome
        );
        assert!(verdict(&against_uid).matches());
        assert!(verdict(&against_addr).matches());
    }
}
