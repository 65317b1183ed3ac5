//! Deployment configurations, mirroring the paper's Table 3.

use nvariant_diversity::Variation;
use std::fmt;

/// How a program is deployed: which variation, how many variants, and
/// whether the UID source transformation is applied.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeploymentConfig {
    /// Paper Configuration 1: the unmodified program running as a single
    /// process on the (modified) kernel.
    Unmodified,
    /// Paper Configuration 2: the UID-transformed program (instrumented with
    /// detection calls, identity reexpression) running as a single process.
    TransformedSingle,
    /// Paper Configuration 3: a 2-variant system whose variants differ in
    /// their address spaces; the program text is not transformed.
    TwoVariantAddress,
    /// Paper Configuration 4: a 2-variant system running the UID variation —
    /// transformed program text, per-variant reexpressed constants, unshared
    /// account files.
    TwoVariantUid,
    /// Any other deployment: an arbitrary variation, variant count, and
    /// choice of whether to apply the UID transformation.
    Custom {
        /// The variation to deploy.
        variation: Variation,
        /// Number of variants.
        variants: usize,
        /// Whether to run the UID source transformation (instrumentation
        /// plus per-variant constant reexpression).
        transform_uids: bool,
    },
}

impl DeploymentConfig {
    /// The composed UID + address variation the paper proposes as future
    /// work (§5/§7), as a ready-made custom configuration.
    #[must_use]
    pub fn composed_uid_and_address() -> Self {
        DeploymentConfig::Custom {
            variation: Variation::composed(vec![
                Variation::uid_diversity(),
                Variation::address_partitioning(),
            ]),
            variants: 2,
            transform_uids: true,
        }
    }

    /// A 2-variant instruction-set tagging deployment.
    #[must_use]
    pub fn two_variant_instruction_tagging() -> Self {
        DeploymentConfig::Custom {
            variation: Variation::instruction_tagging(),
            variants: 2,
            transform_uids: false,
        }
    }

    /// The configuration number used in the paper's Table 3, if this is one
    /// of the four configurations evaluated there.
    #[must_use]
    pub fn paper_number(&self) -> Option<u8> {
        match self {
            DeploymentConfig::Unmodified => Some(1),
            DeploymentConfig::TransformedSingle => Some(2),
            DeploymentConfig::TwoVariantAddress => Some(3),
            DeploymentConfig::TwoVariantUid => Some(4),
            DeploymentConfig::Custom { .. } => None,
        }
    }

    /// Short human-readable label (matches the paper's Table 3 wording for
    /// the four paper configurations).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DeploymentConfig::Unmodified => "Unmodified".to_string(),
            DeploymentConfig::TransformedSingle => "Transformed".to_string(),
            DeploymentConfig::TwoVariantAddress => "2-Variant Address Space".to_string(),
            DeploymentConfig::TwoVariantUid => "2-Variant UID".to_string(),
            DeploymentConfig::Custom {
                variation,
                variants,
                ..
            } => format!("{variants}-Variant {}", variation.name()),
        }
    }

    /// The number of variant processes this deployment runs.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        match self {
            DeploymentConfig::Unmodified | DeploymentConfig::TransformedSingle => 1,
            DeploymentConfig::TwoVariantAddress | DeploymentConfig::TwoVariantUid => 2,
            DeploymentConfig::Custom { variants, .. } => (*variants).max(1),
        }
    }

    /// The variation deployed across the variants, if any (single-process
    /// configurations have none).
    #[must_use]
    pub fn variation(&self) -> Option<Variation> {
        match self {
            DeploymentConfig::Unmodified | DeploymentConfig::TransformedSingle => None,
            DeploymentConfig::TwoVariantAddress => Some(Variation::address_partitioning()),
            DeploymentConfig::TwoVariantUid => Some(Variation::uid_diversity()),
            DeploymentConfig::Custom { variation, .. } => Some(variation.clone()),
        }
    }

    /// Whether the UID source transformation is applied to the program.
    #[must_use]
    pub fn transforms_uids(&self) -> bool {
        match self {
            DeploymentConfig::Unmodified | DeploymentConfig::TwoVariantAddress => false,
            DeploymentConfig::TransformedSingle | DeploymentConfig::TwoVariantUid => true,
            DeploymentConfig::Custom { transform_uids, .. } => *transform_uids,
        }
    }

    /// Whether the deployment needs per-variant unshared copies of the
    /// account files (`/etc/passwd`, `/etc/group`).
    #[must_use]
    pub fn uses_unshared_account_files(&self) -> bool {
        self.transforms_uids() && self.variant_count() > 1
    }

    /// The four configurations of the paper's Table 3, in order.
    #[must_use]
    pub fn paper_configurations() -> Vec<DeploymentConfig> {
        vec![
            DeploymentConfig::Unmodified,
            DeploymentConfig::TransformedSingle,
            DeploymentConfig::TwoVariantAddress,
            DeploymentConfig::TwoVariantUid,
        ]
    }
}

impl fmt::Display for DeploymentConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.paper_number() {
            Some(n) => write!(f, "Configuration {n} ({})", self.label()),
            None => write!(f, "{}", self.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_match_table_3() {
        let configs = DeploymentConfig::paper_configurations();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].paper_number(), Some(1));
        assert_eq!(configs[3].paper_number(), Some(4));
        assert_eq!(configs[0].variant_count(), 1);
        assert_eq!(configs[2].variant_count(), 2);
        assert_eq!(configs[1].label(), "Transformed");
        assert!(configs[3].transforms_uids());
        assert!(!configs[2].transforms_uids());
        assert!(configs[3].uses_unshared_account_files());
        assert!(!configs[1].uses_unshared_account_files());
        assert!(configs[2].variation().is_some());
        assert!(configs[0].variation().is_none());
    }

    #[test]
    fn custom_configurations() {
        let composed = DeploymentConfig::composed_uid_and_address();
        assert_eq!(composed.paper_number(), None);
        assert_eq!(composed.variant_count(), 2);
        assert!(composed.transforms_uids());
        assert!(composed.label().contains("Composed"));

        let tagging = DeploymentConfig::two_variant_instruction_tagging();
        assert!(!tagging.transforms_uids());
        assert_eq!(tagging.variant_count(), 2);

        let degenerate = DeploymentConfig::Custom {
            variation: Variation::uid_diversity(),
            variants: 0,
            transform_uids: true,
        };
        assert_eq!(degenerate.variant_count(), 1);
    }

    #[test]
    fn display_includes_paper_number() {
        assert_eq!(
            DeploymentConfig::Unmodified.to_string(),
            "Configuration 1 (Unmodified)"
        );
        assert!(DeploymentConfig::composed_uid_and_address()
            .to_string()
            .contains("2-Variant"));
    }
}
