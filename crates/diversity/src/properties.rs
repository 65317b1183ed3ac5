//! Mechanized checks of the inverse and disjointedness properties.
//!
//! These checks back the high-assurance argument of the paper: for a given
//! variation we verify, over a structured sample of the value domain, that
//! every variant's reexpression satisfies `R⁻¹(R(x)) ≡ x` (normal
//! equivalence, §2.2) and that every *pair* of variants has disjoint inverse
//! functions (detection, §2.3).

use crate::spec::VariantSpec;
use crate::variation::Variation;
use nvariant_types::{Uid, VirtAddr};
use std::fmt;

/// One property check and its outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyCheck {
    /// What was checked (human-readable).
    pub description: String,
    /// Whether the property held for every sampled value.
    pub holds: bool,
    /// A witness value for which the property failed, if any.
    pub counterexample: Option<u32>,
}

/// The result of verifying a variation's properties.
///
/// # Example
///
/// ```
/// use nvariant_diversity::{verify_variation, Variation};
///
/// let report = verify_variation(&Variation::uid_diversity(), 2);
/// assert!(report.all_hold());
/// assert!(report.checks.len() >= 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PropertyReport {
    /// The individual checks performed.
    pub checks: Vec<PropertyCheck>,
}

impl PropertyReport {
    /// Returns `true` if every check passed.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// The checks that failed.
    #[must_use]
    pub fn failures(&self) -> Vec<&PropertyCheck> {
        self.checks.iter().filter(|c| !c.holds).collect()
    }
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for check in &self.checks {
            writeln!(
                f,
                "[{}] {}",
                if check.holds { "ok" } else { "FAIL" },
                check.description
            )?;
        }
        Ok(())
    }
}

/// A structured sample of the 32-bit value domain: boundary values, small
/// values, every single-bit pattern, and a deterministic pseudo-random
/// spread.
#[must_use]
pub fn sample_values() -> Vec<u32> {
    let mut values = vec![0, 1, 2, 3, 47, 48, 99, 1000, 65534, 65535];
    for bit in 0..32 {
        values.push(1u32 << bit);
        values.push(!(1u32 << bit));
    }
    values.extend([0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFE, u32::MAX]);
    // Deterministic linear-congruential spread.
    let mut x: u32 = 0x1234_5678;
    for _ in 0..200 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        values.push(x);
    }
    values
}

/// Verifies the inverse property for every variant and the disjointedness
/// property for every pair of variants of `variation`, instantiated with
/// `n` variants.
#[must_use]
pub fn verify_variation(variation: &Variation, n: usize) -> PropertyReport {
    let mut report = PropertyReport::default();
    let specs = match variation.try_variant_specs(n) {
        Ok(specs) => specs,
        Err(message) => {
            report.checks.push(PropertyCheck {
                description: format!("variant specifications are constructible ({message})"),
                holds: false,
                counterexample: None,
            });
            return report;
        }
    };
    let samples = sample_values();

    for (i, spec) in specs.iter().enumerate() {
        report.checks.push(check_inverse(i, spec, &samples));
    }
    for i in 0..specs.len() {
        for j in (i + 1)..specs.len() {
            report.checks.push(check_disjoint(
                variation, i, j, &specs[i], &specs[j], &samples,
            ));
        }
    }
    report
}

fn check_inverse(index: usize, spec: &VariantSpec, samples: &[u32]) -> PropertyCheck {
    let mut counterexample = None;
    for &raw in samples {
        let uid_ok = spec.uid.invert(spec.uid.apply(Uid::new(raw))) == Uid::new(raw);
        let addr_ok = spec.addr.invert(spec.addr.apply(VirtAddr::new(raw))) == VirtAddr::new(raw);
        if !uid_ok || !addr_ok {
            counterexample = Some(raw);
            break;
        }
    }
    PropertyCheck {
        description: format!("inverse property: variant {index} (∀x, R⁻¹(R(x)) = x)"),
        holds: counterexample.is_none(),
        counterexample,
    }
}

fn check_disjoint(
    variation: &Variation,
    i: usize,
    j: usize,
    a: &VariantSpec,
    b: &VariantSpec,
    samples: &[u32],
) -> PropertyCheck {
    let mut counterexample = None;
    for &raw in samples {
        let disjoint = match variation {
            Variation::InstructionTagging => a.tag != b.tag,
            Variation::UidDiversity { .. } => {
                a.uid.invert(Uid::new(raw)) != b.uid.invert(Uid::new(raw))
            }
            Variation::AddressPartitioning | Variation::ExtendedAddressPartitioning { .. } => {
                a.addr.invert(VirtAddr::new(raw)) != b.addr.invert(VirtAddr::new(raw))
            }
            Variation::Composed(_) => {
                // A composed variation detects an attack if *any* composed
                // class diverges; disjointedness therefore holds if it holds
                // for at least one diversified class.
                let uid = !a.uid.is_identity() || !b.uid.is_identity();
                let addr = !a.addr.is_identity() || !b.addr.is_identity();
                let uid_disjoint =
                    uid && a.uid.invert(Uid::new(raw)) != b.uid.invert(Uid::new(raw));
                let addr_disjoint =
                    addr && a.addr.invert(VirtAddr::new(raw)) != b.addr.invert(VirtAddr::new(raw));
                let tag_disjoint = a.tag != b.tag;
                uid_disjoint || addr_disjoint || tag_disjoint
            }
        };
        if !disjoint {
            counterexample = Some(raw);
            break;
        }
    }
    PropertyCheck {
        description: format!("disjointedness: variants {i} and {j} (∀x, R{i}⁻¹(x) ≠ R{j}⁻¹(x))"),
        holds: counterexample.is_none(),
        counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variations_satisfy_both_properties() {
        for variation in [
            Variation::address_partitioning(),
            Variation::extended_address_partitioning(0x40),
            Variation::instruction_tagging(),
            Variation::uid_diversity(),
            Variation::uid_diversity_full_mask(),
            Variation::composed(vec![
                Variation::uid_diversity(),
                Variation::address_partitioning(),
            ]),
        ] {
            let report = verify_variation(&variation, 2);
            assert!(
                report.all_hold(),
                "{variation}: {}",
                report
                    .failures()
                    .iter()
                    .map(|c| c.description.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    #[test]
    fn three_variant_uid_diversity_is_pairwise_disjoint() {
        let report = verify_variation(&Variation::uid_diversity(), 3);
        assert!(report.all_hold());
        // 3 inverse checks + 3 pairwise disjointedness checks.
        assert_eq!(report.checks.len(), 6);
    }

    #[test]
    fn a_degenerate_variation_fails_disjointedness() {
        // A UID "diversity" whose extra variant ends up with the identity
        // mask cannot be constructed (the builder refuses), which the report
        // records as a failed check rather than a panic.
        let degenerate = Variation::UidDiversity { mask: 1 };
        // Variant 2 would get mask 1 ^ 1 = 0 (identity): rejected.
        let report = verify_variation(&degenerate, 3);
        assert!(!report.all_hold());
        assert_eq!(report.failures().len(), 1);
    }

    #[test]
    fn sample_values_cover_boundaries() {
        let samples = sample_values();
        assert!(samples.contains(&0));
        assert!(samples.contains(&0x7FFF_FFFF));
        assert!(samples.contains(&0x8000_0000));
        assert!(samples.contains(&u32::MAX));
        assert!(samples.len() > 250);
    }

    #[test]
    fn report_display_lists_checks() {
        let report = verify_variation(&Variation::uid_diversity(), 2);
        let text = report.to_string();
        assert!(text.contains("inverse property"));
        assert!(text.contains("disjointedness"));
        assert!(text.contains("[ok]"));
    }
}
