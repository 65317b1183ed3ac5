//! The detection properties the checker verifies.

use std::fmt;

/// A bounded-checkable property of an instantiated N-variant system, stated
/// against the paper's detection arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Property {
    /// **P1 — UID integrity**: no attacker move sequence reaches a
    /// credential-changing system call with a corrupted UID without the
    /// monitor raising an alarm first.
    UidIntegrity,
    /// **P2 — benign lockstep**: on benign traces (no attacker moves), the
    /// variants never diverge — no alarm is raised in any world under any
    /// explored schedule.
    BenignLockstep,
    /// **P3 — alarm before output**: after a corruption, no network output
    /// leaves the system while the group still holds root privileges unless
    /// an alarm was raised first.
    AlarmBeforeOutput,
}

impl Property {
    /// All checkable properties, in report order.
    #[must_use]
    pub fn all() -> [Property; 3] {
        [
            Property::UidIntegrity,
            Property::BenignLockstep,
            Property::AlarmBeforeOutput,
        ]
    }

    /// The short key used on command lines and in reports (`P1`/`P2`/`P3`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Property::UidIntegrity => "P1",
            Property::BenignLockstep => "P2",
            Property::AlarmBeforeOutput => "P3",
        }
    }

    /// Parses a property key (case-insensitive `P1`/`P2`/`P3`).
    #[must_use]
    pub fn parse(key: &str) -> Option<Property> {
        match key.to_ascii_uppercase().as_str() {
            "P1" => Some(Property::UidIntegrity),
            "P2" => Some(Property::BenignLockstep),
            "P3" => Some(Property::AlarmBeforeOutput),
            _ => None,
        }
    }

    /// One-line human description.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Property::UidIntegrity => {
                "no corrupted UID reaches a credential-changing syscall without an alarm"
            }
            Property::BenignLockstep => "variants never diverge on benign traces",
            Property::AlarmBeforeOutput => {
                "an alarm precedes any privileged network output after corruption"
            }
        }
    }

    /// Whether the property explores attacker moves (P2 is a benign-trace
    /// property: the attacker is absent by definition).
    #[must_use]
    pub fn uses_attacker(self) -> bool {
        !matches!(self, Property::BenignLockstep)
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for property in Property::all() {
            assert_eq!(Property::parse(property.key()), Some(property));
            assert_eq!(
                Property::parse(&property.key().to_lowercase()),
                Some(property)
            );
        }
        assert_eq!(Property::parse("P9"), None);
    }

    #[test]
    fn only_benign_lockstep_is_attacker_free() {
        assert!(Property::UidIntegrity.uses_attacker());
        assert!(!Property::BenignLockstep.uses_attacker());
        assert!(Property::AlarmBeforeOutput.uses_attacker());
    }
}
