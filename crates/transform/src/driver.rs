//! The transformation driver: pass ordering, options, and per-variant
//! program generation.

use crate::inference::UidContext;
use crate::passes;
use crate::stats::TransformStats;
use nvariant_diversity::UidTransform;
use nvariant_vm::ast::Program;
use nvariant_vm::TypeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Options controlling the transformation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformOptions {
    /// Whether to insert the Table 2 detection calls (`uid_value`,
    /// `cond_chk`, `cc_*`). Disabling this models the §5 alternative of
    /// relying solely on the pre-existing system-call boundary checks, at
    /// the cost of detection precision (used by the ablation bench).
    pub insert_detection_calls: bool,
    /// Function names treated as log/format sinks whose UID arguments are
    /// removed (§4's Apache error-log workaround).
    pub log_sinks: Vec<String>,
    /// Names of globals whose UID literals the reexpression pass
    /// deliberately leaves in canonical form (initializers, assignments,
    /// and literals compared with or passed alongside the global). Always
    /// empty in production configurations; non-empty values seed the
    /// static verifier's P-Residual regression, the transform-level
    /// analogue of PR 6's weakened monitor.
    pub skip_reexpression_globals: Vec<String>,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            insert_detection_calls: true,
            log_sinks: vec!["utoa".to_string()],
            skip_reexpression_globals: Vec::new(),
        }
    }
}

/// Errors produced by the transformation driver.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TransformError {
    /// The input program failed type checking.
    Type(TypeError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Type(e) => write!(f, "cannot transform ill-typed program: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<TypeError> for TransformError {
    fn from(e: TypeError) -> Self {
        TransformError::Type(e)
    }
}

/// A program prepared for one variant, together with the change counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformedVariant {
    /// The transformed program (instrumented, with constants re-expressed
    /// for this variant).
    pub program: Program,
    /// Per-category change counts.
    pub stats: TransformStats,
}

/// The automated UID transformation of §3.3–§3.5.
///
/// # Example
///
/// ```
/// use nvariant_diversity::UidTransform;
/// use nvariant_transform::{TransformOptions, UidTransformer};
/// use nvariant_vm::parse_program;
///
/// let program = parse_program(r#"
///     var server_uid: uid_t;
///     fn main() -> int {
///         server_uid = getuid();
///         if (server_uid == 0) { return setuid(48); }
///         return 0;
///     }
/// "#)?;
/// let transformer = UidTransformer::new(TransformOptions::default());
/// let (instrumented, stats) = transformer.instrument(&program)?;
/// assert!(stats.comparison_exposures >= 1);
/// assert!(nvariant_vm::pretty_print(&instrumented).contains("cc_eq"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UidTransformer {
    options: TransformOptions,
}

impl UidTransformer {
    /// Creates a transformer with the given options.
    #[must_use]
    pub fn new(options: TransformOptions) -> Self {
        UidTransformer { options }
    }

    /// The options in effect.
    #[must_use]
    pub fn options(&self) -> &TransformOptions {
        &self.options
    }

    /// Applies the variant-independent instrumentation: explicit constants,
    /// `cc_*` comparison exposure, log sanitization, `uid_value` exposure,
    /// and `cond_chk` insertion.
    ///
    /// The result is the program the paper calls the *transformed* program
    /// (Configuration 2); all variants share this exact instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Type`] if the program does not type-check.
    pub fn instrument(
        &self,
        program: &Program,
    ) -> Result<(Program, TransformStats), TransformError> {
        let mut instrumented = program.clone();
        let ctx = UidContext::analyze(&instrumented)?;
        let mut stats = TransformStats {
            implicit_constants_made_explicit: passes::explicit::run(&mut instrumented, &ctx),
            ..TransformStats::default()
        };
        if self.options.insert_detection_calls {
            stats.comparison_exposures = passes::comparisons::run(&mut instrumented, &ctx);
        }
        stats.log_sinks_sanitized =
            passes::logs::run(&mut instrumented, &ctx, &self.options.log_sinks);
        if self.options.insert_detection_calls {
            stats.single_value_exposures = passes::detection::run(&mut instrumented, &ctx);
            stats.conditional_checks = passes::cond_chk::run(&mut instrumented, &ctx);
        }
        Ok((instrumented, stats))
    }

    /// Re-expresses the UID constants of an (instrumented) program for one
    /// variant, returning the new program and the number of constants
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Type`] if the program does not type-check.
    pub fn reexpress(
        &self,
        program: &Program,
        transform: &UidTransform,
    ) -> Result<(Program, usize), TransformError> {
        let mut reexpressed = program.clone();
        let ctx = UidContext::analyze(&reexpressed)?;
        let count = passes::constants::run(
            &mut reexpressed,
            &ctx,
            transform,
            &self.options.skip_reexpression_globals,
        );
        Ok((reexpressed, count))
    }

    /// Produces the complete program for one variant: instrumentation plus
    /// per-variant constant reexpression.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Type`] if the program does not type-check.
    pub fn transform_for_variant(
        &self,
        program: &Program,
        transform: &UidTransform,
    ) -> Result<TransformedVariant, TransformError> {
        let (instrumented, mut stats) = self.instrument(program)?;
        let (reexpressed, constants) = self.reexpress(&instrumented, transform)?;
        stats.uid_constants_reexpressed = constants;
        Ok(TransformedVariant {
            program: reexpressed,
            stats,
        })
    }

    /// Produces programs for every variant of a UID-diversity deployment:
    /// one per [`UidTransform`], all sharing the same instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Type`] if the program does not type-check.
    pub fn transform_for_variants(
        &self,
        program: &Program,
        transforms: &[UidTransform],
    ) -> Result<Vec<TransformedVariant>, TransformError> {
        let (instrumented, stats) = self.instrument(program)?;
        let mut variants = Vec::with_capacity(transforms.len());
        for transform in transforms {
            let (reexpressed, constants) = self.reexpress(&instrumented, transform)?;
            let mut variant_stats = stats;
            variant_stats.uid_constants_reexpressed = constants;
            variants.push(TransformedVariant {
                program: reexpressed,
                stats: variant_stats,
            });
        }
        Ok(variants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_vm::{compile_program, parse_program, pretty_print};

    const SERVER_FRAGMENT: &str = r"
        var server_uid: uid_t;
        var request_count: int = 0;

        fn utoa(value: int, dst: ptr) -> int {
            dst[0] = '0' + value % 10;
            dst[1] = 0;
            return 1;
        }

        fn audit(who: uid_t) -> int {
            var line: buf[16];
            utoa(who, &line);
            return write(2, &line, 2);
        }

        fn drop_privileges() -> int {
            var rc: int;
            server_uid = getuid();
            if (!server_uid) { return 0 - 1; }
            rc = setuid(server_uid);
            if (rc != 0) { return 0 - 1; }
            audit(server_uid);
            return 0;
        }

        fn main() -> int {
            if (drop_privileges() != 0) { return 1; }
            if (server_uid >= 1000) { request_count = request_count + 1; }
            if (geteuid() == 0) { return 2; }
            return 0;
        }
    ";

    #[test]
    fn instrumentation_counts_every_category() {
        let program = parse_program(SERVER_FRAGMENT).unwrap();
        let transformer = UidTransformer::default();
        let (instrumented, stats) = transformer.instrument(&program).unwrap();
        let text = pretty_print(&instrumented);

        assert_eq!(stats.implicit_constants_made_explicit, 1);
        assert!(stats.comparison_exposures >= 3, "stats: {stats:?}");
        assert_eq!(stats.single_value_exposures, 1, "audit(server_uid)");
        assert!(
            stats.conditional_checks >= 2,
            "rc and drop_privileges checks"
        );
        assert_eq!(stats.log_sinks_sanitized, 1, "utoa(who, ...)");
        assert_eq!(stats.uid_constants_reexpressed, 0);

        assert!(text.contains("cc_eq((server_uid == 0)") || text.contains("cc_eq(server_uid, 0)"));
        assert!(text.contains("audit(uid_value(server_uid))"));
        assert!(text.contains("cond_chk"));
        assert!(text.contains("utoa(0, &line)"));
        // The instrumented program still compiles.
        assert!(compile_program(&instrumented).is_ok());
    }

    #[test]
    fn variant_generation_shares_instrumentation_and_differs_only_in_constants() {
        let program = parse_program(SERVER_FRAGMENT).unwrap();
        let transformer = UidTransformer::default();
        let variants = transformer
            .transform_for_variants(
                &program,
                &[UidTransform::Identity, UidTransform::paper_mask()],
            )
            .unwrap();
        assert_eq!(variants.len(), 2);
        let v0 = pretty_print(&variants[0].program);
        let v1 = pretty_print(&variants[1].program);
        assert_ne!(v0, v1);
        assert_eq!(variants[0].stats.uid_constants_reexpressed, 0);
        assert!(variants[1].stats.uid_constants_reexpressed >= 2);
        // Same statement structure: only literals differ.
        assert_eq!(v0.lines().count(), v1.lines().count());
        assert!(v1.contains("0x7fffffff") || v1.contains("0x7ffffc17"));
        // Both compile.
        assert!(compile_program(&variants[0].program).is_ok());
        assert!(compile_program(&variants[1].program).is_ok());
    }

    #[test]
    fn disabling_detection_calls_still_reexpresses_constants() {
        let program = parse_program(SERVER_FRAGMENT).unwrap();
        let transformer = UidTransformer::new(TransformOptions {
            insert_detection_calls: false,
            log_sinks: vec!["utoa".to_string()],
            skip_reexpression_globals: Vec::new(),
        });
        let variant = transformer
            .transform_for_variant(&program, &UidTransform::paper_mask())
            .unwrap();
        assert_eq!(variant.stats.comparison_exposures, 0);
        assert_eq!(variant.stats.single_value_exposures, 0);
        assert_eq!(variant.stats.conditional_checks, 0);
        assert!(variant.stats.uid_constants_reexpressed >= 2);
        let text = pretty_print(&variant.program);
        assert!(!text.contains("cc_eq"));
        assert!(text.contains("0x7fffffff"));
    }

    #[test]
    fn ill_typed_programs_are_rejected() {
        let program = parse_program("fn main() -> int { return missing; }").unwrap();
        let transformer = UidTransformer::default();
        assert!(matches!(
            transformer.instrument(&program),
            Err(TransformError::Type(_))
        ));
        assert!(transformer
            .transform_for_variant(&program, &UidTransform::paper_mask())
            .is_err());
    }

    #[test]
    fn identity_variant_is_textually_identical_to_the_instrumented_program() {
        let program = parse_program(SERVER_FRAGMENT).unwrap();
        let transformer = UidTransformer::default();
        let (instrumented, _) = transformer.instrument(&program).unwrap();
        let variant0 = transformer
            .transform_for_variant(&program, &UidTransform::Identity)
            .unwrap();
        assert_eq!(pretty_print(&instrumented), pretty_print(&variant0.program));
    }

    #[test]
    fn mutated_sources_transform_or_return_a_typed_error() {
        // SplitMix64 over a fixed seed: each case makes one or two small
        // edits to the fragment (delete, duplicate or move a few bytes, or
        // insert a token) and runs it through parse, the UID transform for
        // a variant pair, and compile. None may panic.
        let mut state: u64 = 20;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let tokens = [
            "uid_t",
            "int",
            "0",
            "48",
            "(",
            ")",
            "{",
            "}",
            ";",
            "=",
            "==",
            "!",
            "<",
            "&&",
            "server_uid",
            "getuid()",
            "return",
            "if",
            "while",
        ];
        let transforms = [UidTransform::Identity, UidTransform::paper_mask()];
        let mut reached = std::collections::BTreeMap::new();
        for _ in 0..1_000 {
            let mut source = SERVER_FRAGMENT.to_string();
            for _ in 0..=below(2) {
                let at = below(source.len() + 1);
                let run = (at + 1 + below(4)).min(source.len());
                match below(4) {
                    0 => drop(source.drain(at..run)),
                    1 => {
                        let copy = source[at..run].to_string();
                        source.insert_str(at, &copy);
                    }
                    2 => {
                        let moved: String = source.drain(at..run).collect();
                        source.insert_str(below(source.len() + 1), &moved);
                    }
                    _ => source.insert_str(at, &format!(" {} ", tokens[below(tokens.len())])),
                }
            }
            let stage = match parse_program(&source) {
                Err(_) => "parse",
                Ok(program) => {
                    match UidTransformer::default().transform_for_variants(&program, &transforms) {
                        Err(_) => "transform",
                        Ok(variants) => {
                            if variants.iter().all(|v| compile_program(&v.program).is_ok()) {
                                "compiled"
                            } else {
                                "compile"
                            }
                        }
                    }
                }
            };
            *reached.entry(stage).or_insert(0) += 1;
        }
        for stage in ["parse", "transform", "compiled"] {
            assert!(
                reached.contains_key(stage),
                "{stage} never reached: {reached:?}"
            );
        }
    }
}
