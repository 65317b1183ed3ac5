//! Findings and the rendered analysis report.
//!
//! Rendering is **stable**: the golden-fixture tests and the CI greps pin
//! the exact text, so diagnostics deliberately avoid anything
//! non-deterministic (hash order, wall clock, paths).

use nvariant_diversity::{UidTransform, VariantSpec};
use nvariant_vm::Instr;
use std::fmt;

/// The property a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Property {
    /// Structural drift between the variants (CFG shape, tags, opcodes,
    /// operands outside the declared relation, undecodable slots).
    Lockstep,
    /// A UID-class constant reached memory or a UID syscall argument
    /// untransformed.
    Residual,
    /// A syscall's UID-class arguments mix reexpression domains.
    Boundary,
}

impl Property {
    /// The stable diagnostic name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Property::Lockstep => "P-Lockstep",
            Property::Residual => "P-Residual",
            Property::Boundary => "P-Boundary",
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verified defect, anchored to an exact instruction where possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated property.
    pub property: Property,
    /// Code-segment byte offset of the offending instruction, if the
    /// finding anchors to one (image-level findings carry `None`).
    pub pc: Option<u32>,
    /// The enclosing function (`"<start>"` for the stub, `"<image>"` for
    /// data-segment findings).
    pub function: String,
    /// Basic-block index within the function's CFG.
    pub block: Option<usize>,
    /// Instruction index within the block.
    pub index: Option<usize>,
    /// The decoded instruction at `pc`, when it decodes.
    pub instr: Option<Instr>,
    /// What went wrong, including the lattice state that proves it.
    pub detail: String,
}

impl Finding {
    /// Renders the finding as one stable line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(self.property.name());
        if let Some(pc) = self.pc {
            out.push_str(&format!(" at pc {pc:#010x}"));
        }
        out.push_str(&format!(" in {}", self.function));
        if let (Some(block), Some(index)) = (self.block, self.index) {
            out.push_str(&format!(" (block {block}, instr {index})"));
        }
        out.push_str(": ");
        if let Some(instr) = self.instr {
            out.push_str(&format!("{instr} — "));
        }
        out.push_str(&self.detail);
        out
    }
}

/// The result of verifying one variant pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The spec of the pair's base variant (the one whose stream was
    /// abstractly interpreted).
    pub base: VariantSpec,
    /// The spec of the other variant.
    pub other: VariantSpec,
    /// The pairwise UID relation the images were checked against.
    pub relation: UidTransform,
    /// Functions scanned.
    pub functions: usize,
    /// Basic blocks reconstructed.
    pub blocks: usize,
    /// Instructions decoded and walked.
    pub instructions: usize,
    /// Everything that violated a property, in discovery order.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// `true` if every property held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The full, stable, multi-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pair: base [tag {}] {} / {}; other [tag {}] {} / {}; uid relation {}\n",
            self.base.tag,
            self.base.uid.describe(),
            self.base.addr.describe(),
            self.other.tag,
            self.other.uid.describe(),
            self.other.addr.describe(),
            self.relation.describe(),
        ));
        out.push_str(&format!(
            "scanned: {} functions, {} blocks, {} instructions\n",
            self.functions, self.blocks, self.instructions
        ));
        if self.is_clean() {
            out.push_str("verdict: clean (P-Residual, P-Lockstep, P-Boundary hold)\n");
        } else {
            out.push_str(&format!("verdict: {} finding(s)\n", self.findings.len()));
            for (i, finding) in self.findings.iter().enumerate() {
                out.push_str(&format!("  {}. {}\n", i + 1, finding.render()));
            }
        }
        out
    }
}

/// Collapses the reports of every pair of a deployment into one verdict
/// line, which the `--analyze` gates and `nvariant_analyze` print. Clean
/// verdicts start with `"clean"`; anything else names the first finding.
#[must_use]
pub fn combined_verdict(reports: &[AnalysisReport]) -> String {
    let pairs = reports.len();
    let instructions: usize = reports.iter().map(|r| r.instructions).sum();
    let total: usize = reports.iter().map(|r| r.findings.len()).sum();
    if total == 0 {
        format!("clean: {pairs} pair(s), {instructions} instructions verified")
    } else {
        let first = reports
            .iter()
            .flat_map(|r| r.findings.iter())
            .next()
            .expect("total > 0 implies a finding");
        format!(
            "findings: {total} across {pairs} pair(s); first: {}",
            first.render()
        )
    }
}

/// `true` if a verdict line reports a clean analysis.
#[must_use]
pub fn verdict_is_clean(line: &str) -> bool {
    line.starts_with("clean")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_vm::Op;

    fn report(findings: Vec<Finding>) -> AnalysisReport {
        AnalysisReport {
            base: VariantSpec::identity(),
            other: VariantSpec::identity()
                .with_uid(UidTransform::paper_mask())
                .with_tag(1),
            relation: UidTransform::paper_mask(),
            functions: 3,
            blocks: 7,
            instructions: 42,
            findings,
        }
    }

    fn finding() -> Finding {
        Finding {
            property: Property::Residual,
            pc: Some(0x2A),
            function: "main".to_string(),
            block: Some(2),
            index: Some(1),
            instr: Some(Instr::new(Op::Push, 0).with_tag(1)),
            detail: "UID-class constant 0x0 reaches setuid argument 0 untransformed".to_string(),
        }
    }

    #[test]
    fn finding_render_names_pc_function_block_and_instr() {
        let text = finding().render();
        assert!(text.starts_with("P-Residual at pc 0x0000002a in main (block 2, instr 1):"));
        assert!(text.contains("[1] Push 0x0"));
        assert!(text.contains("untransformed"));
    }

    #[test]
    fn clean_report_renders_and_verdicts() {
        let clean = report(Vec::new());
        assert!(clean.is_clean());
        assert!(clean.render().contains("verdict: clean"));
        let verdict = combined_verdict(&[clean]);
        assert!(verdict_is_clean(&verdict), "{verdict}");
        assert!(verdict.contains("42 instructions"));
    }

    #[test]
    fn dirty_report_verdict_names_first_finding() {
        let dirty = report(vec![finding()]);
        assert!(!dirty.is_clean());
        assert!(dirty.render().contains("  1. P-Residual at pc"));
        let verdict = combined_verdict(&[dirty]);
        assert!(!verdict_is_clean(&verdict));
        assert!(verdict.contains("findings: 1 across 1 pair(s)"));
        assert!(verdict.contains("pc 0x0000002a"));
        assert!(!verdict.contains('\n'), "verdict must be one line");
    }
}
