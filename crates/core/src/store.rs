//! The content-addressed artifact store: compiled systems cached on disk,
//! keyed by their canonical [fingerprint](crate::CompiledSystem::fingerprint),
//! so report binaries and CI skip the parse → transform → compile pipeline
//! across processes.
//!
//! The workspace's vendored `serde` is a no-op stand-in (the build
//! environment has no registry access), so artifacts are serialized in the
//! workspace's line codec ([`nvariant_types::lines`]), the one the campaign
//! shard codec uses: Rust-`Debug`-quoted strings, hex-encoded byte images,
//! and explicit element counts so truncation is always detected.
//!
//! What is stored is exactly what compiling computes: each variant's
//! compiled program and the transformation counters. The builder alone
//! fixes everything else — the configuration,
//! each variant's specification, memory layout and instruction tag, the
//! monitor configuration and the provisioned kernel template — so a load
//! hands the stored parts, with the caller's builder, to the same assembly
//! function [`compile`](crate::NVariantSystemBuilder::compile) uses. A
//! loaded artifact and a compiled one can differ only in their checksummed
//! images.
//!
//! Robustness contract: a corrupted, truncated or foreign cache entry is
//! *never* an error for the caller — [`ArtifactStore::get_or_compile`]
//! falls back to compiling (and atomically overwrites the bad entry), and
//! counts the event in its [`CacheStats`]. An entry is parsed straight from
//! the open file, one line at a time, with its body checksum folded in as
//! the lines go by: no entry is ever read whole, and a line that never ends
//! is refused at [`MAX_LINE_BYTES`](nvariant_types::lines::MAX_LINE_BYTES).
//! Writes go through a write-then-rename so concurrent processes can never
//! observe a torn entry.

use crate::system::{BuildError, CompiledSystem, NVariantSystemBuilder};
use nvariant_transform::TransformStats;
use nvariant_types::hex::{hex_decode, hex_encode};
use nvariant_types::lines::{quote, Line, LineReader, ParseError};
use nvariant_vm::{CompiledProgram, FunctionSig, Type, TypeInfo};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Format version of the on-disk artifact files. v4 stores only what
/// compiling computes, and no verifier verdict: the static verifier runs
/// only through
/// [`analyze_diversity`](crate::NVariantSystemBuilder::analyze_diversity).
/// v3 and older entries fail the header check and are recompiled over,
/// which is the codec's designed upgrade path.
const HEADER: &str = "nvariant-artifact v4";

/// FNV-1a 64: the workspace's stable cross-process identity hash,
/// re-exported from [`nvariant_types::fnv`] — the same construction the
/// campaign plan hash uses, because cache keys must survive process and
/// machine boundaries (unlike `std`'s `DefaultHasher`, whose output may
/// change between releases).
pub use nvariant_types::fnv::fnv1a_64;

/// A point-in-time snapshot of cache effectiveness counters, shared by the
/// artifact store and the campaign cell cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from the cache.
    pub hits: u64,
    /// Keys that had no cache entry (and were computed fresh).
    pub misses: u64,
    /// Entries that existed but were unusable — corrupt, truncated, or
    /// keyed to different content — and were recomputed and overwritten.
    pub invalidations: u64,
}

impl CacheStats {
    /// Component-wise sum (used when merging per-shard reports).
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} invalidations",
            self.hits, self.misses, self.invalidations
        )
    }
}

/// Thread-safe live counters behind a [`CacheStats`] snapshot.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheCounters {
    /// Records a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an unusable (corrupt or mismatched) entry.
    pub fn invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// The current snapshot.
    #[must_use]
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// The environment variable naming the shared cache directory, honoured by
/// every binary that doesn't receive an explicit `--cache-dir`.
pub const CACHE_DIR_ENV: &str = "NVARIANT_CACHE_DIR";

/// Writes `text` to `path` atomically: the content lands in a unique
/// sibling temp file first and is renamed into place, so a reader (in this
/// process or another) either sees the previous entry or the complete new
/// one — never a torn write. Two concurrent writers of the same key are
/// harmless: both rename complete files, and last-rename-wins.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created or
/// the file cannot be written or renamed.
pub fn atomic_write_text(path: &Path, text: &str) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let directory = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(directory)?;
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp-{}-{unique}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    // Any failure past this point removes the temp file: a full disk must
    // degrade to recomputing, not to .tmp litter compounding the pressure.
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// The two-level compiled-artifact cache: an in-process memory map of
/// `Arc<CompiledSystem>` plus an optional disk layer under
/// `<root>/artifacts/<fingerprint>.txt`.
///
/// The store is keyed purely by content
/// ([`NVariantSystemBuilder::fingerprint`]), so entries never go stale:
/// changing the source, the deployment configuration, the transformation
/// options or any other builder knob changes the key, and the old entry is
/// simply never looked up again.
#[derive(Debug)]
pub struct ArtifactStore {
    root: Option<PathBuf>,
    memory: Mutex<HashMap<u64, Arc<CompiledSystem>>>,
    counters: CacheCounters,
}

impl ArtifactStore {
    /// A store with no disk layer: artifacts are cached per process only
    /// (the pre-store behaviour of the process-wide compiled-httpd cache).
    #[must_use]
    pub fn memory_only() -> Self {
        ArtifactStore {
            root: None,
            memory: Mutex::new(HashMap::new()),
            counters: CacheCounters::default(),
        }
    }

    /// A store persisting artifacts under `<root>/artifacts/`.
    #[must_use]
    pub fn at(root: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            root: Some(root.into()),
            memory: Mutex::new(HashMap::new()),
            counters: CacheCounters::default(),
        }
    }

    /// A store configured from the environment: the directory named by
    /// [`CACHE_DIR_ENV`] when set and non-empty, otherwise memory-only.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var_os(CACHE_DIR_ENV).filter(|v| !v.is_empty()) {
            Some(dir) => ArtifactStore::at(PathBuf::from(dir)),
            None => ArtifactStore::memory_only(),
        }
    }

    /// The disk layer's root directory, if the store has one.
    #[must_use]
    pub fn disk_root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// The on-disk path of one fingerprint's entry (whether or not it
    /// exists), or `None` for a memory-only store.
    #[must_use]
    pub fn entry_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.root.as_ref().map(|root| {
            root.join("artifacts")
                .join(format!("{fingerprint:016x}.txt"))
        })
    }

    /// Cache-effectiveness counters since this store was created.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// The artifact for `builder`, from cache or freshly compiled. Every
    /// caller of one fingerprint shares one `Arc`.
    ///
    /// Lookup order: the in-process memory map, then the disk layer, then
    /// [`compile`](crate::NVariantSystemBuilder::compile). A fresh compile
    /// is inserted into both layers. Corrupt or mismatched disk entries are
    /// recompiled over, never surfaced as errors.
    ///
    /// # Errors
    ///
    /// Returns the [`BuildError`] of the fallback compilation; cache-layer
    /// failures are absorbed (a broken cache degrades to compiling).
    pub fn get_or_compile(
        &self,
        builder: NVariantSystemBuilder,
    ) -> Result<Arc<CompiledSystem>, BuildError> {
        let fingerprint = builder.fingerprint();
        let cached = self
            .memory
            .lock()
            .expect("artifact store memory layer poisoned")
            .get(&fingerprint)
            .cloned();
        if let Some(system) = cached {
            self.counters.hit();
            return Ok(system);
        }

        let path = self.entry_path(fingerprint);
        match path.as_deref().map(std::fs::File::open) {
            Some(Ok(file)) => match read_artifact(std::io::BufReader::new(file), &builder) {
                Ok(loaded) => {
                    self.counters.hit();
                    return Ok(self.insert_memory(fingerprint, loaded));
                }
                // Corrupt, from another format version, or stored for
                // another builder: unusable either way — recompile and
                // overwrite.
                Err(_) => self.counters.invalidation(),
            },
            Some(Err(_)) | None => self.counters.miss(),
        }

        let compiled = builder.compile()?;
        if let Some(path) = path {
            // A full disk or read-only cache dir degrades to memory-only
            // caching; it must never fail the build.
            let _ = atomic_write_text(&path, &to_artifact_text(&compiled));
        }
        Ok(self.insert_memory(fingerprint, compiled))
    }

    /// Inserts a freshly obtained artifact into the memory layer and
    /// returns the shared copy. A racing insert of the same fingerprint
    /// keeps the first entry: both hold the same artifact.
    fn insert_memory(&self, fingerprint: u64, system: CompiledSystem) -> Arc<CompiledSystem> {
        let mut memory = self
            .memory
            .lock()
            .expect("artifact store memory layer poisoned");
        Arc::clone(
            memory
                .entry(fingerprint)
                .or_insert_with(|| Arc::new(system)),
        )
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn type_token(ty: Type) -> String {
    match ty {
        Type::Int => "int".to_string(),
        Type::UidT => "uid".to_string(),
        Type::GidT => "gid".to_string(),
        Type::Ptr => "ptr".to_string(),
        Type::Void => "void".to_string(),
        Type::Buf(n) => format!("buf:{n}"),
    }
}

fn render_program(out: &mut String, program: &CompiledProgram) {
    out.push_str(&format!("program {}\n", program.entry_offset));
    out.push_str(&format!("code {}\n", hex_encode(program.code())));
    out.push_str(&format!("data {}\n", hex_encode(&program.globals_image)));
    out.push_str(&format!("globals {}\n", program.globals_map.len()));
    for (name, (offset, ty)) in program.globals_map.iter() {
        out.push_str(&format!("g {} {offset} {}\n", quote(name), type_token(*ty)));
    }
    out.push_str(&format!("funcs {}\n", program.functions.len()));
    for (name, offset) in program.functions.iter() {
        out.push_str(&format!("f {} {offset}\n", quote(name)));
    }
    let info = &program.type_info;
    out.push_str(&format!("tglobals {}\n", info.globals.len()));
    for (name, ty) in &info.globals {
        out.push_str(&format!("tg {} {}\n", quote(name), type_token(*ty)));
    }
    out.push_str(&format!("tfns {}\n", info.functions.len()));
    for (name, sig) in &info.functions {
        let mut line = format!("tf {} {}", quote(name), type_token(sig.ret));
        for param in sig.params.iter().map(|&t| type_token(t)) {
            line.push(' ');
            line.push_str(&param);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("tlocals {}\n", info.locals.len()));
    for (function, table) in &info.locals {
        out.push_str(&format!("tl {} {}\n", quote(function), table.len()));
        for (name, ty) in table {
            out.push_str(&format!("tlv {} {}\n", quote(name), type_token(*ty)));
        }
    }
    out.push_str("endprogram\n");
}

/// Serializes what compiling computed — each variant's compiled program
/// and the transformation counters — to the artifact text format. [`from_artifact_text`] assembles everything else
/// from the caller's builder.
///
/// The second line is a FNV-1a checksum of everything after it. The
/// fingerprint cannot play that role — it is derived from the *builder's
/// inputs*, not from the serialized bytes — so without the checksum a
/// flipped bit inside a code image could still parse and then run, and
/// every consumer (including a `--verify-rerun` that compiles through the
/// same store) would agree on the wrong artifact.
#[must_use]
pub fn to_artifact_text(system: &CompiledSystem) -> String {
    let mut out = String::new();
    out.push_str(&format!("fingerprint {:#018x}\n", system.fingerprint));
    let s = &system.transform_stats;
    out.push_str(&format!(
        "stats {} {} {} {} {} {}\n",
        s.uid_constants_reexpressed,
        s.implicit_constants_made_explicit,
        s.single_value_exposures,
        s.comparison_exposures,
        s.conditional_checks,
        s.log_sinks_sanitized
    ));
    let variants = &system.plan.variants;
    out.push_str(&format!("programs {}\n", variants.len()));
    for variant in variants {
        render_program(&mut out, &variant.program);
    }
    format!(
        "{HEADER}\nchecksum {:#018x}\n{out}",
        fnv1a_64(out.trim_end_matches('\n').as_bytes())
    )
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn parse_type(token: &str) -> Result<Type, String> {
    Ok(match token {
        "int" => Type::Int,
        "uid" => Type::UidT,
        "gid" => Type::GidT,
        "ptr" => Type::Ptr,
        "void" => Type::Void,
        _ => {
            let n = token
                .strip_prefix("buf:")
                .and_then(|n| n.parse::<u32>().ok())
                .ok_or_else(|| format!("unknown type token {token:?}"))?;
            Type::Buf(n)
        }
    })
}

/// Reads a `key count` line.
fn count_field<R: BufRead>(lines: &mut LineReader<R>, key: &str) -> Result<usize, ParseError> {
    checked_count(lines.field(key)?)
}

/// Parses an element count. An artifact file is finite, so a count beyond
/// a generous bound is corruption, not data: it is rejected before the
/// loop over the elements allocates or starves on a truncated file.
fn checked_count(count: Line<'_>) -> Result<usize, ParseError> {
    const CAP: usize = 1 << 20;
    match count.number()? {
        n if n > CAP => count.fail(format!("implausible element count {n}")),
        n => Ok(n),
    }
}

fn read_type(token: Line<'_>) -> Result<Type, ParseError> {
    token.lift(parse_type(token.text()))
}

fn read_program<R: BufRead>(lines: &mut LineReader<R>) -> Result<CompiledProgram, ParseError> {
    let entry_offset: u32 = lines.field("program")?.number()?;
    let code = lines.field("code")?;
    let code = code.lift(hex_decode(code.text()))?;
    let data = lines.field("data")?;
    let globals_image = data.lift(hex_decode(data.text()))?;

    let mut globals_map = std::collections::BTreeMap::new();
    for _ in 0..count_field(lines, "globals")? {
        let (name, rest) = lines.field("g")?.take_quoted()?;
        let [offset, ty] = rest.tokens("global needs offset and type")?;
        globals_map.insert(name, (offset.number()?, read_type(ty)?));
    }

    let mut functions = std::collections::BTreeMap::new();
    for _ in 0..count_field(lines, "funcs")? {
        let (name, offset) = lines.field("f")?.take_quoted()?;
        functions.insert(name, offset.number()?);
    }

    let mut type_info = TypeInfo::default();
    for _ in 0..count_field(lines, "tglobals")? {
        let (name, ty) = lines.field("tg")?.take_quoted()?;
        type_info.globals.insert(name, read_type(ty)?);
    }
    for _ in 0..count_field(lines, "tfns")? {
        let (name, signature) = lines.field("tf")?.take_quoted()?;
        let mut types = signature
            .text()
            .split(' ')
            .filter(|t| !t.is_empty())
            .map(parse_type);
        let ret = match types.next() {
            Some(ret) => signature.lift(ret)?,
            None => return signature.fail("function signature needs a return type"),
        };
        let params = signature.lift(types.collect())?;
        type_info
            .functions
            .insert(name, FunctionSig { params, ret });
    }
    for _ in 0..count_field(lines, "tlocals")? {
        let (function, count) = lines.field("tl")?.take_quoted()?;
        let count = checked_count(count)?;
        let mut table = std::collections::BTreeMap::new();
        for _ in 0..count {
            let (name, ty) = lines.field("tlv")?.take_quoted()?;
            table.insert(name, read_type(ty)?);
        }
        type_info.locals.insert(function, table);
    }

    let end = lines.next_line()?;
    if end.text() != "endprogram" {
        return end.fail(format!("expected \"endprogram\", got {:?}", end.text()));
    }
    Ok(CompiledProgram::new(
        code,
        globals_image,
        globals_map,
        functions,
        entry_offset,
        type_info,
    ))
}

/// Parses an artifact entry from `reader` one line at a time and assembles
/// it for `builder`.
fn read_artifact<R: BufRead>(
    reader: R,
    builder: &NVariantSystemBuilder,
) -> Result<CompiledSystem, ParseError> {
    let mut lines = LineReader::new(reader);
    let header = lines.next_line()?;
    if header.text() != HEADER {
        return header.fail(format!("expected {HEADER:?}, got {:?}", header.text()));
    }
    let declared = lines.field("checksum")?.hex_number()?;
    let checksum_line = lines.line();
    // The body checksum must hold before anything is assembled: the
    // fingerprint is derived from the builder's inputs, not from these
    // bytes, so it cannot detect a flipped bit inside a code image that
    // still parses. The reader folds every body line into it as it goes.
    lines.start_checksum();
    let fingerprint = lines.field("fingerprint")?;
    if fingerprint.hex_number()? != builder.fingerprint() {
        return fingerprint.fail(format!(
            "artifact fingerprint {} is not the builder's {:#018x}",
            fingerprint.text(),
            builder.fingerprint()
        ));
    }
    let [a, b, c, d, e, f] = lines.field("stats")?.tokens("stats needs 6 counters")?;
    let transform_stats = TransformStats {
        uid_constants_reexpressed: a.number()?,
        implicit_constants_made_explicit: b.number()?,
        single_value_exposures: c.number()?,
        comparison_exposures: d.number()?,
        conditional_checks: e.number()?,
        log_sinks_sanitized: f.number()?,
    };
    let programs = (0..count_field(&mut lines, "programs")?)
        .map(|_| read_program(&mut lines))
        .collect::<Result<Vec<_>, _>>()?;
    // Blank lines after the last program are tolerated, like the
    // checksum's trimmed trailing newlines: an editor's or a text-mode
    // transfer's extra line ends stay harmless.
    while let Some(line) = lines.read_line()? {
        if !line.text().is_empty() {
            return line.fail(format!(
                "unexpected content after the last program: {:?}",
                line.text()
            ));
        }
    }
    if lines.checksum() != Some(declared) {
        return Err(ParseError {
            line: checksum_line,
            message: "artifact checksum mismatch: the entry is corrupt".to_string(),
        });
    }
    builder
        .assemble(programs, transform_stats)
        .map_err(|error| ParseError {
            line: 0,
            message: format!("artifact does not fit the builder: {error}"),
        })
}

/// Parses an artifact file and assembles it for `builder`, through the
/// same function [`compile`](NVariantSystemBuilder::compile) uses.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line if the text is not a
/// well-formed artifact file, or if it was stored for another builder: its
/// fingerprint differs from the builder's, or its program count from the
/// builder's variant count.
pub fn from_artifact_text(
    text: &str,
    builder: &NVariantSystemBuilder,
) -> Result<CompiledSystem, ParseError> {
    read_artifact(text.as_bytes(), builder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeploymentConfig;
    use nvariant_monitor::MonitorConfig;
    use nvariant_types::{Fnv1a, Uid};

    const SERVER: &str = r"
        var greeting: buf[16];
        fn main() -> int {
            var uid: uid_t;
            uid = getuid();
            if (uid == 0) { return setuid(48); }
            return 0;
        }
    ";

    fn builder(config: DeploymentConfig) -> NVariantSystemBuilder {
        NVariantSystemBuilder::from_source(SERVER)
            .unwrap()
            .config(config)
    }

    fn all_configs() -> Vec<DeploymentConfig> {
        let mut configs = DeploymentConfig::paper_configurations();
        configs.push(DeploymentConfig::composed_uid_and_address());
        configs.push(DeploymentConfig::two_variant_instruction_tagging());
        configs
    }

    fn template_digest(system: &CompiledSystem) -> u64 {
        let mut digest = Fnv1a::new();
        system.kernel_template().digest_into(&mut digest);
        digest.finish()
    }

    #[test]
    fn artifact_text_round_trips_every_configuration() {
        for config in all_configs() {
            let label = config.label();
            let source = builder(config);
            let compiled = source.clone().compile().unwrap();
            let text = to_artifact_text(&compiled);
            assert!(text.starts_with("nvariant-artifact v4\n"), "{label}");
            assert!(!text.contains("\nanalysis "), "{label}");
            let loaded =
                from_artifact_text(&text, &source).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(loaded.fingerprint(), compiled.fingerprint(), "{label}");
            assert_eq!(loaded.config(), compiled.config(), "{label}");
            assert_eq!(
                loaded.transform_stats(),
                compiled.transform_stats(),
                "{label}"
            );
            assert_eq!(loaded.variant_count(), compiled.variant_count(), "{label}");
            // The assembled template is the compiled one, byte for byte...
            assert_eq!(
                template_digest(&loaded),
                template_digest(&compiled),
                "{label}"
            );
            // ...so both artifacts run identically.
            assert_eq!(
                loaded.instantiate().run(),
                compiled.instantiate().run(),
                "{label}"
            );
            // And the serialization is a fixed point.
            assert_eq!(to_artifact_text(&loaded), text, "{label}");
        }
    }

    #[test]
    fn loaded_artifacts_expose_the_same_symbol_addresses() {
        // Attack payload generators read symbol addresses from the
        // instantiated system; the codec must preserve the globals map.
        let source = builder(DeploymentConfig::TwoVariantUid);
        let compiled = source.clone().compile().unwrap();
        let loaded = from_artifact_text(&to_artifact_text(&compiled), &source).unwrap();
        let a = compiled.instantiate().global_addr("greeting");
        let b = loaded.instantiate().global_addr("greeting");
        assert!(a.is_some());
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let base = builder(DeploymentConfig::TwoVariantUid).fingerprint();
        // Stable across builder clones and across compile.
        assert_eq!(base, builder(DeploymentConfig::TwoVariantUid).fingerprint());
        assert_eq!(
            base,
            builder(DeploymentConfig::TwoVariantUid)
                .compile()
                .unwrap()
                .fingerprint()
        );
        // Every input perturbs it.
        assert_ne!(
            base,
            builder(DeploymentConfig::TwoVariantAddress).fingerprint()
        );
        assert_ne!(
            base,
            NVariantSystemBuilder::from_source("fn main() -> int { return 1; }")
                .unwrap()
                .config(DeploymentConfig::TwoVariantUid)
                .fingerprint()
        );
        assert_ne!(
            base,
            builder(DeploymentConfig::TwoVariantUid)
                .initial_uid(Uid::new(48))
                .fingerprint()
        );
        assert_ne!(
            base,
            builder(DeploymentConfig::TwoVariantUid)
                .transform_options(nvariant_transform::TransformOptions {
                    insert_detection_calls: false,
                    ..Default::default()
                })
                .fingerprint()
        );
        assert_ne!(
            base,
            builder(DeploymentConfig::TwoVariantUid)
                .monitor_config(MonitorConfig::default().with_unshared_file("/etc/motd"))
                .fingerprint()
        );
        assert_ne!(
            base,
            builder(DeploymentConfig::TwoVariantUid)
                .monitor_config(MonitorConfig {
                    max_steps_per_slice: 1,
                    max_syscalls: 1,
                    ..MonitorConfig::default()
                })
                .fingerprint()
        );
    }

    #[test]
    fn store_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("nvariant-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::at(&dir);
        let first = store
            .get_or_compile(builder(DeploymentConfig::TwoVariantUid))
            .unwrap();
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().hits, 0);
        let entry = store.entry_path(first.fingerprint()).unwrap();
        assert!(entry.is_file(), "{}", entry.display());

        // Memory hit in the same store.
        let second = store
            .get_or_compile(builder(DeploymentConfig::TwoVariantUid))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.stats().hits, 1);

        // A fresh store (a "new process") hits the disk layer.
        let other = ArtifactStore::at(&dir);
        let loaded = store_loaded(&other, DeploymentConfig::TwoVariantUid);
        assert_eq!(other.stats().hits, 1);
        assert_eq!(other.stats().misses, 0);
        assert_eq!(loaded.instantiate().run(), first.instantiate().run());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn store_loaded(store: &ArtifactStore, config: DeploymentConfig) -> Arc<CompiledSystem> {
        store.get_or_compile(builder(config)).unwrap()
    }

    /// `body` (everything after the checksum line) under a valid header and
    /// checksum, so a structurally bad body reaches the structural parser.
    fn with_valid_checksum(body: &str) -> String {
        format!(
            "{HEADER}\nchecksum {:#018x}\n{body}",
            fnv1a_64(body.trim_end_matches('\n').as_bytes())
        )
    }

    #[test]
    fn corrupt_disk_entries_fall_back_to_recompile_and_are_overwritten() {
        let dir =
            std::env::temp_dir().join(format!("nvariant-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed_store = ArtifactStore::at(&dir);
        let compiled = store_loaded(&seed_store, DeploymentConfig::TwoVariantUid);
        let entry = seed_store.entry_path(compiled.fingerprint()).unwrap();
        let good = std::fs::read_to_string(&entry).unwrap();
        let body = good.splitn(3, '\n').nth(2).unwrap();

        for corruption in [
            "garbage".to_string(),
            String::new(),
            // Truncation at half the file.
            good[..good.len() / 2].to_string(),
            // A valid file stored for another builder in the slot.
            with_valid_checksum(&body.replacen(
                &format!("fingerprint {:#018x}", compiled.fingerprint()),
                &format!("fingerprint {:#018x}", compiled.fingerprint() ^ 1),
                1,
            )),
            // One program where the configuration runs two variants.
            with_valid_checksum(&format!(
                "{}endprogram\n",
                body.replacen("programs 2", "programs 1", 1)
                    .split("endprogram\n")
                    .next()
                    .unwrap()
            )),
            // An entry as the previous format version wrote it: v3 kept a
            // verifier verdict line, `-` for an unverified build.
            with_valid_checksum(&body.replacen("\nprograms ", "\nanalysis -\nprograms ", 1))
                .replacen(HEADER, "nvariant-artifact v3", 1),
            // An entry from an older format version.
            good.replacen(HEADER, "nvariant-artifact v2", 1),
            // One flipped hex digit inside a code image: structurally a
            // perfectly valid file — only the body checksum catches it.
            {
                let at = good.find("\ncode ").unwrap() + "\ncode ".len() + 10;
                let mut bytes = good.clone().into_bytes();
                bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
                String::from_utf8(bytes).unwrap()
            },
        ] {
            std::fs::write(&entry, &corruption).unwrap();
            let fresh = ArtifactStore::at(&dir);
            let loaded = store_loaded(&fresh, DeploymentConfig::TwoVariantUid);
            assert_eq!(fresh.stats().invalidations, 1, "{corruption:?}");
            assert_eq!(loaded.instantiate().run(), compiled.instantiate().run());
            // The bad entry was overwritten with a good one.
            assert_eq!(std::fs::read_to_string(&entry).unwrap(), good);
            let reread = ArtifactStore::at(&dir);
            let again = store_loaded(&reread, DeploymentConfig::TwoVariantUid);
            assert_eq!(reread.stats().hits, 1);
            assert_eq!(again.instantiate().run(), compiled.instantiate().run());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_store_never_touches_disk() {
        let store = ArtifactStore::memory_only();
        assert!(store.disk_root().is_none());
        assert!(store.entry_path(1).is_none());
        let first = store_loaded(&store, DeploymentConfig::Unmodified);
        let second = store_loaded(&store, DeploymentConfig::Unmodified);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn atomic_writes_replace_complete_files() {
        let dir = std::env::temp_dir().join(format!("nvariant-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("entry.txt");
        atomic_write_text(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        atomic_write_text(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_name_the_offending_line() {
        let source = builder(DeploymentConfig::TwoVariantUid);
        let err = from_artifact_text("not an artifact", &source).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));

        let text = to_artifact_text(&source.clone().compile().unwrap());
        // Truncation at every line boundary is a clean error.
        let total = text.lines().count();
        for keep in 0..total {
            let truncated = text.lines().take(keep).fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
            let err = from_artifact_text(&truncated, &source)
                .expect_err("a proper prefix can never be a complete artifact");
            assert!(err.line <= keep + 1, "kept {keep}, error line {}", err.line);
        }
        // Trailing content after the last program is rejected; blank lines
        // are tolerated.
        assert!(from_artifact_text(&format!("{text}{text}"), &source).is_err());
        let body = text.splitn(3, '\n').nth(2).unwrap();
        let err = from_artifact_text(&with_valid_checksum(&format!("{body}end\n")), &source)
            .expect_err("trailing content");
        assert_eq!(err.line, text.lines().count() + 1, "{err}");
        assert!(from_artifact_text(&format!("{text}\n\n"), &source).is_ok());
        // So is a text-mode transfer's conversion of every line end.
        assert!(from_artifact_text(&text.replace('\n', "\r\n"), &source).is_ok());
    }

    #[test]
    fn an_oversized_entry_is_one_invalidation_read_a_line_at_a_time() {
        let dir =
            std::env::temp_dir().join(format!("nvariant-store-oversized-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed_store = ArtifactStore::at(&dir);
        let compiled = store_loaded(&seed_store, DeploymentConfig::TwoVariantUid);
        let entry = seed_store.entry_path(compiled.fingerprint()).unwrap();
        let good = std::fs::read_to_string(&entry).unwrap();
        // 512 MiB of zeros, sparse on disk: reading the entry whole would
        // need that much memory, and fails under a smaller address-space
        // cap, which used to count it as a miss.
        std::fs::File::create(&entry)
            .unwrap()
            .set_len(512 << 20)
            .unwrap();
        let fresh = ArtifactStore::at(&dir);
        let loaded = store_loaded(&fresh, DeploymentConfig::TwoVariantUid);
        assert_eq!(
            fresh.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                invalidations: 1
            }
        );
        assert_eq!(loaded.instantiate().run(), compiled.instantiate().run());
        assert_eq!(std::fs::read_to_string(&entry).unwrap(), good);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
