//! Cross-process memoization of completed campaign cells.
//!
//! A cell's deterministic content is fixed by the plan and its matrix
//! coordinates alone (the determinism invariant the whole crate is built
//! on), so a completed [`CellResult`] can be reused by any later run of the
//! same plan — in this process or another. The cache key is exactly that
//! identity: the plan's canonical hash plus the cell's
//! `(config, world, scenario, replicate)` coordinates. The plan hash covers
//! every axis (configuration labels, deployment options and transform
//! counters, world labels, scenario labels/ports/judging), so flipping any
//! axis or transform option changes the hash and the old records are simply
//! never looked up again — invalidation by construction, with no stale-entry
//! scanning.
//!
//! # Packs
//!
//! A plan's cells live in append-only packs,
//! `<root>/cells/<plan_hash>/<name>.pack`. A pack starts with the line
//! `nvariant-cell-pack v1` and then the header lines a shard file starts
//! with ([`ShardWriter::new`](crate::ShardWriter::new)): plan name, base
//! seed, plan hash and shape, one worker, zero wall. Records follow. A
//! record is a frame line,
//! `record <config> <world> <scenario> <replicate> <bytes> <checksum>`,
//! then exactly `<bytes>` bytes: the cell block
//! [`ShardWriter::push`](crate::ShardWriter::push) writes, parsed back by
//! the grammar a [`ShardCursor`](crate::ShardCursor) reads, so a hit is
//! bit-for-bit the cell a cold run would produce. The checksum is the word
//! fold of those bytes ([`nvariant_types::fnv`]), which costs a fraction of
//! encoding them, and in which a change to any bit of a word reaches the
//! whole checksum. Packs written by builds that checksummed with word-wise
//! FNV-1a instead fail the checksum once per record: each such record is
//! one invalidation, recomputed and appended under the new checksum.
//!
//! **One writer per pack.** A handle creates its own pack, with
//! `create_new`, on its first insert. Pack names are a zero-padded creation
//! time, the process id and a per-process counter, so name order is
//! creation order. The worker threads of one handle append to its pack
//! under a lock: a cell is encoded and checksummed outside the lock, and
//! its frame and block go out in one write. No other handle, in this
//! process or another, ever writes that pack, so a record cut short by a
//! crash, or still being written, can only sit at a pack's tail.
//!
//! **Index.** On its first lookup a handle reads the frame lines of every
//! pack, seeking past the bodies, and records where each plan cell's latest
//! record is: packs in name order, records in file order, a later record
//! replacing an earlier one. Coordinates outside the plan's shape are
//! ignored, so the index holds at most one entry per plan cell whatever the
//! packs hold. The handle's own inserts join the index as they are written.
//!
//! # Robustness
//!
//! Mirroring the artifact store, a damaged cache is recomputed, never an
//! error and never a crash:
//!
//! - A frame line cut short, or a body that runs past the end of its pack,
//!   is a record still being written or torn by a crash. It ends that
//!   pack's scan and counts nothing, so its cell is a miss.
//! - A pack whose header is not this plan's is skipped, and an unreadable
//!   frame line ends its pack's scan.
//! - A record that fails its checksum, does not parse, or describes another
//!   cell is one invalidation. The recomputed cell is appended as a new
//!   record, which replaces the bad one on the next run.
//!
//! A lookup streams its record through a [`LineReader`], holding one line
//! at a time, so a corrupt record of any size costs bounded memory.

use crate::cell::{CellResult, CellSpec};
use crate::report::PlanShape;
use crate::shardio::{parse_cell, parse_header, render_cell, render_header, ShardHeader};
use nvariant::store::{CacheCounters, CacheStats};
use nvariant_types::fnv::{word_fold, WordFold};
use nvariant_types::lines::{Line, LineReader, ParseError, READ_BUFFER_BYTES};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The first line of every pack.
const PACK_MAGIC: &str = "nvariant-cell-pack v1";

/// Bytes an insert leaves free before the cell block it renders, for the
/// block's frame line, so frame and block go out in one write without
/// copying the block. A frame line is at most 131 bytes: `record`, five
/// 20-digit numbers and an 18-character checksum, six separators and `\n`.
const FRAME_ROOM: usize = 160;

/// A cell's `(config, world, scenario, replicate)` coordinates.
type Coordinates = (usize, usize, usize, usize);

/// Where one record's cell block is, and what it must hash to.
#[derive(Clone, Debug)]
struct Record {
    pack: Arc<Path>,
    offset: u64,
    bytes: u64,
    checksum: u64,
}

/// The pack a handle appends to.
#[derive(Debug)]
struct Pack {
    file: File,
    path: Arc<Path>,
    len: u64,
}

/// A handle on one plan's cell-cache directory, `<root>/cells/<plan_hash>/`
/// (see the module docs).
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    /// The header every pack is written under: the plan identity, one
    /// worker, zero total wall.
    header: ShardHeader,
    counters: CacheCounters,
    /// This handle's own pack, created on its first insert.
    pack: Mutex<Option<Pack>>,
    /// The latest record of each plan cell, built on the first lookup.
    index: Mutex<Option<HashMap<Coordinates, Record>>>,
}

impl CellCache {
    /// Opens the cache for one plan identity under `root`. Nothing is
    /// created on disk until the first [`insert`](Self::insert), and
    /// nothing is read until the first [`lookup`](Self::lookup).
    #[must_use]
    pub fn open(
        root: &Path,
        name: impl Into<String>,
        base_seed: u64,
        plan_hash: u64,
        shape: PlanShape,
    ) -> Self {
        CellCache {
            dir: root.join("cells").join(format!("{plan_hash:016x}")),
            header: ShardHeader {
                name: name.into(),
                base_seed,
                plan_hash,
                shape,
                workers: 1,
                total_wall: Duration::ZERO,
            },
            counters: CacheCounters::default(),
            pack: Mutex::new(None),
            index: Mutex::new(None),
        }
    }

    /// The path of the one-file entry that builds before packs wrote for
    /// `spec`. The cache neither writes nor reads such files any more, so a
    /// cache this build wrote never has one.
    #[must_use]
    pub fn entry_path(&self, spec: &CellSpec) -> PathBuf {
        let (config, world, scenario, replicate) = spec.coordinates();
        self.dir
            .join(format!("cell-{config}-{world}-{scenario}-{replicate}.txt"))
    }

    /// Cache-effectiveness counters since this handle was opened.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Looks up the completed cell for `spec`. Returns `None` — counting a
    /// miss when no record of the cell was found, or an invalidation when
    /// its latest record fails its checksum, does not parse, or describes a
    /// different cell — whenever the caller must recompute.
    #[must_use]
    pub fn lookup(&self, spec: &CellSpec) -> Option<CellResult> {
        let record = self
            .index
            .lock()
            .expect("cell cache index poisoned")
            .get_or_insert_with(|| self.scan())
            .get(&spec.coordinates())
            .cloned();
        let Some(record) = record else {
            self.counters.miss();
            return None;
        };
        match record.read() {
            Some(cell) if cell.spec == *spec => {
                self.counters.hit();
                Some(cell)
            }
            _ => {
                self.counters.invalidation();
                None
            }
        }
    }

    /// Appends a completed cell to this handle's pack as one record.
    /// Cache-layer I/O failures (full disk, read-only directory) are
    /// swallowed: a broken cache degrades to recomputing, never to failing
    /// the run.
    pub fn insert(&self, cell: &CellResult) {
        let payload: usize = cell
            .exchanges
            .iter()
            .map(|exchange| 2 * (exchange.request.len() + exchange.response.len()) + 16)
            .sum();
        let mut record = Vec::with_capacity(FRAME_ROOM + 1024 + payload);
        record.resize(FRAME_ROOM, 0);
        render_cell(&mut record, cell);
        let coordinates = cell.spec.coordinates();
        let (start, bytes, checksum) = frame(&mut record, coordinates);
        let Some((pack, offset)) = self.append(&record[start..]) else {
            return;
        };
        if !self.header.shape.contains(coordinates) {
            return;
        }
        if let Some(index) = self
            .index
            .lock()
            .expect("cell cache index poisoned")
            .as_mut()
        {
            let offset = offset + (FRAME_ROOM - start) as u64;
            index.insert(
                coordinates,
                Record {
                    pack,
                    offset,
                    bytes,
                    checksum,
                },
            );
        }
    }

    /// Appends one framed record to this handle's pack, creating the pack
    /// on first use, and returns the pack and the offset the record starts
    /// at. A failed write may leave a torn record at the pack's tail, so the
    /// handle abandons that pack and the next insert starts another.
    fn append(&self, record: &[u8]) -> Option<(Arc<Path>, u64)> {
        let mut pack = self.pack.lock().expect("cell cache pack poisoned");
        if pack.is_none() {
            *pack = Pack::create(&self.dir, &self.header).ok();
        }
        let open = pack.as_mut()?;
        let offset = open.len;
        if open.file.write_all(record).is_ok() {
            open.len += record.len() as u64;
            return Some((Arc::clone(&open.path), offset));
        }
        *pack = None;
        None
    }

    /// Reads every pack's frame lines into an index (see the module docs).
    fn scan(&self) -> HashMap<Coordinates, Record> {
        let mut index = HashMap::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return index;
        };
        let mut packs: Vec<PathBuf> = entries
            .filter_map(|entry| Some(entry.ok()?.path()))
            .filter(|path| {
                path.extension()
                    .is_some_and(|extension| extension == "pack")
            })
            .collect();
        packs.sort();
        for pack in packs {
            self.scan_pack(&pack.into(), &mut index);
        }
        index
    }

    /// Adds one pack's records to `index`, up to the end of the pack or
    /// the first frame that cannot be read or whose body the pack does not
    /// hold whole. Skips a pack whose header is not this plan's.
    fn scan_pack(&self, pack: &Arc<Path>, index: &mut HashMap<Coordinates, Record>) -> Option<()> {
        let file = File::open(pack).ok()?;
        let len = file.metadata().ok()?.len();
        let mut lines = LineReader::new(BufReader::new(file));
        if lines.next_line().ok()?.text() != PACK_MAGIC {
            return None;
        }
        let header = parse_header(&mut lines).ok()?;
        if header.identity_mismatch(&self.header).is_some() {
            return None;
        }
        while let Some(line) = lines.read_line().ok()? {
            let (coordinates, bytes, checksum) = parse_frame(line).ok()?;
            let body = lines.get_mut();
            let offset = body.stream_position().ok()?;
            if offset.checked_add(bytes).is_none_or(|end| end > len) {
                return None;
            }
            body.seek_relative(i64::try_from(bytes).ok()?).ok()?;
            if self.header.shape.contains(coordinates) {
                index.insert(
                    coordinates,
                    Record {
                        pack: Arc::clone(pack),
                        offset,
                        bytes,
                        checksum,
                    },
                );
            }
        }
        Some(())
    }
}

impl Pack {
    /// Creates a new pack under `dir` and writes its header lines.
    fn create(dir: &Path, header: &ShardHeader) -> std::io::Result<Pack> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos();
        let path = dir.join(format!(
            "{created:020}-{:010}-{:010}.pack",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(&path)?;
        let mut text = format!("{PACK_MAGIC}\n");
        render_header(&mut text, header);
        if let Err(error) = file.write_all(text.as_bytes()) {
            let _ = std::fs::remove_file(&path);
            return Err(error);
        }
        Ok(Pack {
            file,
            path: path.into(),
            len: text.len() as u64,
        })
    }
}

/// Writes the frame line of the cell block that follows the first
/// [`FRAME_ROOM`] bytes of `record` into the end of that room, and returns
/// where the frame line starts, the block's length and its checksum.
fn frame(
    record: &mut [u8],
    (config, world, scenario, replicate): Coordinates,
) -> (usize, u64, u64) {
    let block = &record[FRAME_ROOM..];
    let (bytes, checksum) = (block.len() as u64, word_fold(block));
    let line = format!("record {config} {world} {scenario} {replicate} {bytes} {checksum:#018x}\n");
    let start = FRAME_ROOM - line.len();
    record[start..FRAME_ROOM].copy_from_slice(line.as_bytes());
    (start, bytes, checksum)
}

/// The coordinates, body length and checksum of a frame line.
fn parse_frame(line: Line<'_>) -> Result<(Coordinates, u64, u64), ParseError> {
    let [config, world, scenario, replicate, bytes, checksum] = line
        .value("record")?
        .tokens("record line needs 6 fields (coordinates, bytes, checksum)")?;
    let coordinates = (
        config.number()?,
        world.number()?,
        scenario.number()?,
        replicate.number()?,
    );
    Ok((coordinates, bytes.number()?, checksum.hex_number()?))
}

impl Record {
    /// The record's cell, if its bytes parse as exactly one cell block and
    /// hash to its checksum. Reads one line at a time.
    fn read(&self) -> Option<CellResult> {
        let mut file = File::open(&self.pack).ok()?;
        file.seek(SeekFrom::Start(self.offset)).ok()?;
        let body = BufReader::with_capacity(READ_BUFFER_BYTES, file).take(self.bytes);
        let mut lines = LineReader::new(Summed {
            inner: body,
            digest: WordFold::new(),
            count: 0,
        });
        let cell = parse_cell(&mut lines).ok()?;
        if lines.read_line().ok()?.is_some() {
            return None;
        }
        let summed = lines.get_mut();
        (summed.count == self.bytes && summed.digest.finish() == self.checksum).then_some(cell)
    }
}

/// A reader that folds every byte read through it into a word-fold
/// checksum, and counts them.
struct Summed<R> {
    inner: R,
    digest: WordFold,
    count: u64,
}

impl<R: BufRead> Read for Summed<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let read = self.inner.read(buf)?;
        self.digest.write(&buf[..read]);
        self.count += read as u64;
        Ok(read)
    }
}

impl<R: BufRead> BufRead for Summed<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amount: usize) {
        if amount > 0 {
            // The bytes being consumed are still buffered, so this reads
            // nothing.
            if let Ok(buffered) = self.inner.fill_buf() {
                let consumed = &buffered[..amount.min(buffered.len())];
                self.digest.write(consumed);
                self.count += consumed.len() as u64;
            }
        }
        self.inner.consume(amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellOutcome;
    use crate::exchange::ServedRequest;
    use crate::{cell_seed, CampaignReport};
    use nvariant::ExecutionMetrics;
    use nvariant_transform::TransformStats;
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellcache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shape() -> PlanShape {
        PlanShape {
            configs: 2,
            worlds: 1,
            scenarios: 1,
            replicates: 2,
        }
    }

    fn cell(config: usize, replicate: usize) -> CellResult {
        CellResult {
            spec: CellSpec {
                config_index: config,
                world_index: 0,
                scenario_index: 0,
                replicate,
                config_label: format!("config-{config}"),
                world_label: "template".to_string(),
                scenario_label: "ping".to_string(),
                seed: 0x5EED ^ ((config as u64) << 8) ^ replicate as u64,
            },
            outcome: CellOutcome {
                exit_status: Some(0),
                alarm: None,
                fault: None,
                metrics: ExecutionMetrics {
                    variants: 2,
                    total_instructions: 100,
                    syscalls: 4,
                    monitor_checks: 2,
                    detection_calls: 0,
                    io_bytes: 64,
                },
            },
            exchanges: vec![ServedRequest {
                request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
                response: b"HTTP/1.0 200 OK\r\n\r\nok".to_vec(),
            }],
            transform_stats: TransformStats::default(),
            verdict: None,
            checked: None,
            wall: Duration::from_millis(3),
        }
    }

    fn open(root: &Path) -> CellCache {
        CellCache::open(root, "t", 7, 0xABCD, shape())
    }

    /// The cell block [`ShardWriter::push`](crate::ShardWriter::push)
    /// writes for `cell`.
    fn block(cell: &CellResult) -> Vec<u8> {
        let mut out = Vec::new();
        render_cell(&mut out, cell);
        out
    }

    /// The framed record of `body` at `coordinates`.
    fn framed(coordinates: Coordinates, body: &[u8]) -> Vec<u8> {
        let mut record = vec![0; FRAME_ROOM];
        record.extend_from_slice(body);
        let (start, _, _) = frame(&mut record, coordinates);
        record.drain(..start);
        record
    }

    /// Writes a new pack under `cache`'s plan directory, the way a handle
    /// creates its own, holding `bytes` after the header.
    fn write_pack(cache: &CellCache, bytes: &[u8]) -> PathBuf {
        let mut pack = Pack::create(&cache.dir, &cache.header).unwrap();
        pack.file.write_all(bytes).unwrap();
        pack.path.to_path_buf()
    }

    /// The `.pack` files under `cache`'s plan directory, in name order.
    fn packs(cache: &CellCache) -> Vec<PathBuf> {
        let mut packs: Vec<PathBuf> = std::fs::read_dir(&cache.dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "pack"))
            .collect();
        packs.sort();
        packs
    }

    fn index_len(cache: &CellCache) -> usize {
        cache.index.lock().unwrap().as_ref().map_or(0, HashMap::len)
    }

    #[test]
    fn round_trips_cells_and_counts_hits_and_misses() {
        let root = scratch("roundtrip");
        let cache = CellCache::open(&root, "t", 7, 0xABCD, shape());
        let stored = cell(0, 1);
        assert!(cache.lookup(&stored.spec).is_none());
        cache.insert(&stored);
        let loaded = cache.lookup(&stored.spec).expect("entry readable");
        assert_eq!(loaded, stored);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_keep_the_one_cell_report_bytes() {
        // A pack is the one-cell report's header under the pack's own first
        // line, then one framed record per cell whose body is that cell's
        // block in the report, byte for byte.
        let root = scratch("entry-bytes");
        let cache = CellCache::open(&root, "t", 7, 0xABCD, shape());
        let stored = cell(1, 0);
        cache.insert(&stored);
        let written = std::fs::read_to_string(&packs(&cache)[0]).unwrap();
        let one_cell_report = CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            shape(),
            1,
            vec![stored],
            Duration::ZERO,
        )
        .to_shard_text();
        let (header, rest) = one_cell_report.split_at(one_cell_report.find("\ncell ").unwrap() + 1);
        let block = rest.strip_suffix("end\n").unwrap();
        let frame = format!(
            "record 1 0 0 0 {} {:#018x}\n",
            block.len(),
            word_fold(block.as_bytes())
        );
        assert_eq!(written, format!("{PACK_MAGIC}\n{header}{frame}{block}"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn foreign_plan_hashes_and_mismatched_specs_are_invalidations() {
        let root = scratch("foreign");
        let stored = cell(0, 0);
        // Written under one plan hash, looked up under another: the record
        // exists at the same coordinates but proves a different plan.
        let first = CellCache::open(&root, "t", 7, 0x1111, shape());
        first.insert(&stored);
        let other = CellCache::open(&root, "t", 7, 0x2222, shape());
        // Different hash ⇒ different directory ⇒ plain miss.
        assert!(other.lookup(&stored.spec).is_none());
        assert_eq!(other.stats().misses, 1);

        // A pack moved into another plan's directory is skipped by its
        // header: still a plain miss.
        let pack = &packs(&first)[0];
        std::fs::create_dir_all(&other.dir).unwrap();
        std::fs::copy(pack, other.dir.join(pack.file_name().unwrap())).unwrap();
        let other = CellCache::open(&root, "t", 7, 0x2222, shape());
        assert!(other.lookup(&stored.spec).is_none());
        assert_eq!((other.stats().misses, other.stats().invalidations), (1, 0));

        // Same hash, but the record's body describes a different cell (e.g.
        // a hand-edited frame): invalidation, not a bogus hit.
        let cache = CellCache::open(&root, "t", 7, 0x1111, shape());
        write_pack(&cache, &framed((1, 0, 0, 0), &block(&stored)));
        assert!(cache.lookup(&cell(1, 0).spec).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_truncated_entries_fall_back_to_recompute() {
        let root = scratch("corrupt");
        let cache = open(&root);
        let stored = cell(1, 1);
        cache.insert(&stored);
        let good = String::from_utf8(block(&stored)).unwrap();
        let mut invalidations = 0;
        for corruption in [
            String::new(),
            "garbage".to_string(),
            good[..good.len() / 2].to_string(),
            good.replace("exit 0", "exit zero"),
        ] {
            // A later record whose frame fits its damaged body: the checksum
            // holds, and the parser refuses it.
            write_pack(
                &cache,
                &framed(stored.spec.coordinates(), corruption.as_bytes()),
            );
            let cache = open(&root);
            assert!(cache.lookup(&stored.spec).is_none(), "{corruption:?}");
            // Recompute-and-append restores the cell.
            cache.insert(&stored);
            assert_eq!(cache.lookup(&stored.spec), Some(stored.clone()));
            invalidations += cache.stats().invalidations;
        }
        assert_eq!(invalidations, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_flipped_payload_digit_fails_the_checksum_until_a_later_record_heals_it() {
        let root = scratch("checksum");
        let cache = open(&root);
        let (damaged, intact) = (cell(0, 0), cell(1, 1));
        cache.insert(&damaged);
        cache.insert(&intact);
        let pack = &packs(&cache)[0];
        let mut bytes = std::fs::read(pack).unwrap();
        let digit = bytes
            .windows(9)
            .position(|window| window == b"exchange ")
            .unwrap()
            + 9;
        bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
        std::fs::write(pack, &bytes).unwrap();

        let cache = open(&root);
        assert!(cache.lookup(&damaged.spec).is_none());
        assert_eq!(cache.lookup(&intact.spec), Some(intact.clone()));
        assert_eq!((cache.stats().invalidations, cache.stats().hits), (1, 1));
        cache.insert(&damaged);

        let healed = open(&root);
        assert_eq!(healed.lookup(&damaged.spec), Some(damaged));
        assert_eq!(healed.lookup(&intact.spec), Some(intact));
        assert_eq!(healed.stats().hits, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn two_top_byte_digit_substitutions_fail_the_checksum() {
        // A 4,000-byte response with one hex digit changed at byte 7 of
        // words 31 and 33 of its record's cell block: the block still
        // parses. Word-wise FNV-1a keeps a difference in a word's top byte
        // in the hash's top byte, where these two cancel, so under that
        // checksum the altered payload is served as a hit.
        let root = scratch("top-bytes");
        let cache = open(&root);
        let mut stored = cell(0, 0);
        let response = &mut stored.exchanges[0].response;
        response.truncate(19);
        response.resize(4_000, b'x');
        cache.insert(&stored);
        let pack = &packs(&cache)[0];
        let mut bytes = std::fs::read(pack).unwrap();
        let body = bytes.len() - block(&stored).len();
        for (word, digit) in [(31, b'9'), (33, b'e')] {
            let at = body + 8 * word + 7;
            assert_eq!(bytes[at], b'7');
            bytes[at] = digit;
        }
        std::fs::write(pack, &bytes).unwrap();

        let cache = open(&root);
        assert!(cache.lookup(&stored.spec).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                invalidations: 1,
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncating_a_pack_inside_its_last_record_loses_only_that_cell() {
        let root = scratch("torn-tail");
        let cache = open(&root);
        let cells = [cell(0, 0), cell(0, 1), cell(1, 0)];
        for stored in &cells {
            cache.insert(stored);
        }
        let pack = packs(&cache)[0].clone();
        let full = std::fs::metadata(&pack).unwrap().len();
        let last = block(&cells[2]).len() as u64;
        let frame_len = framed(cells[2].spec.coordinates(), &block(&cells[2])).len() as u64 - last;
        // Inside the last body, at the end of its frame line, and inside
        // its frame line.
        for cut in [full - last / 2, full - last, full - last - frame_len / 2] {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&pack)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let cache = open(&root);
            assert_eq!(cache.lookup(&cells[0].spec).as_ref(), Some(&cells[0]));
            assert_eq!(cache.lookup(&cells[1].spec).as_ref(), Some(&cells[1]));
            assert!(cache.lookup(&cells[2].spec).is_none());
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 2,
                    misses: 1,
                    invalidations: 0,
                },
                "cut at {cut} of {full}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_writers_and_readers_never_observe_a_torn_entry() {
        let root = scratch("concurrent");
        let stored = cell(0, 0);
        let spec = stored.spec.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let writer = CellCache::open(&root, "t", 7, 0xABCD, shape());
                    for _ in 0..50 {
                        writer.insert(&stored);
                    }
                });
            }
            scope.spawn(|| {
                let mut invalidations = 0;
                for _ in 0..200 {
                    // A fresh handle per lookup scans the packs as they grow.
                    let reader = CellCache::open(&root, "t", 7, 0xABCD, shape());
                    if let Some(loaded) = reader.lookup(&spec) {
                        assert_eq!(loaded, stored);
                    }
                    invalidations += reader.stats().invalidations;
                }
                // Every indexed record parsed and matched: a record still
                // being written sits at its pack's tail and is never indexed.
                assert_eq!(invalidations, 0);
            });
        });
        // Each writer handle wrote its own pack, holding all its records.
        let cache = open(&root);
        let packs = packs(&cache);
        assert_eq!(packs.len(), 4);
        for pack in &packs {
            let text = std::fs::read_to_string(pack).unwrap();
            assert_eq!(text.matches("\nrecord ").count(), 50, "{}", pack.display());
        }
        assert_eq!(cache.lookup(&spec), Some(stored.clone()));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_body_that_runs_past_the_end_of_the_pack_is_one_miss() {
        let root = scratch("past-end");
        let cache = open(&root);
        let (whole, torn) = (cell(0, 0), cell(1, 1));
        let mut bytes = framed(whole.spec.coordinates(), &block(&whole));
        let record = framed(torn.spec.coordinates(), &block(&torn));
        bytes.extend_from_slice(&record[..record.len() - 1]);
        write_pack(&cache, &bytes);
        assert_eq!(cache.lookup(&whole.spec), Some(whole));
        assert!(cache.lookup(&torn.spec).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn many_frames_for_one_cell_make_one_index_entry() {
        let root = scratch("many-frames");
        let cache = open(&root);
        let stored = cell(1, 0);
        let junk = framed(stored.spec.coordinates(), b"x\n");
        let mut bytes = junk.repeat(99_999);
        bytes.extend(framed(stored.spec.coordinates(), &block(&stored)));
        write_pack(&cache, &bytes);
        assert_eq!(cache.lookup(&stored.spec), Some(stored));
        assert_eq!(index_len(&cache), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn coordinates_outside_the_plan_shape_are_ignored() {
        let root = scratch("outside");
        let cache = open(&root);
        let inside = cell(0, 1);
        let mut bytes = Vec::new();
        for coordinates in [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)] {
            let mut outside = cell(0, 0);
            (
                outside.spec.config_index,
                outside.spec.world_index,
                outside.spec.scenario_index,
                outside.spec.replicate,
            ) = coordinates;
            bytes.extend(framed(coordinates, &block(&outside)));
        }
        bytes.extend(framed(inside.spec.coordinates(), &block(&inside)));
        write_pack(&cache, &bytes);
        assert_eq!(cache.lookup(&inside.spec), Some(inside));
        assert_eq!(index_len(&cache), 1);
        let mut outside = cell(0, 0);
        outside.spec.config_index = 2;
        assert!(cache.lookup(&outside.spec).is_none());
        assert_eq!((cache.stats().misses, cache.stats().invalidations), (1, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_oversized_record_is_one_invalidation_read_a_line_at_a_time() {
        let root = scratch("oversized");
        let cache = open(&root);
        let stored = cell(0, 0);
        // A frame claiming 512 MiB, over sparse zeros: reading the record
        // whole would need that much memory. A reader that sizes a buffer
        // from the frame aborts under a smaller address-space cap; one that
        // grows it as it reads fails there too, but without a cap it reads
        // it all, and the peak resident set below gives it away.
        let claimed: u64 = 512 << 20;
        let pack = write_pack(
            &cache,
            format!("record 0 0 0 0 {claimed} {:#018x}\n", 0).as_bytes(),
        );
        let file = std::fs::OpenOptions::new().write(true).open(&pack).unwrap();
        let len = file.metadata().unwrap().len();
        file.set_len(len + claimed).unwrap();
        assert!(cache.lookup(&stored.spec).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                invalidations: 1,
            }
        );
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            let peak_kib = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|value| {
                    value
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
                .expect("VmHWM line");
            assert!(peak_kib < 256 << 10, "peak resident set {peak_kib} KiB");
        }
        cache.insert(&stored);
        assert_eq!(open(&root).lookup(&stored.spec), Some(stored));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `len` bytes drawn from `seed` through the campaign's seed
    /// derivation. Half of them come from the codec's own alphabet — line
    /// ends, spaces, quotes, digits, the frame key — so a draw sometimes
    /// gets past a line's first token; the rest are any byte at all.
    fn arbitrary_bytes(seed: u64, len: usize) -> Vec<u8> {
        const ALPHABET: &[&[u8]] = &[
            b"\n",
            b"\r",
            b" ",
            b"\"",
            b"-",
            b"0",
            b"1",
            b"9",
            b"0x",
            b"record ",
            b"cell ",
            b"endcell\n",
        ];
        let mut out = Vec::with_capacity(len);
        for index in 0..len {
            match cell_seed(seed, index, 0, 0, 0) {
                draw if draw & 1 == 0 => {
                    out.extend_from_slice(ALPHABET[(draw >> 8) as usize % ALPHABET.len()]);
                }
                draw => out.push((draw >> 8) as u8),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes as a pack of their own, and after the first
        /// `kept` valid records of another. With `framing` 1 the arbitrary
        /// bytes are first framed, with their true length and checksum, as
        /// a record of the next cell, so the cell parser meets them; with
        /// `framing` 2 that record is the next cell's valid block followed
        /// by them. The reader never panics, the valid records still hit,
        /// a framed record is one invalidation, and every other cell is a
        /// miss.
        #[test]
        fn arbitrary_pack_bytes_only_ever_miss_or_invalidate(
            kept in 0usize..4,
            framing in 0usize..3,
            seed in any::<u64>(),
            len in 1usize..600,
        ) {
            let root = scratch("arbitrary");
            let cache = open(&root);
            let cells = [cell(0, 0), cell(0, 1), cell(1, 0), cell(1, 1)];
            let mut bytes = Vec::new();
            for stored in &cells[..kept] {
                bytes.extend(framed(stored.spec.coordinates(), &block(stored)));
            }
            let garbage = arbitrary_bytes(seed, len);
            let framed_cell = cells.get(kept).filter(|_| framing > 0);
            if let Some(next) = framed_cell {
                let mut body = if framing == 2 { block(next) } else { Vec::new() };
                body.extend_from_slice(&garbage);
                bytes.extend(framed(next.spec.coordinates(), &body));
            }
            bytes.extend_from_slice(&garbage);
            write_pack(&cache, &bytes);
            std::fs::write(
                cache.dir.join("~arbitrary.pack"),
                arbitrary_bytes(seed.rotate_left(17), len),
            )
            .unwrap();

            let reader = open(&root);
            for (index, stored) in cells.iter().enumerate() {
                let loaded = reader.lookup(&stored.spec);
                if index < kept {
                    prop_assert_eq!(loaded.as_ref(), Some(stored));
                } else {
                    prop_assert!(loaded.is_none());
                }
            }
            let invalidations = u64::from(framed_cell.is_some());
            prop_assert_eq!(
                reader.stats(),
                CacheStats {
                    hits: kept as u64,
                    misses: (cells.len() - kept) as u64 - invalidations,
                    invalidations,
                }
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
