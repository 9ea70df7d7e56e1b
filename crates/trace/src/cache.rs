//! The on-disk replay cache: content-addressed trace snapshots.
//!
//! Sweeps regenerate the same synthetic traces over and over — after
//! PR 1 made one replay serve N tools, *generation* (CFG synthesis plus
//! interpretation) dominates repeated sweep cost. A [`TraceCache`]
//! removes it: the first replay of a `(workload, scale, generator
//! seed/params)` combination is recorded to a snapshot file
//! ([`snapshot`](crate::snapshot) format) while the tools observe it;
//! every later replay streams the snapshot from disk and never touches
//! the generator. The cache is *transparent*: tools cannot tell a
//! decoded replay from a live one — the streams are bit-identical.
//!
//! Cache keys are content-addressed by a stable fingerprint of the
//! generator inputs, **not** by hashing the generated trace (which
//! would defeat the point of skipping generation). See [`TraceKey`].
//!
//! # Examples
//!
//! ```
//! use rebalance_trace::{
//!     CondBehavior, IterCount, NullTool, Phase, ProgramBuilder, Schedule, Section,
//!     SyntheticTrace, Terminator, TraceCache, TraceKey,
//! };
//!
//! fn tiny_trace() -> Result<SyntheticTrace, String> {
//!     let mut b = ProgramBuilder::new();
//!     let region = b.region("hot");
//!     let body = b.reserve_block();
//!     let exit = b.reserve_block();
//!     b.define_block(body, region, 3, Terminator::Cond {
//!         taken: body,
//!         fall: exit,
//!         behavior: CondBehavior::Loop { count: IterCount::Fixed(4) },
//!     });
//!     b.define_block(exit, region, 1, Terminator::Exit);
//!     Ok(SyntheticTrace::new(
//!         b.build().unwrap(),
//!         Schedule::new(vec![Phase::new(Section::Parallel, body, 200)]),
//!         1,
//!     ))
//! }
//!
//! let cache = TraceCache::scratch().unwrap();
//! let key = TraceKey::new("doc", "smoke", 1, 0);
//! let first = cache.replay_with(&key, tiny_trace, &mut NullTool).unwrap();
//! let second = cache.replay_with(&key, tiny_trace, &mut NullTool).unwrap();
//! assert_eq!(first.summary, second.summary);
//! let stats = cache.stats();
//! assert_eq!((stats.generations, stats.hits), (1, 1), "generated exactly once");
//! # std::fs::remove_dir_all(cache.dir()).unwrap();
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

use rebalance_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::by_section::BySection;
use crate::exec::RunSummary;
use crate::observer::{NullTool, Pintool};
use crate::schedule::SyntheticTrace;
use crate::snapshot::{OwnedSnapshot, SnapshotError, SnapshotInfo, SnapshotWriter};

/// File extension of cached snapshots.
pub const SNAPSHOT_EXT: &str = "rbts";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Identity of one generatable trace: the inputs that fully determine
/// its event stream.
///
/// Two keys address the same cache entry iff all four components are
/// equal: workload name, scale label, generator seed, and a fingerprint
/// of the remaining generator parameters (for roster workloads, the
/// profile — so editing a profile in the roster automatically misses
/// stale snapshots instead of serving them).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceKey {
    workload: String,
    scale: String,
    seed: u64,
    params: u64,
}

impl TraceKey {
    /// Builds a key from its components.
    pub fn new(
        workload: impl Into<String>,
        scale: impl Into<String>,
        seed: u64,
        params: u64,
    ) -> Self {
        TraceKey {
            workload: workload.into(),
            scale: scale.into(),
            seed,
            params,
        }
    }

    /// Workload name component.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Scale label component.
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// Generator seed component.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generator-parameter fingerprint component.
    pub fn params(&self) -> u64 {
        self.params
    }

    /// Stable 64-bit content address over all components.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.workload.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, self.scale.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &self.seed.to_le_bytes());
        fnv1a(h, &self.params.to_le_bytes())
    }

    /// The snapshot file name this key addresses:
    /// `<workload>-<scale>-<fingerprint>.rbts` with non-portable
    /// characters replaced (the fingerprint alone carries identity; the
    /// readable prefix is for humans listing the cache directory).
    pub fn file_name(&self) -> String {
        fn sanitize(s: &str) -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        format!(
            "{}-{}-{:016x}.{SNAPSHOT_EXT}",
            sanitize(&self.workload),
            sanitize(&self.scale),
            self.fingerprint()
        )
    }
}

impl fmt::Display for TraceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} (seed {}, params {:#x})",
            self.workload, self.scale, self.seed, self.params
        )
    }
}

/// A point-in-time copy of a cache's counters.
///
/// Counters are cumulative over the cache's lifetime; use
/// [`CacheStats::since`] for per-phase deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Replays served by decoding an existing snapshot.
    pub hits: u64,
    /// Replays that found no usable snapshot.
    pub misses: u64,
    /// Times the generator closure actually ran (== misses unless a
    /// generation failed).
    pub generations: u64,
    /// Snapshots rejected at parse time (corrupt/truncated/stale
    /// version) and regenerated.
    pub rejected: u64,
    /// Misses whose snapshot could not be persisted (unwritable cache
    /// directory); the replay still ran live, just unrecorded.
    pub write_failures: u64,
    /// Hits served after waiting out another in-flight generator of the
    /// same key in this process (single-flight coalescing; also counted
    /// in `hits`).
    pub coalesced: u64,
    /// Orphaned temporary files from dead runs removed when the cache
    /// was opened.
    pub tmp_swept: u64,
    /// Total snapshot bytes decoded on hits.
    pub bytes_read: u64,
    /// Total snapshot bytes recorded on misses.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Counter deltas relative to an earlier snapshot of the same
    /// cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            generations: self.generations - earlier.generations,
            rejected: self.rejected - earlier.rejected,
            write_failures: self.write_failures - earlier.write_failures,
            coalesced: self.coalesced - earlier.coalesced,
            tmp_swept: self.tmp_swept - earlier.tmp_swept,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    /// Hits as a fraction of all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} generated, {:.1}% hit rate, {:.1} MB read, {:.1} MB written)",
            self.hits,
            self.misses,
            self.generations,
            self.hit_rate() * 100.0,
            self.bytes_read as f64 / 1e6,
            self.bytes_written as f64 / 1e6,
        )?;
        write!(
            f,
            " | degraded: {} rejected, {} write failures",
            self.rejected, self.write_failures
        )?;
        if self.coalesced > 0 || self.tmp_swept > 0 {
            write!(
                f,
                " | shared: {} coalesced, {} orphans swept",
                self.coalesced, self.tmp_swept
            )?;
        }
        Ok(())
    }
}

/// Why a cached replay failed.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem trouble around the cache directory.
    Io(io::Error),
    /// Snapshot trouble that regeneration cannot paper over (e.g. a
    /// checksum-valid snapshot whose records do not decode).
    Snapshot(SnapshotError),
    /// The generator closure itself failed.
    Generate(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "trace cache I/O error: {e}"),
            CacheError::Snapshot(e) => write!(f, "trace cache snapshot error: {e}"),
            CacheError::Generate(e) => write!(f, "trace generation failed: {e}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Snapshot(e) => Some(e),
            CacheError::Generate(_) => None,
        }
    }
}

impl From<io::Error> for CacheError {
    fn from(e: io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<SnapshotError> for CacheError {
    fn from(e: SnapshotError) -> Self {
        CacheError::Snapshot(e)
    }
}

/// The record of one replay: what a cache-mediated replay returns, and
/// what a live replay without a cache is described by too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedReplay {
    /// Aggregate counters of the delivered stream.
    pub summary: RunSummary,
    /// Instructions per section (what CMP scheduling needs in place of
    /// the schedule it no longer has on hits).
    pub sections: BySection<u64>,
    /// Static code bytes of the replayed program (the footprint
    /// characterization needs in place of the program it no longer has
    /// on hits).
    pub static_bytes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    generations: AtomicU64,
    rejected: AtomicU64,
    write_failures: AtomicU64,
    coalesced: AtomicU64,
    tmp_swept: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A directory of content-addressed trace snapshots with hit/miss
/// accounting.
///
/// Every lookup goes through one load-or-generate step: a valid stored
/// snapshot is a hit; otherwise the trace is generated once, encoded in
/// memory while the caller's tool (if any) observes the same replay, and
/// committed. Safe under concurrent writers:
///
/// * every snapshot is written to a private temporary file and
///   atomically renamed into place, so readers never observe partial
///   snapshots — two processes racing on one cold key may both generate
///   it, and the last rename wins with byte-identical bytes;
/// * within a process, generation is *single-flight* per key —
///   concurrent misses on one key elect exactly one generator while the
///   others wait and then read the committed snapshot
///   ([`CacheStats::coalesced`]);
/// * opening the cache sweeps temporary files orphaned by dead runs
///   ([`CacheStats::tmp_swept`]), leaving live runs' files alone.
///
/// # Examples
///
/// ```
/// use rebalance_trace::{TraceCache, TraceKey};
///
/// let cache = TraceCache::scratch().unwrap();
/// let key = TraceKey::new("CG", "smoke", 1, 2);
/// assert!(!cache.contains(&key));
/// assert!(cache.path_for(&key).starts_with(cache.dir()));
/// assert_eq!(cache.stats().hits, 0);
/// # std::fs::remove_dir_all(cache.dir()).unwrap();
/// ```
#[derive(Debug)]
pub struct TraceCache {
    dir: PathBuf,
    counters: Counters,
    /// Per-key single-flight guards for generators in this process,
    /// keyed by [`TraceKey::fingerprint`]. Bounded by the number of
    /// distinct keys ever missed, which a sweep already enumerates.
    inflight: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// Encode buffers of finished generations whose bytes were not
    /// handed out, reused so later misses encode into memory that is
    /// already mapped (at most one per concurrent generator).
    spare: Mutex<Vec<Vec<u8>>>,
}

impl TraceCache {
    /// Opens (creating if needed) a cache rooted at `dir`, sweeping
    /// temporary files left behind by dead runs (see
    /// [`CacheStats::tmp_swept`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = TraceCache {
            dir,
            counters: Counters::default(),
            inflight: Mutex::new(HashMap::new()),
            spare: Mutex::default(),
        };
        cache.sweep_orphans();
        Ok(cache)
    }

    /// A cache in a fresh unique directory under the system temp dir —
    /// for tests and benches. The caller owns cleanup
    /// (`std::fs::remove_dir_all(cache.dir())`).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn scratch() -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rebalance-trace-cache-{}-{n}", std::process::id()));
        TraceCache::new(dir)
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the given key's snapshot lives at (whether or not it
    /// exists yet).
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// `true` if a snapshot file exists for the key (without
    /// validating it).
    pub fn contains(&self, key: &TraceKey) -> bool {
        self.path_for(key).is_file()
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            generations: self.counters.generations.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            write_failures: self.counters.write_failures.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            tmp_swept: self.counters.tmp_swept.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Unconditionally records `trace` under `key`, replacing any
    /// existing snapshot. Used by `rebalance trace record`; sweeps
    /// should prefer [`TraceCache::replay_with`].
    ///
    /// # Errors
    ///
    /// I/O or encoding failures.
    pub fn record(
        &self,
        key: &TraceKey,
        trace: &SyntheticTrace,
    ) -> Result<SnapshotInfo, CacheError> {
        let (bytes, info, _) = self.encode(key, trace, None::<&mut NullTool>)?;
        let persisted = self.persist(key, &bytes);
        self.recycle(bytes);
        persisted?;
        Ok(info)
    }

    /// Replays the trace identified by `key` into `tool`: from its
    /// snapshot when one is present and valid, otherwise by running
    /// `generate` once and recording the resulting live replay for next
    /// time.
    ///
    /// The cache is an optimization, never a point of failure:
    ///
    /// * a snapshot that fails framing or checksum validation (corrupt,
    ///   truncated, older format version) is counted in
    ///   [`CacheStats::rejected`] and regenerated in place;
    /// * a filesystem failure while recording (unwritable or vanished
    ///   cache directory) is counted in [`CacheStats::write_failures`]
    ///   and the replay proceeds live, just unrecorded.
    ///
    /// The event stream `tool` observes is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Generation failures ([`CacheError::Generate`]) — exactly the
    /// failures a cache-less replay would also hit — and
    /// [`CacheError::Snapshot`] for a checksum-valid snapshot whose
    /// record stream is malformed. The latter indicates a snapshot-
    /// writer bug, and by the time decode detects it `tool` has already
    /// observed a partial stream, so it is surfaced rather than papered
    /// over with a regeneration into a tainted tool.
    pub fn replay_with<T, F>(
        &self,
        key: &TraceKey,
        generate: F,
        tool: &mut T,
    ) -> Result<CachedReplay, CacheError>
    where
        T: Pintool + ?Sized,
        F: FnOnce() -> Result<SyntheticTrace, String>,
    {
        match self.load_or_generate(key, generate, Some(&mut *tool))? {
            Entry::Stored(owned) => Ok(CachedReplay {
                summary: owned.snapshot().replay(tool)?,
                sections: owned.info().sections,
                static_bytes: owned.info().static_bytes,
            }),
            Entry::Generated { bytes, replay } => {
                self.recycle(bytes);
                Ok(replay)
            }
        }
    }

    /// Returns the raw snapshot bytes for `key`, generating and
    /// recording them on a miss: [`TraceCache::snapshot`] without the
    /// parsed frame.
    ///
    /// # Errors
    ///
    /// As for [`TraceCache::snapshot`].
    pub fn snapshot_bytes<F>(&self, key: &TraceKey, generate: F) -> Result<Vec<u8>, CacheError>
    where
        F: FnOnce() -> Result<SyntheticTrace, String>,
    {
        self.snapshot(key, generate).map(OwnedSnapshot::into_bytes)
    }

    /// Returns the validated snapshot for `key`, generating and
    /// recording it on a miss. This is how phase sampling shares one
    /// snapshot pass: the bytes are read and checksummed once, then
    /// viewed ([`OwnedSnapshot::snapshot`]) for fingerprinting and for
    /// the weighted representative replay, with generation, disk I/O
    /// and the checksum paid at most once.
    ///
    /// Counter accounting matches [`TraceCache::replay_with`]: a valid
    /// existing snapshot is a hit, a corrupt one is rejected and
    /// regenerated, a miss generates and (best-effort) persists, an
    /// unwritable directory counts a write failure but still returns
    /// the in-memory snapshot.
    ///
    /// # Errors
    ///
    /// Generation failures.
    pub fn snapshot<F>(&self, key: &TraceKey, generate: F) -> Result<OwnedSnapshot, CacheError>
    where
        F: FnOnce() -> Result<SyntheticTrace, String>,
    {
        match self.load_or_generate(key, generate, None::<&mut NullTool>)? {
            Entry::Stored(owned) => Ok(owned),
            Entry::Generated { bytes, .. } => Ok(OwnedSnapshot::parse(bytes)?),
        }
    }

    /// The one way into the cache. Serves `key`'s stored snapshot when it
    /// validates (a hit; an invalid one is counted as rejected). Otherwise
    /// it takes the key's single-flight guard and looks again, since
    /// another thread may have committed it meanwhile (a coalesced hit).
    /// Failing that, it runs `generate`, encodes the trace in memory while
    /// `tool`, if any, observes the same replay, and persists the
    /// snapshot.
    fn load_or_generate<T, F>(
        &self,
        key: &TraceKey,
        generate: F,
        tool: Option<&mut T>,
    ) -> Result<Entry, CacheError>
    where
        T: Pintool + ?Sized,
        F: FnOnce() -> Result<SyntheticTrace, String>,
    {
        let path = self.path_for(key);
        match self.load(&path) {
            Some(Ok(owned)) => return Ok(Entry::Stored(owned)),
            Some(Err(_)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }

        let guard = self.key_guard(key.fingerprint());
        let _guard = guard.lock().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have committed the snapshot meanwhile.
        if let Some(Ok(owned)) = self.load(&path) {
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok(Entry::Stored(owned));
        }

        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let _generate_span = telemetry::span("generate");
        let trace = generate().map_err(CacheError::Generate)?;
        self.counters.generations.fetch_add(1, Ordering::Relaxed);
        let (bytes, _, summary) = self.encode(key, &trace, tool)?;
        if self.persist(key, &bytes).is_err() {
            // Any tool already observed the full live stream; only the
            // persistence failed.
            self.counters.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        let replay = CachedReplay {
            summary,
            sections: trace.schedule().sections(),
            static_bytes: trace.program().static_bytes(),
        };
        Ok(Entry::Generated { bytes, replay })
    }

    /// Reads and validates the snapshot at `path`, counting a hit when it
    /// is valid; `None` when there is no readable file.
    fn load(&self, path: &Path) -> Option<Result<OwnedSnapshot, SnapshotError>> {
        let parsed = OwnedSnapshot::parse(fs::read(path).ok()?);
        if let Ok(owned) = &parsed {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            self.counters
                .bytes_read
                .fetch_add(owned.info().total_bytes, Ordering::Relaxed);
        }
        Some(parsed)
    }

    /// Commits `bytes` as `key`'s snapshot: written to a private
    /// `<name>.tmp-<pid>-<n>` file, then renamed into place, so readers
    /// only ever see complete snapshots.
    fn persist(&self, key: &TraceKey, bytes: &[u8]) -> io::Result<()> {
        static TMP_ID: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.tmp-{}-{}",
            key.file_name(),
            std::process::id(),
            TMP_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let committed = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, self.path_for(key)));
        match committed {
            Ok(()) => {
                self.counters
                    .bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
        committed
    }

    /// Interprets `trace` once into an in-memory snapshot keyed by `key`,
    /// teed into `tool` when there is one; returns the snapshot bytes,
    /// their metadata and the interpreter's summary.
    fn encode<T: Pintool + ?Sized>(
        &self,
        key: &TraceKey,
        trace: &SyntheticTrace,
        tool: Option<&mut T>,
    ) -> Result<(Vec<u8>, SnapshotInfo, RunSummary), SnapshotError> {
        let mut buf = self.spares().pop().unwrap_or_default();
        buf.clear();
        let mut writer = SnapshotWriter::new(buf, key.seed(), key.fingerprint())
            .with_static_bytes(trace.program().static_bytes());
        let summary = match tool {
            Some(tool) => trace.replay(&mut (&mut writer, tool)),
            None => trace.replay(&mut writer),
        };
        let (bytes, info) = writer.finish()?;
        Ok((bytes, info, summary))
    }

    /// Keeps `bytes`' buffer for a later [`TraceCache::encode`].
    fn recycle(&self, bytes: Vec<u8>) {
        self.spares().push(bytes);
    }

    /// The spare encode buffers, even if a panicking thread poisoned
    /// their lock (any buffer is as good as another).
    fn spares(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The in-process single-flight guard for one key fingerprint.
    fn key_guard(&self, fingerprint: u64) -> Arc<Mutex<()>> {
        let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(fingerprint).or_default().clone()
    }

    /// Removes temporary files (`*.tmp-<pid>-<n>`) whose owning process
    /// is gone. Files belonging to this process or to a live process are
    /// kept; when liveness cannot be determined the file is kept unless
    /// it is over an hour old.
    fn sweep_orphans(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((_, rest)) = name.to_str().and_then(|n| n.split_once(".tmp-")) else {
                continue;
            };
            let stale = match rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) {
                Some(pid) if pid == std::process::id() => false,
                Some(pid) => match pid_alive(pid) {
                    Some(alive) => !alive,
                    None => file_is_old(&entry.path()),
                },
                None => file_is_old(&entry.path()),
            };
            if stale && fs::remove_file(entry.path()).is_ok() {
                self.counters.tmp_swept.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// What [`TraceCache`]'s load-or-generate step found for a key.
enum Entry {
    /// A validated snapshot read from the cache directory.
    Stored(OwnedSnapshot),
    /// A freshly generated snapshot, already delivered to the caller's
    /// tool if there was one.
    Generated {
        bytes: Vec<u8>,
        replay: CachedReplay,
    },
}

/// Whether the process `pid` is currently running, when the platform
/// can tell (`/proc` on Linux); `None` when it cannot.
fn pid_alive(pid: u32) -> Option<bool> {
    if cfg!(target_os = "linux") {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

/// Age-based staleness fallback when pid liveness is unknowable: only
/// files untouched for over an hour are considered abandoned.
fn file_is_old(path: &Path) -> bool {
    const STALE_AFTER: Duration = Duration::from_secs(3600);
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
        .is_some_and(|age| age > STALE_AFTER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::observer::{FnTool, NullTool};
    use crate::program::{CondBehavior, IterCount, Terminator};
    use crate::schedule::{Phase, Schedule};
    use crate::section::Section;
    use crate::snapshot::{read_info, Snapshot, SNAPSHOT_VERSION};
    use crate::TraceEvent;

    fn make_trace(seed: u64) -> SyntheticTrace {
        let mut b = ProgramBuilder::new();
        let region = b.region("hot");
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.define_block(
            body,
            region,
            5,
            Terminator::Cond {
                taken: body,
                fall: exit,
                behavior: CondBehavior::Loop {
                    count: IterCount::Uniform { lo: 3, hi: 9 },
                },
            },
        );
        b.define_block(exit, region, 1, Terminator::Exit);
        let schedule = Schedule::new(vec![
            Phase::new(Section::Serial, body, 400),
            Phase::new(Section::Parallel, body, 1_600),
        ]);
        SyntheticTrace::new(b.build().unwrap(), schedule, seed)
    }

    fn cleanup(cache: TraceCache) {
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_fingerprint_is_component_sensitive() {
        let base = TraceKey::new("CG", "smoke", 1, 2);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        for other in [
            TraceKey::new("FT", "smoke", 1, 2),
            TraceKey::new("CG", "quick", 1, 2),
            TraceKey::new("CG", "smoke", 9, 2),
            TraceKey::new("CG", "smoke", 1, 9),
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{other}");
            assert_ne!(base.file_name(), other.file_name());
        }
        assert_eq!(base.workload(), "CG");
        assert_eq!(base.scale(), "smoke");
        assert_eq!(base.seed(), 1);
        assert_eq!(base.params(), 2);
        assert!(base.to_string().contains("CG@smoke"));
    }

    #[test]
    fn file_names_are_portable() {
        let key = TraceKey::new("357.bt331/x", "custom(0.5)", 0, 0);
        let name = key.file_name();
        assert!(name.ends_with(".rbts"));
        assert!(!name.contains('('));
        assert!(!name.contains('/'));
    }

    #[test]
    fn miss_then_hit_delivers_identical_streams() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 3, 0);
        let collect = |cache: &TraceCache| {
            let mut pcs = Vec::new();
            let mut tool = FnTool::new(|ev: &TraceEvent| pcs.push((ev.pc, ev.len, ev.class)));
            let rep = cache
                .replay_with(&key, || Ok(make_trace(3)), &mut tool)
                .unwrap();
            (pcs, rep)
        };
        let (first_pcs, first) = collect(&cache);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.generations), (0, 1, 1));
        assert!(cache.contains(&key));
        let (second_pcs, second) = collect(&cache);
        assert_eq!(first_pcs, second_pcs, "hit replays the recorded stream");
        assert_eq!(first.summary, second.summary);
        assert_eq!(first.sections, second.sections);
        assert_eq!(first.sections, BySection::new(400, 1_600));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.generations), (1, 1, 1));
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        cleanup(cache);
    }

    #[test]
    fn corrupt_snapshot_is_rejected_and_regenerated() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 5, 0);
        cache.record(&key, &make_trace(5)).unwrap();
        let path = cache.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        cache
            .replay_with(&key, || Ok(make_trace(5)), &mut NullTool)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "corrupt snapshot must not be served");
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.generations, 1);
        // The rewritten snapshot is good again.
        cache
            .replay_with(&key, || Err("must not regenerate".into()), &mut NullTool)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        cleanup(cache);
    }

    #[test]
    fn version_1_snapshot_is_rejected_and_regenerated_once() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 7, 0);
        let collect = |cache: &TraceCache| {
            let mut pcs = Vec::new();
            let mut tool = FnTool::new(|ev: &TraceEvent| pcs.push((ev.pc, ev.len, ev.class)));
            let rep = cache
                .replay_with(&key, || Ok(make_trace(7)), &mut tool)
                .unwrap();
            (pcs, rep)
        };
        let (live_pcs, live) = collect(&cache);
        assert_eq!(cache.stats().generations, 1);

        // Stamp the recorded file as the older format; the version is
        // checked before the checksum, so the stamp alone must do.
        let path = cache.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::UnsupportedVersion(1))
        ));

        let before = cache.stats();
        let (pcs, rep) = collect(&cache);
        assert_eq!(pcs, live_pcs, "the regenerated stream is the live one");
        assert_eq!((rep.summary, rep.sections), (live.summary, live.sections));
        let delta = cache.stats().since(&before);
        assert_eq!(delta.hits, 0, "a version-1 file must not be served");
        assert_eq!((delta.rejected, delta.generations), (1, 1));
        assert_eq!(
            read_info(&path).unwrap().version,
            SNAPSHOT_VERSION,
            "regenerated in place at the current version"
        );

        let before = cache.stats();
        let (pcs, _) = collect(&cache);
        assert_eq!(pcs, live_pcs);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.rejected, delta.generations), (1, 0, 0));
        cleanup(cache);
    }

    /// A well-formed version-2 file (the footer without the static code
    /// size, checksum valid) is regenerated, never read with its
    /// checksum taken for the static size.
    #[test]
    fn version_2_snapshot_is_regenerated_not_misread() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 7, 0);
        let static_bytes = make_trace(7).program().static_bytes();
        let replay = |cache: &TraceCache| {
            cache
                .replay_with(&key, || Ok(make_trace(7)), &mut NullTool)
                .unwrap()
        };
        let live = replay(&cache);
        assert_eq!(live.static_bytes, static_bytes);
        assert_eq!(replay(&cache), live, "a hit reads the size from the footer");

        // Rewrite the file as version 2: drop the static size from the
        // footer and re-seal the checksum.
        let path = cache.path_for(&key);
        let v3 = fs::read(&path).unwrap();
        let mut v2 = v3[..v3.len() - 16].to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let sealed = crate::snapshot::checksum(&v2);
        v2.extend_from_slice(&sealed.to_le_bytes());
        fs::write(&path, &v2).unwrap();
        assert!(matches!(
            Snapshot::parse(&v2),
            Err(SnapshotError::UnsupportedVersion(2))
        ));

        let before = cache.stats();
        assert_eq!(replay(&cache), live);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.rejected, delta.generations), (0, 1, 1));
        assert_eq!(fs::read(&path).unwrap(), v3, "regenerated in place");
        assert_eq!(read_info(&path).unwrap().static_bytes, static_bytes);
        cleanup(cache);
    }

    #[test]
    fn unwritable_cache_degrades_to_live_replay() {
        let cache = TraceCache::scratch().unwrap();
        // Remove the directory out from under the cache: snapshot
        // persistence must fail, the replay must still happen.
        fs::remove_dir_all(cache.dir()).unwrap();
        let key = TraceKey::new("w", "s", 11, 0);
        let mut n = 0u64;
        let mut tool = FnTool::new(|_: &TraceEvent| n += 1);
        let rep = cache
            .replay_with(&key, || Ok(make_trace(11)), &mut tool)
            .unwrap();
        assert_eq!(rep.summary.instructions, 2_000);
        assert_eq!(rep.sections, BySection::new(400, 1_600));
        assert_eq!(n, 2_000, "the tool observed the full live stream");
        let stats = cache.stats();
        assert_eq!(stats.write_failures, 1);
        assert_eq!(stats.generations, 1);
        assert_eq!(stats.bytes_written, 0);
        assert!(
            stats.to_string().contains("1 write failures"),
            "write failures must survive into the printed report: {stats}"
        );
    }

    #[test]
    fn snapshot_bytes_misses_then_hits_and_decodes() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 13, 0);
        let first = cache.snapshot_bytes(&key, || Ok(make_trace(13))).unwrap();
        assert!(cache.contains(&key));
        let second = cache
            .snapshot_bytes(&key, || Err("must not regenerate".into()))
            .unwrap();
        assert_eq!(first, second, "hit serves the recorded bytes");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.generations), (1, 1, 1));
        assert!(stats.bytes_written > 0 && stats.bytes_read > 0);

        let snapshot = Snapshot::parse(&second).unwrap();
        let summary = snapshot.replay(&mut NullTool).unwrap();
        assert_eq!(summary.instructions, 2_000);

        // And replay_with serves the same snapshot (shared cache entry).
        let rep = cache
            .replay_with(&key, || Err("cached".into()), &mut NullTool)
            .unwrap();
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(rep.summary, summary);
        cleanup(cache);
    }

    #[test]
    fn snapshot_bytes_survives_unwritable_cache() {
        let cache = TraceCache::scratch().unwrap();
        fs::remove_dir_all(cache.dir()).unwrap();
        let key = TraceKey::new("w", "s", 17, 0);
        let bytes = cache.snapshot_bytes(&key, || Ok(make_trace(17))).unwrap();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let summary = snapshot.replay(&mut NullTool).unwrap();
        assert_eq!(summary.instructions, 2_000);
        let stats = cache.stats();
        assert_eq!(stats.write_failures, 1);
        assert_eq!(stats.bytes_written, 0);
    }

    #[test]
    fn generation_failure_propagates() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 7, 0);
        let err = cache
            .replay_with(&key, || Err("boom".to_owned()), &mut NullTool)
            .unwrap_err();
        assert!(
            matches!(err, CacheError::Generate(ref m) if m == "boom"),
            "{err}"
        );
        assert!(!cache.contains(&key));
        assert_eq!(cache.stats().generations, 0);
        assert_eq!(cache.stats().misses, 1);
        cleanup(cache);
    }

    #[test]
    fn record_overwrites_and_stats_delta() {
        let cache = TraceCache::scratch().unwrap();
        let key = TraceKey::new("w", "s", 9, 0);
        let info1 = cache.record(&key, &make_trace(9)).unwrap();
        let before = cache.stats();
        let info2 = cache.record(&key, &make_trace(9)).unwrap();
        assert_eq!(info1.summary, info2.summary);
        let delta = cache.stats().since(&before);
        assert_eq!(delta.bytes_written, info2.total_bytes);
        assert_eq!(delta.hits, 0);
        let text = delta.to_string();
        assert!(
            text.contains("0 rejected") && text.contains("0 write failures"),
            "degraded-mode accounting must be visible: {text}"
        );
        cleanup(cache);
    }

    #[test]
    fn concurrent_misses_generate_exactly_once() {
        let cache = std::sync::Arc::new(TraceCache::scratch().unwrap());
        let key = TraceKey::new("w", "s", 21, 0);
        let generated = std::sync::Arc::new(AtomicU64::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let key = key.clone();
            let generated = generated.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache
                    .replay_with(
                        &key,
                        || {
                            generated.fetch_add(1, Ordering::Relaxed);
                            Ok(make_trace(21))
                        },
                        &mut NullTool,
                    )
                    .unwrap()
            }));
        }
        let reps: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            generated.load(Ordering::Relaxed),
            1,
            "single-flight must elect exactly one generator"
        );
        let stats = cache.stats();
        assert_eq!(stats.generations, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7, "every loser is served from the snapshot");
        assert!(
            stats.coalesced <= 7,
            "coalesced hits are a subset of hits: {stats}"
        );
        assert_eq!(stats.rejected, 0, "waiters never see partial snapshots");
        for rep in &reps {
            assert_eq!(rep.summary, reps[0].summary, "all callers see one stream");
        }
        let cache = std::sync::Arc::into_inner(cache).unwrap();
        cleanup(cache);
    }

    #[test]
    fn waiter_parked_during_generation_is_coalesced() {
        let cache = std::sync::Arc::new(TraceCache::scratch().unwrap());
        let key = TraceKey::new("w", "s", 25, 0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let winner = {
            let cache = cache.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                cache
                    .replay_with(
                        &key,
                        move || {
                            started_tx.send(()).unwrap();
                            release_rx.recv().unwrap();
                            Ok(make_trace(25))
                        },
                        &mut NullTool,
                    )
                    .unwrap()
            })
        };
        // Generation is in flight (and gated): no snapshot exists yet,
        // so the waiter's fast path misses and it parks on the lock.
        started_rx.recv().unwrap();
        let waiter = {
            let cache = cache.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                cache
                    .replay_with(
                        &key,
                        || Err("waiter must not generate".into()),
                        &mut NullTool,
                    )
                    .unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        release_tx.send(()).unwrap();
        let won = winner.join().unwrap();
        let waited = waiter.join().unwrap();
        assert_eq!(won.summary, waited.summary);
        let stats = cache.stats();
        assert_eq!((stats.generations, stats.coalesced), (1, 1));
        assert_eq!(stats.hits, 1, "waiter reads the committed snapshot");
        assert!(
            stats.to_string().contains("1 coalesced"),
            "coalescing must be visible in the report: {stats}"
        );
        let cache = std::sync::Arc::into_inner(cache).unwrap();
        cleanup(cache);
    }

    #[test]
    fn concurrent_snapshot_bytes_generate_exactly_once() {
        let cache = std::sync::Arc::new(TraceCache::scratch().unwrap());
        let key = TraceKey::new("w", "s", 23, 0);
        let generated = std::sync::Arc::new(AtomicU64::new(0));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let key = key.clone();
                let generated = generated.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .snapshot_bytes(&key, || {
                            generated.fetch_add(1, Ordering::Relaxed);
                            Ok(make_trace(23))
                        })
                        .unwrap()
                })
            })
            .collect();
        let all: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(generated.load(Ordering::Relaxed), 1);
        assert!(all.windows(2).all(|w| w[0] == w[1]), "identical bytes");
        assert_eq!(cache.stats().generations, 1);
        let cache = std::sync::Arc::into_inner(cache).unwrap();
        cleanup(cache);
    }

    #[test]
    fn open_sweeps_dead_orphans_and_keeps_live_ones() {
        let cache = TraceCache::scratch().unwrap();
        let dir = cache.dir().to_path_buf();
        drop(cache);
        // A pid far above any real pid_max stands in for a dead run; a
        // current-pid file stands in for a concurrently live run.
        let dead = [
            dir.join("a.rbts.tmp-999999999-0"),
            dir.join("b.rbts.tmp-999999999-3"),
        ];
        let live = [
            dir.join(format!("c.rbts.tmp-{}-0", std::process::id())),
            dir.join(format!("d.rbts.tmp-{}-1", std::process::id())),
        ];
        for path in dead.iter().chain(&live) {
            fs::write(path, b"partial").unwrap();
        }

        let cache = TraceCache::new(&dir).unwrap();
        assert_eq!(cache.stats().tmp_swept, 2, "the two dead runs' files");
        for path in &dead {
            assert!(!path.exists(), "dead orphan kept: {}", path.display());
        }
        for path in &live {
            assert!(path.exists(), "live tmp swept: {}", path.display());
        }
        cleanup(cache);
    }

    #[test]
    fn stats_since_subtracts_every_counter() {
        let earlier = CacheStats {
            hits: 1,
            misses: 2,
            generations: 3,
            rejected: 4,
            write_failures: 5,
            coalesced: 6,
            tmp_swept: 7,
            bytes_read: 8,
            bytes_written: 9,
        };
        let later = CacheStats {
            hits: 11,
            misses: 22,
            generations: 33,
            rejected: 44,
            write_failures: 55,
            coalesced: 66,
            tmp_swept: 77,
            bytes_read: 88,
            bytes_written: 99,
        };
        let delta = later.since(&earlier);
        assert_eq!(
            delta,
            CacheStats {
                hits: 10,
                misses: 20,
                generations: 30,
                rejected: 40,
                write_failures: 50,
                coalesced: 60,
                tmp_swept: 70,
                bytes_read: 80,
                bytes_written: 90,
            }
        );
        assert_eq!(later.since(&later), CacheStats::default());
        assert_eq!(later.since(&CacheStats::default()), later);
    }

    #[test]
    fn scratch_dirs_are_unique() {
        let a = TraceCache::scratch().unwrap();
        let b = TraceCache::scratch().unwrap();
        assert_ne!(a.dir(), b.dir());
        cleanup(a);
        cleanup(b);
    }
}
