//! Instruction cache model (Figures 8 and 9) with line-usefulness
//! accounting.

use rebalance_isa::Addr;
use rebalance_trace::{
    weighted_add, BySection, EventBatch, Need, Piece, Pintool, PlainRun, Section, TraceEvent,
};
use serde::{Deserialize, Serialize};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes (power of two).
    pub size_bytes: usize,
    /// Line width in bytes (power of two, 16..=128).
    pub line_bytes: usize,
    /// Associativity (power of two).
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are powers of two, lines are
    /// 16..=128 bytes, and the geometry has at least one set.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(
            line_bytes.is_power_of_two() && (16..=128).contains(&line_bytes),
            "line must be a power of two in 16..=128"
        );
        assert!(assoc.is_power_of_two(), "assoc must be a power of two");
        let lines = size_bytes / line_bytes;
        assert!(lines >= assoc, "fewer lines than ways");
        CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.assoc
    }

    /// `size/line/assoc` label, e.g. `"16KB/128B/8w"`.
    pub fn label(&self) -> String {
        format!(
            "{}KB/{}B/{}w",
            self.size_bytes / 1024,
            self.line_bytes,
            self.assoc
        )
    }
}

impl Default for CacheConfig {
    /// The paper's baseline I-cache: 32 KB, 64 B lines, 4-way.
    fn default() -> Self {
        CacheConfig::new(32 * 1024, 64, 4)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    lru: u64,
    /// Bitmask of touched bytes (lines are ≤128 B).
    used: u128,
}

/// Set-associative LRU instruction cache with per-line usefulness.
///
/// *Usefulness* is the fraction of a line's bytes touched during one
/// residency (fill to eviction) — the paper's metric for judging wide
/// lines (128 B lines stay ~71% useful on HPC code but only ~33% on
/// desktop code).
///
/// # Examples
///
/// ```
/// use rebalance_frontend::{CacheConfig, ICache};
/// use rebalance_isa::Addr;
///
/// let mut cache = ICache::new(CacheConfig::new(1024, 64, 2));
/// let a = Addr::new(0x1000);
/// assert!(!cache.access(a, 0, 4)); // cold miss
/// assert!(cache.access(a, 0, 4)); // hit
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: the set index starts at this address bit.
    line_shift: u32,
    /// `sets - 1`: the set-index bits above `line_shift`.
    set_mask: u64,
    /// `log2(line_bytes * sets)`: the tag is every address bit from here.
    tag_shift: u32,
    /// Every byte of a line as a used mask, for [`ICache::access_line`].
    line_used: u128,
    lines: Vec<Line>,
    clock: u64,
    evicted_usefulness_sum: f64,
    evicted_lines: u64,
}

impl ICache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        // `CacheConfig::new` asserts every size is a power of two, so the
        // geometry is exact as shifts and masks.
        let line_shift = cfg.line_bytes.trailing_zeros();
        let set_bits = cfg.sets().trailing_zeros();
        ICache {
            line_shift,
            set_mask: (1u64 << set_bits) - 1,
            tag_shift: line_shift + set_bits,
            line_used: Self::byte_mask(0, cfg.line_bytes as u64, cfg.line_bytes as u64),
            lines: vec![Line::default(); cfg.lines()],
            cfg,
            clock: 0,
            evicted_usefulness_sum: 0.0,
            evicted_lines: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The set holding `addr`'s line (any byte of the line will do).
    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        ((addr.as_u64() >> self.line_shift) & self.set_mask) as usize
    }

    /// The tag of `addr`'s line (any byte of the line will do).
    #[inline]
    fn tag_of(&self, addr: Addr) -> u64 {
        addr.as_u64() >> self.tag_shift
    }

    /// The set index of `addr`'s line (any byte of the line will do):
    /// two lines conflict for a way only when their indices are equal.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> usize {
        self.set_of(addr)
    }

    /// Accesses the line containing `addr`, marking `len` bytes starting
    /// at line offset `offset` as used. Returns `true` on hit.
    pub fn access(&mut self, addr: Addr, offset: u64, len: u64) -> bool {
        let used_bits = Self::byte_mask(offset, len, self.cfg.line_bytes as u64);
        self.access_way(addr, used_bits).0
    }

    /// Accesses the line containing `addr` and marks all of its bytes
    /// used: [`ICache::access`] over the whole line, without building
    /// the byte mask on every call. Returns `true` on hit.
    #[inline]
    pub fn access_line(&mut self, addr: Addr) -> bool {
        self.access_way(addr, self.line_used).0
    }

    /// [`ICache::access`] with the used bytes as a mask; also returns the
    /// index into `lines` the line now occupies, for
    /// [`ICache::mark_used`].
    #[inline]
    fn access_way(&mut self, addr: Addr, used_bits: u128) -> (bool, usize) {
        self.clock += 1;
        let tag = self.tag_of(addr);
        let base = self.set_of(addr) * self.cfg.assoc;

        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.cfg.assoc {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.used |= used_bits;
                return (true, i);
            }
            let age = if line.valid { line.lru } else { 0 };
            if age < oldest {
                oldest = age;
                victim = i;
            }
        }
        // Miss: evict and account the victim's usefulness.
        let line = &mut self.lines[victim];
        if line.valid {
            self.evicted_usefulness_sum +=
                line.used.count_ones() as f64 / self.cfg.line_bytes as f64;
            self.evicted_lines += 1;
        }
        *line = Line {
            valid: true,
            tag,
            lru: self.clock,
            used: used_bits,
        };
        (false, victim)
    }

    /// Marks `used` bytes of `addr`'s line as used without touching the
    /// LRU state (line-buffer extraction, not a cache probe), provided
    /// the line still sits at `way`, the index [`ICache::access_way`]
    /// returned for it. A line evicted since (by a next-line prefetch)
    /// is left alone.
    #[inline]
    fn mark_used(&mut self, way: usize, addr: Addr, used: u128) {
        let tag = self.tag_of(addr);
        let line = &mut self.lines[way];
        if line.valid && line.tag == tag {
            line.used |= used;
        }
    }

    #[inline]
    fn byte_mask(offset: u64, len: u64, line_bytes: u64) -> u128 {
        let end = (offset + len).min(line_bytes);
        let count = end.saturating_sub(offset);
        if count == 0 {
            return 0;
        }
        if count >= 128 {
            return u128::MAX;
        }
        ((1u128 << count) - 1) << offset
    }

    /// Returns `true` if the line containing `addr` is resident (no LRU
    /// update, no fill).
    pub fn probe(&self, addr: Addr) -> bool {
        let tag = self.tag_of(addr);
        let base = self.set_of(addr) * self.cfg.assoc;
        self.lines[base..base + self.cfg.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Prefetches the line containing `addr` if absent (a fill without a
    /// demand access; no bytes marked used). Returns `true` if a fill
    /// happened.
    pub fn prefetch(&mut self, addr: Addr) -> bool {
        if self.probe(addr) {
            return false;
        }
        // A fill through the normal path; the zero-length mask marks no
        // bytes used, so usefulness reflects only demand bytes.
        let _ = self.access(addr, 0, 0);
        true
    }

    /// Mean usefulness over completed residencies plus currently
    /// resident lines.
    pub fn mean_usefulness(&self) -> f64 {
        let mut sum = self.evicted_usefulness_sum;
        let mut n = self.evicted_lines;
        for line in &self.lines {
            if line.valid {
                sum += line.used.count_ones() as f64 / self.cfg.line_bytes as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Per-section I-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ICacheStats {
    /// All instructions (MPKI denominator).
    pub insts: u64,
    /// Cache accesses (line transitions, not per-instruction probes).
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Next-line prefetch fills issued (0 unless prefetching is on).
    pub prefetches: u64,
}

impl ICacheStats {
    /// Misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Miss rate per access.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Accesses per kilo-instruction (wide lines reduce this).
    pub fn apki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.accesses as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &ICacheStats) {
        self.insts += other.insts;
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.prefetches += other.prefetches;
    }

    /// Rescales the counts accumulated since `mark` (an earlier copy of
    /// `self`) as if they had been observed `weight` times — saturating
    /// u128 math via [`weighted_add`].
    pub fn scale_from(&mut self, mark: &ICacheStats, weight: u64) {
        self.insts = weighted_add(mark.insts, self.insts - mark.insts, weight);
        self.accesses = weighted_add(mark.accesses, self.accesses - mark.accesses, weight);
        self.misses = weighted_add(mark.misses, self.misses - mark.misses, weight);
        self.prefetches = weighted_add(mark.prefetches, self.prefetches - mark.prefetches, weight);
    }
}

/// Per-section + total I-cache report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ICacheReport {
    /// Geometry measured.
    pub config: CacheConfig,
    /// Per-section stats.
    pub sections: BySection<ICacheStats>,
    /// Mean line usefulness over the whole run.
    pub usefulness: f64,
}

impl ICacheReport {
    /// Combined stats.
    pub fn total(&self) -> ICacheStats {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Stats for one section.
    pub fn section(&self, section: Section) -> &ICacheStats {
        self.sections.get(section)
    }
}

/// The line walk's "no current line": never line-aligned, so no pc's
/// line equals it.
const NO_LINE: u64 = u64::MAX;

/// One exit of the fetch stream from a line: what the line-buffer walk
/// hands to every cache of its line size.
#[derive(Debug, Clone, Copy)]
struct LineExit {
    /// The line's address.
    line: u64,
    /// The bytes the access that opened the line marks used.
    access_mask: u128,
    /// The bytes extracted from the line buffer after that access. Kept
    /// apart from `access_mask` because a next-line prefetch between
    /// the two may evict the line (in a one-set cache).
    rest_mask: u128,
    /// The section of the event that opened the line.
    section: Section,
    /// `false` for a line carried over from the previous batch: it was
    /// accessed there, and only gets bytes marked here.
    access: bool,
}

/// The paper's fetch model for one line size: once a line is fetched,
/// instructions are extracted sequentially without re-accessing the
/// cache until the fetch stream leaves the line (sequential crossing or
/// taken branch). Per batch it lists the stream's line exits; the
/// caches it feeds replay that list.
///
/// It reads a batch as [`Piece`]s: a plain run is one address range, so
/// the walk steps once per line the run touches, not once per
/// instruction, and reads instruction lengths only to find the
/// instruction that opens each line after the first (the one holding
/// the line's first byte), whose bytes are the access's mask.
#[derive(Debug)]
struct LineWalk {
    line_bytes: u64,
    /// The line fetch is on, or [`NO_LINE`].
    line: u64,
    /// The last batch's exits, in stream order.
    exits: Vec<LineExit>,
}

impl LineWalk {
    fn new(line_bytes: usize) -> Self {
        LineWalk {
            line_bytes: line_bytes as u64,
            line: NO_LINE,
            exits: Vec::new(),
        }
    }

    /// Walks one batch's pieces into `exits`. The current line and the
    /// bytes used since its exit was last written live in locals, so a
    /// branch wholly inside the current line only ORs in its byte mask
    /// and checks for a taken branch out of the line, and so does a run
    /// wholly inside it; every other branch takes [`LineWalk::enter`],
    /// every other run [`LineWalk::run`].
    fn walk<'a>(&mut self, pieces: impl IntoIterator<Item = Piece<'a>>) {
        self.exits.clear();
        let line_bytes = self.line_bytes;
        let offset_mask = line_bytes - 1;
        let mut line = self.line;
        if line != NO_LINE {
            self.exits.push(LineExit {
                line,
                access_mask: 0,
                rest_mask: 0,
                section: Section::Serial,
                access: false,
            });
        }
        let mut used = 0u128;
        for piece in pieces {
            match piece {
                Piece::Start(_) => {}
                Piece::Run(run) => {
                    let pc = run.pc.as_u64();
                    let offset = pc & offset_mask;
                    if pc - offset == line && offset + run.bytes <= line_bytes {
                        used |= ICache::byte_mask(offset, run.bytes, line_bytes);
                    } else {
                        line = self.run(&run, line, &mut used);
                    }
                }
                Piece::Branch(ev) => {
                    let pc = ev.pc.as_u64();
                    let offset = pc & offset_mask;
                    let len = u64::from(ev.len);
                    if pc - offset == line && offset + len <= line_bytes {
                        used |= ICache::byte_mask(offset, len, line_bytes);
                        let leaves = ev.branch.is_some_and(|br| {
                            br.outcome.is_taken()
                                && br.target.is_some_and(|t| t.as_u64() & !offset_mask != line)
                        });
                        if leaves {
                            self.write_back(used);
                            used = 0;
                            line = NO_LINE;
                        }
                        continue;
                    }
                    self.write_back(used);
                    used = 0;
                    line = Self::enter(&mut self.exits, ev, line_bytes, line);
                }
            }
        }
        self.write_back(used);
        self.line = line;
    }

    /// A run that is not wholly inside the `current` line, the way its
    /// instructions would walk one by one: its bytes in `current` join
    /// `used`; each other line it touches opens an exit whose access
    /// marks the bytes of the instruction holding the line's first byte
    /// (or, for the run's first line, of its first instruction), and
    /// the run's later bytes in that line become the new `used`.
    /// Returns the line fetch is on afterwards: the run's last.
    fn run(&mut self, run: &PlainRun<'_>, current: u64, used: &mut u128) -> u64 {
        let line_bytes = self.line_bytes;
        let pc = run.pc.as_u64();
        let end = pc + run.bytes;
        let first = pc & !(line_bytes - 1);
        let last = (end - 1) & !(line_bytes - 1);
        let mut lens = run.lens.iter().map(|&len| u64::from(len));
        // End of the last instruction whose length was read.
        let mut opener_end = pc;
        if first == current {
            *used |= ICache::byte_mask(pc - first, (end - pc).min(line_bytes), line_bytes);
        } else {
            opener_end += lens.next().expect("a run has an instruction");
            self.open(first, pc - first, opener_end, end, run.section, used);
        }
        let mut line = first;
        while line != last {
            line += line_bytes;
            while opener_end <= line {
                opener_end += lens.next().expect("the run's lengths cover its bytes");
            }
            self.open(line, 0, opener_end, end, run.section, used);
        }
        last
    }

    /// Opens an exit for `line`: its access marks the bytes from line
    /// offset `from` to `opener_end`, and the bytes after them up to
    /// `run_end` become the line's pending `used`, after the old one
    /// was written back.
    #[inline]
    fn open(
        &mut self,
        line: u64,
        from: u64,
        opener_end: u64,
        run_end: u64,
        section: Section,
        used: &mut u128,
    ) {
        let line_bytes = self.line_bytes;
        self.write_back(*used);
        let opened = (opener_end - line).min(line_bytes);
        self.exits.push(LineExit {
            line,
            access_mask: ICache::byte_mask(from, opened - from, line_bytes),
            rest_mask: 0,
            section,
            access: true,
        });
        *used = ICache::byte_mask(
            opened,
            (run_end - line).min(line_bytes) - opened,
            line_bytes,
        );
    }

    /// Adds `used` to the open exit's extracted bytes.
    #[inline]
    fn write_back(&mut self, used: u128) {
        if used != 0 {
            let open = self.exits.last_mut().expect("an open line has an exit");
            open.rest_mask |= used;
        }
    }

    /// One event that is not wholly inside the `current` line: each line
    /// it touches opens an exit unless fetch is already on it, and a
    /// taken branch to another line leaves it. Returns the line fetch is
    /// on afterwards.
    fn enter(exits: &mut Vec<LineExit>, ev: &TraceEvent, line_bytes: u64, current: u64) -> u64 {
        let offset_mask = line_bytes - 1;
        let pc = ev.pc.as_u64();
        let end = pc + (u64::from(ev.len) - 1);
        let (first, last) = (pc & !offset_mask, end & !offset_mask);
        let mut current = current;
        let mut line = first;
        loop {
            let start = if line == first { pc & offset_mask } else { 0 };
            let stop = if line == last {
                (end & offset_mask) + 1
            } else {
                line_bytes
            };
            let used = ICache::byte_mask(start, stop - start, line_bytes);
            if line == current {
                let open = exits.last_mut().expect("an open line has an exit");
                open.rest_mask |= used;
            } else {
                exits.push(LineExit {
                    line,
                    access_mask: used,
                    rest_mask: 0,
                    section: ev.section,
                    access: true,
                });
                current = line;
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        let target = ev.branch.filter(|br| br.outcome.is_taken());
        if target
            .and_then(|br| br.target)
            .is_some_and(|t| t.as_u64() & !offset_mask != last)
        {
            current = NO_LINE;
        }
        current
    }
}

/// One cache a line walk feeds: its state and counters.
#[derive(Debug)]
struct Member {
    cache: ICache,
    sections: BySection<ICacheStats>,
    /// Where the walk's current line sits in `cache`.
    way: usize,
    next_line_prefetch: bool,
    /// Counter snapshot at the last sampled-replay boundary.
    mark: BySection<ICacheStats>,
}

impl Member {
    fn new(cfg: CacheConfig, next_line_prefetch: bool) -> Self {
        Member {
            cache: ICache::new(cfg),
            sections: BySection::default(),
            way: 0,
            next_line_prefetch,
            mark: BySection::default(),
        }
    }

    /// `(config, next_line_prefetch)`: what makes two members the same.
    fn key(&self) -> (CacheConfig, bool) {
        (self.cache.config(), self.next_line_prefetch)
    }

    fn report(&self) -> ICacheReport {
        ICacheReport {
            config: self.cache.config(),
            sections: self.sections,
            usefulness: self.cache.mean_usefulness(),
        }
    }

    /// Replays one batch's line exits, with the batch's instruction
    /// counts: an access exit is one cache access (plus a next-line
    /// prefetch on a miss, when enabled) and then the extracted bytes; a
    /// carried-over line only gets its bytes marked.
    fn consume(&mut self, walk: &LineWalk, insts: BySection<u64>) {
        self.sections.serial.insts += insts.serial;
        self.sections.parallel.insts += insts.parallel;
        for exit in &walk.exits {
            let line = Addr::new(exit.line);
            if exit.access {
                let stats = self.sections.get_mut(exit.section);
                stats.accesses += 1;
                let (hit, way) = self.cache.access_way(line, exit.access_mask);
                if !hit {
                    stats.misses += 1;
                    if self.next_line_prefetch && self.cache.prefetch(line + walk.line_bytes) {
                        stats.prefetches += 1;
                    }
                }
                self.way = way;
            }
            if exit.rest_mask != 0 {
                self.cache.mark_used(self.way, line, exit.rest_mask);
            }
        }
    }

    /// Scales the window's counter deltas (line usefulness, derived from
    /// live cache state, stays unweighted).
    fn on_sample_weight(&mut self, weight: u64) {
        if weight != 1 {
            self.sections.serial.scale_from(&self.mark.serial, weight);
            self.sections
                .parallel
                .scale_from(&self.mark.parallel, weight);
        }
        self.mark = self.sections;
    }
}

/// Drives an [`ICache`] with the paper's fetch model: once a line is
/// fetched, instructions are extracted sequentially without re-accessing
/// the cache until the fetch stream leaves the line (sequential
/// crossing or taken branch).
///
/// [`Pintool::on_inst`] is the per-event oracle; [`Pintool::on_batch`]
/// is an [`ICacheBank`] of one, the same line walk over the batch's
/// runs and branches ([`EventBatch::pieces`]) and the same consumer.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::{CacheConfig, ICacheSim};
/// use rebalance_workloads::{find, Scale};
///
/// let trace = find("swim").unwrap().trace(Scale::Smoke).unwrap();
/// let mut sim = ICacheSim::new(CacheConfig::new(16 * 1024, 128, 8));
/// trace.replay(&mut sim);
/// let report = sim.report();
/// assert!(report.total().mpki() < 15.0);
/// assert!(report.usefulness > 0.2);
/// ```
#[derive(Debug)]
pub struct ICacheSim {
    walk: LineWalk,
    member: Member,
}

impl ICacheSim {
    /// Creates a measurement harness.
    pub fn new(cfg: CacheConfig) -> Self {
        ICacheSim {
            walk: LineWalk::new(cfg.line_bytes),
            member: Member::new(cfg, false),
        }
    }

    /// Enables a simple tagged next-line prefetcher: every demand miss
    /// also fills the sequentially next line. The paper argues wide
    /// lines act as a prefetch buffer (the paper cites Reinman et al.); this option lets narrow
    /// lines compete with explicit prefetching.
    pub fn with_next_line_prefetch(mut self) -> Self {
        self.member.next_line_prefetch = true;
        self
    }

    /// Snapshot of the accumulated stats.
    pub fn report(&self) -> ICacheReport {
        self.member.report()
    }

    /// The per-event fetch model, minus the instruction count: access,
    /// miss, prefetch and line-straddle logic, written out per event so
    /// the batched walk has an independent reference.
    fn step(&mut self, ev: &TraceEvent) {
        let line_bytes = self.walk.line_bytes;
        // A taken branch redirects fetch only when it targets a
        // different line (see the end of this function).
        let redirect = if ev.is_taken_branch() {
            ev.branch.and_then(|br| br.target)
        } else {
            None
        };
        let (pc, len) = (ev.pc, ev.len);
        let m = &mut self.member;
        let stats = m.sections.get_mut(ev.section);
        // An instruction may span two lines; touch each containing line.
        let first = pc.line(line_bytes);
        let last = (pc + (u64::from(len) - 1)).line(line_bytes);
        let mut line = first;
        loop {
            let start = if line == first {
                pc.line_offset(line_bytes)
            } else {
                0
            };
            let end = if line == last {
                (pc + (u64::from(len) - 1)).line_offset(line_bytes) + 1
            } else {
                line_bytes
            };
            let used = ICache::byte_mask(start, end - start, line_bytes);
            if self.walk.line != line.as_u64() {
                stats.accesses += 1;
                let (hit, way) = m.cache.access_way(line, used);
                if !hit {
                    stats.misses += 1;
                    if m.next_line_prefetch {
                        let next = line + line_bytes;
                        if m.cache.prefetch(next) {
                            stats.prefetches += 1;
                        }
                    }
                }
                self.walk.line = line.as_u64();
                m.way = way;
            } else {
                // Same line: extraction from the line buffer — record
                // the touched bytes without a cache probe.
                m.cache.mark_used(m.way, line, used);
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        // A taken branch redirects fetch: the next instruction re-probes
        // even if it lands in the same line (new fetch request), unless
        // it is exactly sequential. Model: clear the line-buffer state on
        // taken branches to a different line; keep it for short forward
        // jumps inside the line.
        if let Some(target) = redirect {
            if target.line(line_bytes) != last {
                self.walk.line = NO_LINE;
            }
        }
    }
}

impl Pintool for ICacheSim {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.member.sections.get_mut(ev.section).insts += 1;
        self.step(ev);
    }

    /// Hot path: the line walk over the batch's pieces, then one pass
    /// over its exits; instruction counts come from the batch's section
    /// totals.
    fn on_batch(&mut self, batch: &EventBatch) {
        self.walk.walk(batch.pieces());
        self.member.consume(&self.walk, batch.sections());
    }

    /// Scales the window's counter deltas; the line buffer is dropped
    /// at the gap that follows (line usefulness, derived from live cache
    /// state, stays unweighted).
    fn on_sample_weight(&mut self, weight: u64) {
        self.member.on_sample_weight(weight);
    }

    fn on_sample_gap(&mut self) {
        // The next delivered instruction does not follow the last one:
        // forget the line the sequential-fetch tracker was on, so the
        // jump charges (at most) one honest cold fetch instead of
        // pretending the stream never moved.
        self.walk.line = NO_LINE;
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }
}

/// A set of I-cache geometries over one replay, walking each distinct
/// line size once per batch: every configuration's [`ICacheReport`] from
/// one pass, bit-identical to a solo [`ICacheSim`] per configuration.
///
/// The line-buffer walk (the in-line check, the byte-mask OR and the
/// taken-branch-out check per branch and per sequential run of plain
/// instructions, [`EventBatch::pieces`]) depends only on the line size, and it
/// is most of an [`ICacheSim`]'s cost. So the bank builds each stage
/// once per distinct key, the rule `PredictorBank` and
/// `rebalance-fetchsim`'s `FetchGrid` follow:
///
/// | stage | one per |
/// |---|---|
/// | line walk | `line_bytes` |
/// | cache and counters | (`CacheConfig`, next-line prefetch) |
///
/// Per batch each walk lists its line exits (about one per seven events
/// on the roster), and each cache of that line size replays the list:
/// an access with the bytes the opening instruction used, the optional
/// next-line prefetch, then the bytes extracted afterwards.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::{CacheConfig, ICacheBank, ICacheSim};
/// use rebalance_workloads::{find, Scale};
///
/// let configs = [
///     CacheConfig::new(16 * 1024, 64, 4),
///     CacheConfig::new(32 * 1024, 64, 4),
///     CacheConfig::new(16 * 1024, 128, 8),
/// ];
/// let mut bank = ICacheBank::new(&configs); // 2 line walks, 3 caches
/// let trace = find("CG").unwrap().trace(Scale::Smoke).unwrap();
/// trace.replay(&mut bank);
/// let mut solo = ICacheSim::new(configs[2]);
/// trace.replay(&mut solo);
/// assert_eq!(bank.reports()[2], solo.report());
/// ```
#[derive(Debug)]
pub struct ICacheBank {
    /// One line walk per distinct line size, with the caches it feeds.
    groups: Vec<(LineWalk, Vec<Member>)>,
    /// Each construction key's `(group, member)`.
    slots: Vec<(usize, usize)>,
}

impl ICacheBank {
    /// Groups `configs` by line size (configurations may repeat; a
    /// repeat shares its first appearance's cache and report).
    pub fn new(configs: &[CacheConfig]) -> Self {
        let mut bank = ICacheBank {
            groups: Vec::new(),
            slots: Vec::new(),
        };
        for &config in configs {
            bank.add(config, false);
        }
        bank
    }

    /// Adds `configs` with a next-line prefetcher each (see
    /// [`ICacheSim::with_next_line_prefetch`]); their reports follow the
    /// earlier ones.
    pub fn with_next_line_prefetch(mut self, configs: &[CacheConfig]) -> Self {
        for &config in configs {
            self.add(config, true);
        }
        self
    }

    fn add(&mut self, config: CacheConfig, next_line_prefetch: bool) {
        let line_bytes = config.line_bytes as u64;
        let group = match self
            .groups
            .iter()
            .position(|(w, _)| w.line_bytes == line_bytes)
        {
            Some(group) => group,
            None => {
                self.groups
                    .push((LineWalk::new(config.line_bytes), Vec::new()));
                self.groups.len() - 1
            }
        };
        let members = &mut self.groups[group].1;
        let key = (config, next_line_prefetch);
        let member = match members.iter().position(|m| m.key() == key) {
            Some(member) => member,
            None => {
                members.push(Member::new(config, next_line_prefetch));
                members.len() - 1
            }
        };
        self.slots.push((group, member));
    }

    /// `(line walks, caches)` the bank runs.
    pub fn shape(&self) -> (usize, usize) {
        let caches = self.groups.iter().map(|(_, members)| members.len()).sum();
        (self.groups.len(), caches)
    }

    /// One report per configuration, in construction order.
    pub fn reports(&self) -> Vec<ICacheReport> {
        (self.slots.iter())
            .map(|&(group, member)| self.groups[group].1[member].report())
            .collect()
    }
}

impl Pintool for ICacheBank {
    /// A batch of one event through every walk: the same code as
    /// [`Pintool::on_batch`].
    fn on_inst(&mut self, ev: &TraceEvent) {
        let mut insts = BySection::<u64>::default();
        *insts.get_mut(ev.section) += 1;
        for (walk, members) in &mut self.groups {
            walk.walk([Piece::of(ev)]);
            for member in members {
                member.consume(walk, insts);
            }
        }
    }

    /// Hot path: each line size's walk once, then every cache of that
    /// size over its exits.
    fn on_batch(&mut self, batch: &EventBatch) {
        for (walk, members) in &mut self.groups {
            walk.walk(batch.pieces());
            for member in members {
                member.consume(walk, batch.sections());
            }
        }
    }

    /// As [`ICacheSim`]: each cache scales the counts since its mark.
    fn on_sample_weight(&mut self, weight: u64) {
        for (_, members) in &mut self.groups {
            for member in members {
                member.on_sample_weight(weight);
            }
        }
    }

    fn on_sample_gap(&mut self) {
        for (walk, _) in &mut self.groups {
            walk.line = NO_LINE;
        }
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }

    /// A bank reads runs; one with no cache walks no line, so it reads
    /// no plain instruction.
    fn need(&self) -> Need {
        if self.groups.is_empty() {
            Need::Branches
        } else {
            Need::Events
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn inst(pc: u64, len: u8) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len,
            class: InstClass::Other,
            branch: None,
            section: Section::Parallel,
        }
    }

    fn taken(pc: u64, len: u8, target: u64) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len,
            class: InstClass::Branch(BranchKind::UncondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::UncondDirect,
                outcome: Outcome::Taken,
                target: Some(Addr::new(target)),
            }),
            section: Section::Parallel,
        }
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(16 * 1024, 128, 8);
        assert_eq!(c.lines(), 128);
        assert_eq!(c.sets(), 16);
        assert_eq!(c.label(), "16KB/128B/8w");
        let d = CacheConfig::default();
        assert_eq!(d.size_bytes, 32 * 1024);
    }

    #[test]
    fn shift_and_mask_geometry_matches_division() {
        for (size, line, assoc) in [
            (64, 64, 1),
            (256, 16, 2),
            (1024, 64, 4),
            (16 * 1024, 128, 8),
            (32 * 1024, 64, 4),
        ] {
            let cfg = CacheConfig::new(size, line, assoc);
            let cache = ICache::new(cfg);
            let (line, sets) = (line as u64, cfg.sets() as u64);
            for raw in [0, 1, 63, 64, 0x1234_5678, u64::MAX] {
                let a = Addr::new(raw);
                assert_eq!(
                    cache.set_of(a) as u64,
                    raw / line % sets,
                    "{cfg:?} {raw:#x}"
                );
                assert_eq!(cache.tag_of(a), raw / line / sets, "{cfg:?} {raw:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "line must be")]
    fn rejects_giant_lines() {
        let _ = CacheConfig::new(1024, 256, 2);
    }

    #[test]
    fn sequential_fetch_accesses_once_per_line() {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        // 16 4-byte instructions = exactly one 64B line.
        for i in 0..16 {
            sim.on_inst(&inst(0x1000 + i * 4, 4));
        }
        let t = sim.report().total();
        assert_eq!(t.insts, 16);
        assert_eq!(t.accesses, 1, "one line transition");
        assert_eq!(t.misses, 1, "cold miss");
        // Next 16 instructions: second line.
        for i in 16..32 {
            sim.on_inst(&inst(0x1000 + i * 4, 4));
        }
        assert_eq!(sim.report().total().accesses, 2);
    }

    #[test]
    fn straddling_instruction_touches_two_lines() {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        // 6-byte instruction starting 2 bytes before a line end.
        sim.on_inst(&inst(0x1000 + 62, 6));
        let t = sim.report().total();
        assert_eq!(t.accesses, 2);
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn loop_within_cache_hits_after_warmup() {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        for _round in 0..10 {
            for i in 0..32 {
                sim.on_inst(&inst(0x1000 + i * 4, 4));
            }
            // jump back to the start
            sim.on_inst(&taken(0x1000 + 32 * 4, 5, 0x1000));
        }
        let t = sim.report().total();
        assert_eq!(
            t.misses, 3,
            "warmup misses only (two code lines + branch line)"
        );
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let tiny = CacheConfig::new(256, 64, 2); // 4 lines
        let mut sim = ICacheSim::new(tiny);
        // Cycle through 16 lines repeatedly.
        for _round in 0..20 {
            for l in 0..16u64 {
                sim.on_inst(&inst(0x1000 + l * 64, 4));
                sim.on_inst(&taken(0x1000 + l * 64 + 4, 5, 0x1000 + ((l + 1) % 16) * 64));
            }
        }
        let t = sim.report().total();
        assert!(
            t.miss_rate() > 0.9,
            "LRU cycling over 16 lines in a 4-line cache: {}",
            t.miss_rate()
        );
    }

    #[test]
    fn usefulness_reflects_touched_bytes() {
        let mut cache = ICache::new(CacheConfig::new(256, 64, 2));
        // Touch 16 of 64 bytes of one line, then evict it by filling the set.
        let a = Addr::new(0);
        cache.access(a, 0, 16);
        // Two more lines mapping to set 0 (4 sets? 256/64=4 lines, 2 ways
        // -> 2 sets; line addr multiples of 64*2=128 map to set 0).
        cache.access(Addr::new(128), 0, 64);
        cache.access(Addr::new(256), 0, 64); // evicts `a`
        let u = cache.mean_usefulness();
        // Residencies: evicted a (0.25), resident 128 (1.0), 256 (1.0).
        assert!(
            (u - (0.25 + 1.0 + 1.0) / 3.0).abs() < 1e-9,
            "usefulness {u}"
        );
    }

    #[test]
    fn taken_branch_to_same_line_keeps_line_buffer() {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        // Tight loop inside one line: branch target in same line.
        sim.on_inst(&inst(0x1000, 4));
        sim.on_inst(&taken(0x1004, 5, 0x1000));
        sim.on_inst(&inst(0x1000, 4));
        let t = sim.report().total();
        assert_eq!(t.accesses, 1, "no re-probe for an intra-line loop");
    }

    #[test]
    fn taken_branch_far_away_reprobes() {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        sim.on_inst(&taken(0x1000, 5, 0x2000));
        sim.on_inst(&inst(0x2000, 4));
        // The branch at 0x2004 shares 0x2000's line: no re-probe for it,
        // but its taken redirect forces a probe at 0x1000.
        sim.on_inst(&taken(0x2004, 5, 0x1000));
        sim.on_inst(&inst(0x1000, 4));
        let t = sim.report().total();
        assert_eq!(t.accesses, 3, "redirects to other lines probe again");
        // Second visit to 0x1000 hits.
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn access_line_is_a_whole_line_access() {
        let config = CacheConfig::new(256, 64, 2);
        let (mut whole, mut by_bytes) = (ICache::new(config), ICache::new(config));
        for pc in [0, 128, 0, 256, 64, 128, 0] {
            let a = Addr::new(pc);
            assert_eq!(whole.access_line(a), by_bytes.access(a, 0, 64), "{pc:#x}");
        }
        assert_eq!(whole.mean_usefulness(), by_bytes.mean_usefulness());
        // Two sets: lines 128 bytes apart share one.
        assert_eq!(whole.set_index(Addr::new(0x40)), 1);
        assert_eq!(whole.set_index(Addr::new(0x7f)), 1);
        assert_eq!(
            whole.set_index(Addr::new(0x100)),
            whole.set_index(Addr::new(0))
        );
    }

    #[test]
    fn probe_and_prefetch() {
        let mut cache = ICache::new(CacheConfig::new(1024, 64, 2));
        let a = Addr::new(0x1000);
        assert!(!cache.probe(a));
        assert!(cache.prefetch(a), "fill on absent line");
        assert!(cache.probe(a));
        assert!(!cache.prefetch(a), "no refill on resident line");
        // A prefetched line counts 0 used bytes until demand touches it.
        assert!(cache.access(a, 0, 8), "demand hit after prefetch");
    }

    #[test]
    fn next_line_prefetch_cuts_sequential_misses() {
        let run = |prefetch: bool| {
            let mut sim = ICacheSim::new(CacheConfig::new(4096, 64, 2));
            if prefetch {
                sim = sim.with_next_line_prefetch();
            }
            // One long sequential sweep: every line is a cold miss
            // without prefetch; with next-line prefetch every other
            // line arrives early.
            for i in 0..512 {
                sim.on_inst(&inst(0x1000 + i * 8, 8));
            }
            let t = sim.report().total();
            (t.misses, t.prefetches)
        };
        let (plain, p0) = run(false);
        let (with_pf, pf) = run(true);
        assert_eq!(p0, 0);
        assert!(pf > 0);
        assert!(
            with_pf * 3 <= plain * 2,
            "prefetch should remove >=1/3 of sweep misses: {with_pf} vs {plain}"
        );
    }

    #[test]
    fn byte_mask_edges() {
        assert_eq!(ICache::byte_mask(0, 0, 64), 0);
        assert_eq!(ICache::byte_mask(0, 1, 64), 1);
        assert_eq!(ICache::byte_mask(63, 4, 64), 1 << 63);
        assert_eq!(ICache::byte_mask(0, 128, 128), u128::MAX);
    }

    #[test]
    fn only_a_bank_with_caches_reads_every_event() {
        assert_eq!(ICacheBank::new(&[]).need(), Need::Branches);
        assert_eq!(
            ICacheBank::new(&[CacheConfig::default()]).need(),
            Need::Events
        );
        assert_eq!(ICacheSim::new(CacheConfig::default()).need(), Need::Events);
    }

    #[test]
    fn apki_and_zero_cases() {
        let s = ICacheStats::default();
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.apki(), 0.0);
    }
}
