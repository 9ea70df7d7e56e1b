//! Property tests for the binary snapshot format:
//!
//! 1. encode → decode round-trips **arbitrary** event streams
//!    bit-identically (events, section notifications, and summary), and
//! 2. flipping any single bit anywhere in a snapshot is rejected with a
//!    typed [`SnapshotError`] — the word-wise FNV-1a 64 checksum covers
//!    every byte except itself, and a flip inside the stored checksum
//!    is a direct mismatch; small snapshots of every length residue mod
//!    8 are checked exhaustively, every bit of every byte, and
//! 3. a sampled sweep, which reads each cached snapshot once and
//!    decodes only its sampled windows, still rejects a cached snapshot
//!    with one flipped bit and regenerates it, with unchanged results,
//!    and
//! 4. a tool set that reads only branches, replayed through branch-only
//!    batches (which skip runs of sequential records a word at a time),
//!    sees the batches a run reader sees through run batches (which keep
//!    those runs without building events), and the run reader sees the
//!    per-event decode's stream, on any record stream, a truncated or
//!    malformed one included: the same batches, the same summary or the
//!    same error at the same byte, and a sampling plan pass through
//!    branch-only batches records the cursor table and plan a pass
//!    through run batches records.

use proptest::prelude::*;

use rebalance::isa::{Addr, InstClass, Outcome};
use rebalance::pintools::BbvTool;
use rebalance::trace::sampling::Fingerprinter;
use rebalance::trace::snapshot::{checksum, KIND_TABLE};
use rebalance::trace::{
    BranchEvent, BySection, CondBehavior, EventBatch, IterCount, Need, Phase, Piece, Pintool,
    ProgramBuilder, SamplePlan, SamplingConfig, Schedule, Section, Snapshot, SnapshotError,
    SnapshotWriter, SweepEngine, SyntheticTrace, Terminator, TraceCache, TraceEvent, TraceKey,
    DEFAULT_BATCH_CAPACITY,
};

/// One drawn raw event: `(class selector, pc, len, taken, target,
/// parallel?)`. The tuple keeps the vendored proptest's 6-element
/// strategy limit.
type RawEvent = (u8, u64, u8, bool, u64, bool);

fn build_event(raw: RawEvent) -> TraceEvent {
    let (class_sel, pc, len, taken, target, parallel) = raw;
    let section = if parallel {
        Section::Parallel
    } else {
        Section::Serial
    };
    let (class, branch) = if class_sel == 0 {
        (InstClass::Other, None)
    } else {
        let kind = KIND_TABLE[usize::from(class_sel - 1) % KIND_TABLE.len()];
        // Syscall-style events may omit the target; derive presence
        // from the drawn target's parity to keep both shapes covered.
        let target = (target % 2 == 0).then_some(Addr::new(target));
        (
            InstClass::Branch(kind),
            Some(BranchEvent {
                kind,
                outcome: Outcome::from_taken(taken),
                target,
            }),
        )
    };
    TraceEvent {
        pc: Addr::new(pc),
        len,
        class,
        branch,
        section,
    }
}

#[derive(Default)]
struct Recorder {
    events: Vec<TraceEvent>,
    starts: Vec<Section>,
}

impl Pintool for Recorder {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }

    fn on_section_start(&mut self, section: Section) {
        self.starts.push(section);
    }
}

/// Encodes the raw stream exactly as a live replay would feed a
/// [`SnapshotWriter`]: an explicit section-start marker wherever the
/// draw asks for one, then the event.
fn encode(raws: &[RawEvent], seed: u64) -> (Vec<u8>, Vec<TraceEvent>, Vec<Section>) {
    let mut writer = SnapshotWriter::new(Vec::new(), seed, 0);
    let mut events = Vec::new();
    let mut starts = Vec::new();
    for raw in raws {
        let ev = build_event(*raw);
        // Derive "phase boundary here" from the drawn pc so marker
        // placement is arbitrary but deterministic.
        if raw.1 % 7 == 0 {
            writer.on_section_start(ev.section);
            starts.push(ev.section);
        }
        writer.on_inst(&ev);
        events.push(ev);
    }
    let (bytes, info) = writer.finish().expect("Vec sink cannot fail");
    assert_eq!(info.summary.instructions, events.len() as u64);
    (bytes, events, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn round_trip_is_bit_identical(
        raws in proptest::collection::vec(
            (0u8..8, any::<u64>(), 1u8..=15, any::<bool>(), any::<u64>(), any::<bool>()),
            0..120,
        ),
        seed in any::<u64>(),
    ) {
        let (bytes, events, starts) = encode(&raws, seed);
        let snapshot = Snapshot::parse(&bytes).expect("writer output parses");
        prop_assert_eq!(snapshot.info().seed, seed);
        let mut rec = Recorder::default();
        let summary = snapshot.replay(&mut rec).expect("writer output decodes");
        prop_assert_eq!(&rec.events, &events, "event streams must be bit-identical");
        prop_assert_eq!(&rec.starts, &starts, "section notifications must match");
        prop_assert_eq!(summary, snapshot.info().summary);
        prop_assert_eq!(summary.instructions, events.len() as u64);
        let (sealed, stored) = bytes.split_at(bytes.len() - 8);
        prop_assert_eq!(
            u64::from_le_bytes(stored.try_into().expect("8 bytes")),
            checksum(sealed),
            "the writer's streamed checksum is the format's checksum"
        );
    }

    /// The writer reads runs: re-encoding a snapshot's decode through
    /// run batches, at capacities 1, 7 and the default, writes the
    /// snapshot's own bytes, on arbitrary and on run-heavy streams.
    #[test]
    fn re_encoding_a_decode_through_run_batches_writes_the_same_bytes(
        raws in proptest::collection::vec(
            (0u8..8, any::<u64>(), 1u8..=15, any::<bool>(), any::<u64>(), any::<bool>()),
            0..120,
        ),
        runs in run_events(300),
    ) {
        for bytes in [encode(&raws, 11).0, encode_runs(&runs)] {
            let snapshot = Snapshot::parse(&bytes).expect("writer output parses");
            let info = *snapshot.info();
            for capacity in [1, 7, DEFAULT_BATCH_CAPACITY] {
                let mut writer = SnapshotWriter::new(Vec::new(), info.seed, info.fingerprint)
                    .with_static_bytes(info.static_bytes);
                prop_assert_eq!(writer.need(), Need::Events);
                snapshot.replay_batched(&mut writer, capacity).expect("decodes");
                let again = writer.finish().expect("Vec sink cannot fail").0;
                prop_assert!(again == bytes, "capacity {}", capacity);
            }
        }
    }

    #[test]
    fn any_flipped_bit_is_rejected_with_a_typed_error(
        raws in proptest::collection::vec(
            (0u8..8, any::<u64>(), 1u8..=15, any::<bool>(), any::<u64>(), any::<bool>()),
            1..60,
        ),
        flip_at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (bytes, _, _) = encode(&raws, 42);
        let mut bad = bytes.clone();
        let at = (flip_at % bad.len() as u64) as usize;
        bad[at] ^= 1 << bit;

        let outcome: Result<_, SnapshotError> =
            Snapshot::parse(&bad).and_then(|s| s.replay(&mut rebalance::trace::NullTool));
        let err = match outcome {
            Ok(_) => panic!("flip of bit {bit} at byte {at} went undetected"),
            Err(e) => e,
        };
        // The error is typed; corruption most often lands on the
        // checksum (it covers every byte but its own storage), with
        // magic/version flips reported even earlier.
        prop_assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic(_)
                    | SnapshotError::UnsupportedVersion(_)
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::Malformed { .. }
            ),
            "unexpected error class: {}", err
        );

        // And the pristine bytes still decode.
        Snapshot::parse(&bytes)
            .expect("pristine parse")
            .replay(&mut rebalance::trace::NullTool)
            .expect("pristine decode");
    }
}

/// Every bit of every byte of small snapshots, one per length residue
/// mod 8, flipped one at a time: each flip is rejected, by the check
/// that owns the flipped field. The footer's static code size is one
/// of those fields.
#[test]
fn every_single_bit_flip_of_small_snapshots_is_rejected() {
    let mut residues = [false; 8];
    // `sequential` 2-byte records and `jumps` 3-byte ones (a one-byte
    // pc delta) reach every length residue.
    for sequential in 0..4u64 {
        for jumps in 0..4u64 {
            // A nonzero static code size, so the footer field it fills
            // holds set bits to flip as well as clear ones.
            let static_bytes = 0x0123_4567_89ab_cdef ^ (sequential << 8 | jumps);
            let mut writer =
                SnapshotWriter::new(Vec::new(), 9, 0x5eed).with_static_bytes(static_bytes);
            let mut pc = 0u64;
            for i in 0..sequential + jumps {
                if i >= sequential {
                    pc += 8;
                }
                let ev = build_event((0, pc, 4, false, 0, false));
                writer.on_inst(&ev);
                pc = ev.next_pc().as_u64();
            }
            let (bytes, _) = writer.finish().expect("Vec sink cannot fail");
            residues[bytes.len() % 8] = true;
            let pristine = Snapshot::parse(&bytes).expect("pristine parse");
            assert_eq!(pristine.info().static_bytes, static_bytes);
            pristine
                .replay(&mut rebalance::trace::NullTool)
                .expect("pristine decode");
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[at] ^= 1 << bit;
                    let err = Snapshot::parse(&bad)
                        .and_then(|s| s.replay(&mut rebalance::trace::NullTool))
                        .expect_err("a flipped bit must be rejected");
                    let typed = match at {
                        0..=3 => matches!(err, SnapshotError::BadMagic(_)),
                        4..=5 => matches!(err, SnapshotError::UnsupportedVersion(_)),
                        _ => matches!(err, SnapshotError::ChecksumMismatch { .. }),
                    };
                    assert!(
                        typed,
                        "{} bytes, bit {bit} of byte {at}: {err}",
                        bytes.len()
                    );
                }
            }
        }
    }
    assert_eq!(residues, [true; 8], "every length residue mod 8 is covered");
}

/// A small phased trace: a serial loop and a call-heavy parallel loop,
/// repeated, so the sampling plan has distinct phases to pick from.
fn phased_trace() -> SyntheticTrace {
    let mut b = ProgramBuilder::new();
    let main = b.region("main");
    let lib = b.region("lib");
    let head = b.reserve_block();
    let call = b.reserve_block();
    let cont = b.reserve_block();
    let callee = b.reserve_block();
    let exit = b.reserve_block();
    b.define_block(
        head,
        main,
        4,
        Terminator::Cond {
            taken: head,
            fall: call,
            behavior: CondBehavior::Loop {
                count: IterCount::Uniform { lo: 2, hi: 6 },
            },
        },
    );
    b.define_block(
        call,
        main,
        2,
        Terminator::Call {
            callee,
            ret_to: cont,
        },
    );
    b.define_block(callee, lib, 5, Terminator::Return);
    b.define_block(cont, main, 2, Terminator::Jump { target: exit });
    b.define_block(exit, main, 1, Terminator::Exit);
    let schedule = Schedule::with_repeat(
        vec![
            Phase::new(Section::Serial, head, 500),
            Phase::new(Section::Parallel, call, 1_500),
        ],
        2,
    );
    SyntheticTrace::new(b.build().expect("valid program"), schedule, 5)
}

/// A weight-aware tool logging delivered PCs, section starts, weights
/// and gaps in order.
#[derive(Default)]
struct SampledLog(Vec<(char, u64)>);

impl Pintool for SampledLog {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.0.push(('i', ev.pc.as_u64()));
    }

    fn on_section_start(&mut self, section: Section) {
        self.0.push(('s', section.index() as u64));
    }

    fn on_sample_weight(&mut self, weight: u64) {
        self.0.push(('w', weight));
    }

    fn on_sample_gap(&mut self) {
        self.0.push(('g', 0));
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sampled_sweep_rejects_and_regenerates_a_flipped_cached_snapshot(
        flip_at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let cache = TraceCache::scratch().expect("scratch cache");
        let key = TraceKey::new("phased", "test", 5, 0);
        let config = SamplingConfig::default().with_intervals(20).with_k(4);
        let sweep = || {
            let owned = cache.snapshot(&key, || Ok(phased_trace())).expect("snapshot");
            let (tools, replay, _) = SweepEngine::new()
                .replay_sampled(
                    &owned.snapshot(),
                    &config,
                    vec![SampledLog::default()],
                    || BbvTool::new(config.dims),
                )
                .expect("sampled replay");
            (
                tools.into_iter().next().expect("one tool").0,
                replay.summary,
                replay.delivered_instructions,
            )
        };
        let cold = sweep();
        prop_assert!(cold.2 < cold.1.instructions, "the plan must skip intervals");

        let path = cache.path_for(&key);
        let pristine = std::fs::read(&path).expect("snapshot persisted");
        let mut bad = pristine.clone();
        let at = (flip_at % bad.len() as u64) as usize;
        bad[at] ^= 1 << bit;
        std::fs::write(&path, &bad).expect("rewrite snapshot");

        let before = cache.stats();
        let warm = sweep();
        let delta = cache.stats().since(&before);
        prop_assert_eq!(delta.rejected, 1, "flip of bit {} at byte {} not rejected", bit, at);
        prop_assert_eq!(delta.generations, 1, "the rejected snapshot is regenerated");
        prop_assert!(cold == warm, "results changed after regeneration");
        prop_assert!(
            std::fs::read(&path).expect("snapshot rewritten") == pristine,
            "the regenerated snapshot is the pristine one"
        );
        std::fs::remove_dir_all(cache.dir()).expect("remove scratch cache");
    }
}

/// Encodes drawn events as mostly straight-line code: long runs of
/// sequential plain records, broken by jumps (non-sequential records),
/// branches of every kind and section starts.
fn encode_runs(raws: &[RunEvent]) -> Vec<u8> {
    let mut writer = SnapshotWriter::new(Vec::new(), 3, 0);
    let mut pc = 0x40_0000u64;
    let mut section = Section::Serial;
    for &(class_sel, step, len, taken, target, start) in raws {
        if start == 0 {
            section = match section {
                Section::Serial => Section::Parallel,
                Section::Parallel => Section::Serial,
            };
            writer.on_section_start(section);
        }
        if step % 13 == 0 {
            pc = pc.wrapping_add(step % 4096);
        }
        // One event in eight is a branch.
        let ev = build_event((
            u8::from(class_sel >= 56) * (class_sel % 8),
            pc,
            len,
            taken,
            target,
            false,
        ));
        writer.on_inst(&TraceEvent { section, ..ev });
        pc = ev.next_pc().as_u64();
    }
    writer.finish().expect("Vec sink cannot fail").0
}

/// One drawn event of a run-heavy stream: `(branch when 56 or more,
/// pc step, len, taken, target, section start when 0)`.
type RunEvent = (u8, u64, u8, bool, u64, u8);

fn run_events(max: usize) -> impl Strategy<Value = Vec<RunEvent>> {
    proptest::collection::vec(
        (
            0u8..64,
            any::<u64>(),
            1u8..=15,
            any::<bool>(),
            any::<u64>(),
            // A section start before one event in 32.
            0u8..32,
        ),
        0..max,
    )
}

/// What a branch-only tool reads of one batch: length, branch slice,
/// section starts and section counts.
type BranchRead = (usize, Vec<TraceEvent>, Vec<(u32, Section)>, BySection<u64>);

/// Every batch a branch-only tool was handed.
#[derive(Default, Debug, PartialEq)]
struct BranchLog(Vec<BranchRead>);

impl Pintool for BranchLog {
    fn on_inst(&mut self, _ev: &TraceEvent) {
        unreachable!("delivered in batches only");
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        self.0.push((
            batch.len(),
            batch.branch_events().to_vec(),
            batch.section_starts().to_vec(),
            batch.sections(),
        ));
    }

    fn need(&self) -> Need {
        Need::Branches
    }
}

/// What a run reader reads of one batch beyond the branch view: the
/// stream through `pieces`, runs expanded to `(pc, len, section)` per
/// instruction and section starts as `Err`.
type RunRead = Vec<Result<(u64, u8, Section), Section>>;

/// Every batch a run reader was handed.
#[derive(Default, Debug, PartialEq)]
struct RunLog(BranchLog, Vec<RunRead>);

impl Pintool for RunLog {
    fn on_inst(&mut self, _ev: &TraceEvent) {
        unreachable!("delivered in batches only");
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        self.0.on_batch(batch);
        let mut read = Vec::new();
        for piece in batch.pieces() {
            match piece {
                Piece::Start(section) => read.push(Err(section)),
                Piece::Branch(ev) => read.push(Ok((ev.pc.as_u64(), ev.len, ev.section))),
                Piece::Run(run) => {
                    let mut pc = run.pc.as_u64();
                    for &len in run.lens {
                        read.push(Ok((pc, len, run.section)));
                        pc = pc.wrapping_add(u64::from(len));
                    }
                }
            }
        }
        self.1.push(read);
    }
}

/// The stream a per-event decode delivers, as a [`RunLog`] reads it.
#[derive(Default)]
struct PerEventLog(RunRead);

impl Pintool for PerEventLog {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.0.push(Ok((ev.pc.as_u64(), ev.len, ev.section)));
    }

    fn on_section_start(&mut self, section: Section) {
        self.0.push(Err(section));
    }
}

/// Replays `bytes` into a [`BranchLog`] through branch-only batches and
/// into a [`RunLog`] through run batches at `capacity`, and per event,
/// and asserts both batch shapes delivered the same batches, the run
/// batches the per-event stream, and every replay ended as the
/// per-event decode ends (the same summary, or the same error at the
/// same byte). Returns that outcome.
fn assert_sinks_agree(bytes: &[u8], capacity: usize) -> Result<(), String> {
    let snapshot = Snapshot::parse(bytes).expect("sealed bytes parse");
    let mut branch_only = BranchLog::default();
    let fast = snapshot.replay_batched(&mut branch_only, capacity);
    let mut runs = RunLog::default();
    let by_runs = snapshot.replay_batched(&mut runs, capacity);
    assert_eq!(
        branch_only, runs.0,
        "capacity {capacity}: delivered batches"
    );
    let mut per_event = PerEventLog::default();
    let oracle = snapshot.replay_per_event(&mut per_event);
    assert_eq!(
        runs.1.concat(),
        per_event.0,
        "capacity {capacity}: delivered runs"
    );
    let expected = format!("{oracle:?}");
    for (sink, outcome) in [("branch-only", fast), ("run", by_runs)] {
        assert_eq!(
            format!("{outcome:?}"),
            expected,
            "capacity {capacity}: {sink} outcome"
        );
    }
    oracle.map(|_| ()).map_err(|e| format!("{e:?}"))
}

/// Re-seals `bytes` after `edit` changes its record region (header and
/// end tag/footer kept), so the checksum passes and the decoder meets
/// the damage.
fn reseal(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    const HEADER: usize = 24;
    const TAIL: usize = 1 + 48; // end tag + footer counters
    let sealed_end = bytes.len() - 8;
    let mut records = bytes[HEADER..sealed_end - TAIL].to_vec();
    edit(&mut records);
    let mut out = bytes[..HEADER].to_vec();
    out.extend_from_slice(&records);
    out.extend_from_slice(&bytes[sealed_end - TAIL..sealed_end]);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pristine, truncated anywhere, or with any record byte replaced:
    /// every sink delivers the same batches and ends with the same
    /// result at capacities 1, 3 and the default.
    #[test]
    fn branch_only_and_full_batches_agree_on_any_record_stream(
        raws in run_events(400),
        cut in any::<u64>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let bytes = encode_runs(&raws);
        let truncated = reseal(&bytes, |r| r.truncate((cut % (r.len() as u64 + 1)) as usize));
        let replaced = reseal(&bytes, |r| {
            if !r.is_empty() {
                let i = (at % r.len() as u64) as usize;
                r[i] = byte;
            }
        });
        for capacity in [1, 3, DEFAULT_BATCH_CAPACITY] {
            prop_assert_eq!(assert_sinks_agree(&bytes, capacity), Ok(()));
            assert_sinks_agree(&truncated, capacity).ok();
            assert_sinks_agree(&replaced, capacity).ok();
        }
    }
}

/// Damage at known places: a record cut short at the stream end, an
/// unknown tag in the middle of a sequential run, and a cut that drops
/// whole records; every sink reports the same typed error at the same
/// byte at capacities around the four-record skip.
#[test]
fn both_sinks_report_truncated_and_malformed_streams_at_the_same_byte() {
    // Branches only in the first half, so the last 150 records are all
    // two bytes long and sit at known offsets from the end.
    let raws: Vec<RunEvent> = (0..300u64)
        .map(|i| {
            let branch = i < 150 && i % 40 == 39;
            (
                u8::from(branch) * 57,
                1,
                4,
                i % 3 == 0,
                0x40,
                (i % 97) as u8,
            )
        })
        .collect();
    let bytes = encode_runs(&raws);
    let cut_byte = reseal(&bytes, |r| {
        r.pop();
    });
    let bad_tag = reseal(&bytes, |r| {
        let at = r.len() - 2 * 61;
        r[at] = 0x77;
    });
    let dropped = reseal(&bytes, |r| r.truncate(r.len() - 2 * 50));
    for (label, damaged, kind) in [
        ("cut byte", &cut_byte, "Truncated"),
        ("bad tag", &bad_tag, "Malformed"),
        ("dropped", &dropped, "CountMismatch"),
    ] {
        for capacity in [1, 3, 4, 5, 9, DEFAULT_BATCH_CAPACITY] {
            let err = assert_sinks_agree(damaged, capacity).expect_err(label);
            assert!(err.starts_with(kind), "{label}: {err}");
        }
    }
}

/// Counts events per interval from batch lengths alone, so a plan pass
/// over it runs through branch-only batches; its vectors are the
/// interval's branch share.
#[derive(Default)]
struct BranchShare {
    interval: u64,
    seen: u64,
    vectors: Vec<Vec<f64>>,
}

impl Pintool for BranchShare {
    fn on_inst(&mut self, _ev: &TraceEvent) {
        unreachable!("delivered in batches only");
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        // Credit whole batches to the interval they end in: coarse, but
        // a function of the batch edges alone.
        let end = self.seen + batch.len() as u64;
        let slot = (end.max(1) - 1) / self.interval;
        while self.vectors.len() as u64 <= slot {
            self.vectors.push(vec![0.0]);
        }
        self.vectors[slot as usize][0] += batch.branch_events().len() as f64;
        self.seen = end;
    }

    fn need(&self) -> Need {
        Need::Branches
    }
}

impl Fingerprinter for BranchShare {
    fn set_interval_insts(&mut self, insts: u64) {
        self.interval = insts;
    }

    fn finish(&mut self) -> Vec<Vec<f64>> {
        let mut vectors = std::mem::take(&mut self.vectors);
        let n = self.seen.div_ceil(self.interval).max(1) as usize;
        vectors.resize(n, vec![0.0]);
        vectors
    }
}

/// Forces run batches on a fingerprinter by keeping the default need,
/// every event.
struct ByRuns<F>(F);

impl<F: Fingerprinter> Pintool for ByRuns<F> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.0.on_inst(ev);
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        self.0.on_batch(batch);
    }
}

impl<F: Fingerprinter> Fingerprinter for ByRuns<F> {
    fn set_interval_insts(&mut self, insts: u64) {
        self.0.set_interval_insts(insts);
    }

    fn finish(&mut self) -> Vec<Vec<f64>> {
        self.0.finish()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A plan pass through branch-only batches records the cursor
    /// table (and so the plan) a pass through run batches records, on
    /// run-heavy streams whose interval marks fall inside skippable
    /// runs.
    #[test]
    fn a_branch_only_plan_pass_records_the_same_cursor_table(
        raws in run_events(600),
        intervals in 1usize..200,
        k in 1usize..8,
    ) {
        let bytes = encode_runs(&raws);
        let snapshot = Snapshot::parse(&bytes).expect("writer output parses");
        let total = snapshot.info().summary.instructions;
        prop_assume!(total > 0);
        let cfg = SamplingConfig::default()
            .with_intervals(intervals.min(total as usize))
            .with_k(k);
        let mut branch_only = BranchShare::default();
        prop_assert_eq!(branch_only.need(), Need::Branches);
        let fast = SamplePlan::from_snapshot(&snapshot, &mut branch_only, &cfg).expect("plan");
        let slow = SamplePlan::from_snapshot(&snapshot, &mut ByRuns(BranchShare::default()), &cfg)
            .expect("plan");
        prop_assert_eq!(fast, slow);
    }
}
