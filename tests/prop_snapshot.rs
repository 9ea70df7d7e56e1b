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
//!    with one flipped bit and regenerates it, with unchanged results.

use proptest::prelude::*;

use rebalance::isa::{Addr, InstClass, Outcome};
use rebalance::pintools::BbvTool;
use rebalance::trace::snapshot::{checksum, KIND_TABLE};
use rebalance::trace::{
    BranchEvent, CondBehavior, IterCount, Phase, Pintool, ProgramBuilder, SamplingConfig, Schedule,
    Section, Snapshot, SnapshotError, SnapshotWriter, SweepEngine, SyntheticTrace, Terminator,
    TraceCache, TraceEvent, TraceKey,
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
/// that owns the flipped field.
#[test]
fn every_single_bit_flip_of_small_snapshots_is_rejected() {
    let mut residues = [false; 8];
    // `sequential` 2-byte records and `jumps` 3-byte ones (a one-byte
    // pc delta) reach every length residue.
    for sequential in 0..4u64 {
        for jumps in 0..4u64 {
            let mut writer = SnapshotWriter::new(Vec::new(), 9, 0x5eed);
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
            Snapshot::parse(&bytes)
                .expect("pristine parse")
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
                    &key,
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
