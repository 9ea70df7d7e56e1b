//! The trace interpreter: walks the control-flow graph and streams
//! [`TraceEvent`]s to a [`Pintool`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng as _};
use rebalance_isa::{Addr, InstClass, Outcome};
use serde::{Deserialize, Serialize};

use crate::batch::{BranchSink, DirectSink, EventBatch, EventSink, RunSink};
use crate::event::{BranchEvent, TraceEvent};
use crate::observer::{Need, Pintool};
use crate::program::{BlockId, CondBehavior, IterCount, Program, Terminator};
use crate::section::Section;

/// Maximum call depth before the interpreter reports a synthesizer bug.
const MAX_CALL_DEPTH: usize = 4096;

/// Aggregate counters for one interpreter run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Instructions executed (and delivered to the tool).
    pub instructions: u64,
    /// Branch instructions among them.
    pub branches: u64,
    /// Taken branches among the branches.
    pub taken_branches: u64,
}

impl RunSummary {
    /// Merges another summary into this one.
    pub fn merge(&mut self, other: RunSummary) {
        self.instructions += other.instructions;
        self.branches += other.branches;
        self.taken_branches += other.taken_branches;
    }

    /// Branch instructions as a fraction of all instructions.
    pub fn branch_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }
}

/// Deterministic executor for a [`Program`].
///
/// The interpreter owns all dynamic state: the RNG (seeded once, so runs
/// are reproducible), the call stack, per-loop remaining-trip counters,
/// and per-branch periodic-pattern positions. State persists across
/// [`Interpreter::run`] calls, which is what lets a
/// [`Schedule`](crate::Schedule) alternate serial and parallel phases
/// without resetting loop progress.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    rng: SmallRng,
    call_stack: Vec<BlockId>,
    /// `Some(k)`: `k` more taken decisions before this loop branch falls
    /// through. `None`: the next encounter re-draws the trip count.
    loop_state: Vec<Option<u32>>,
    periodic_pos: Vec<u16>,
    /// Reusable batch buffer for standalone [`Interpreter::run`] calls.
    scratch: EventBatch,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with the given RNG seed.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        Interpreter {
            program,
            rng: SmallRng::seed_from_u64(seed),
            call_stack: Vec::new(),
            loop_state: vec![None; program.num_blocks()],
            periodic_pos: vec![0; program.num_blocks()],
            scratch: EventBatch::new(),
        }
    }

    /// Current call depth (number of pending returns).
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Executes up to `max_insts` instructions starting at `entry`,
    /// delivering every instruction to `tool` tagged with `section`.
    ///
    /// Delivery is block-at-a-time through a reusable internal
    /// [`EventBatch`] of the shape `tool` [`Pintool::need`]s (flushed
    /// before returning); tools that only implement
    /// [`Pintool::on_inst`] observe the identical per-event call
    /// sequence via the default [`Pintool::on_batch`].
    ///
    /// Reaching an [`Terminator::Exit`] block restarts execution at
    /// `entry` with a cleared call stack — modelling the application's
    /// outer time loop — so the requested instruction budget is always
    /// filled.
    ///
    /// # Panics
    ///
    /// Panics if the synthesized program recurses deeper than an internal
    /// limit (a synthesizer bug, not an input condition).
    pub fn run<T: Pintool + ?Sized>(
        &mut self,
        entry: BlockId,
        section: Section,
        max_insts: u64,
        tool: &mut T,
    ) -> RunSummary {
        let mut batch = std::mem::take(&mut self.scratch);
        if batch.holds() != tool.need() {
            batch = EventBatch::for_tool(batch.capacity(), tool);
        }
        let summary = self.run_batched(entry, section, max_insts, &mut batch, tool);
        batch.flush_into(tool);
        self.scratch = batch;
        summary
    }

    /// [`Interpreter::run`] emitting into a caller-owned batch: the
    /// batch is flushed into `tool` whenever it fills, and whatever
    /// remains buffered at return is **left in the batch**, so a
    /// [`Schedule`](crate::Schedule) can thread one buffer through many
    /// phases and let blocks span phase boundaries. The caller owns the
    /// final [`EventBatch::flush_into`]. Events go in the way the
    /// batch's shape takes them: a run batch extends its runs from the
    /// pushed plain events, a branch-only batch counts them.
    pub fn run_batched<T: Pintool + ?Sized>(
        &mut self,
        entry: BlockId,
        section: Section,
        max_insts: u64,
        batch: &mut EventBatch,
        tool: &mut T,
    ) -> RunSummary {
        match batch.holds() {
            Need::Events => self.run_core(entry, section, max_insts, &mut RunSink { batch, tool }),
            Need::Branches => {
                self.run_core(entry, section, max_insts, &mut BranchSink { batch, tool })
            }
        }
    }

    /// [`Interpreter::run`] with strict per-event delivery (one
    /// `on_inst` per instruction, no batching) — the pre-batching code
    /// path, kept as the baseline batched delivery is verified
    /// bit-identical against.
    pub fn run_per_event<T: Pintool + ?Sized>(
        &mut self,
        entry: BlockId,
        section: Section,
        max_insts: u64,
        tool: &mut T,
    ) -> RunSummary {
        self.run_core(entry, section, max_insts, &mut DirectSink(tool))
    }

    /// The CFG walk shared by both delivery modes.
    fn run_core<S: EventSink>(
        &mut self,
        entry: BlockId,
        section: Section,
        max_insts: u64,
        sink: &mut S,
    ) -> RunSummary {
        let mut summary = RunSummary::default();
        if max_insts == 0 {
            return summary;
        }
        sink.section_start(section);
        let mut current = entry;
        'outer: loop {
            let blk = &self.program.blocks[current.index()];
            let n_insts = blk.inst_offsets.len();
            let has_branch = blk.terminator.branch_kind().is_some();
            let body_n = if has_branch { n_insts - 1 } else { n_insts };

            // Straight-line body.
            for i in 0..body_n {
                if summary.instructions >= max_insts {
                    break 'outer;
                }
                let (off, len) = blk.inst_offsets[i];
                sink.event(TraceEvent {
                    pc: blk.start + u64::from(off),
                    len,
                    class: InstClass::Other,
                    branch: None,
                    section,
                });
                summary.instructions += 1;
            }

            // Terminator.
            match &blk.terminator {
                Terminator::FallThrough { next } => {
                    current = *next;
                }
                Terminator::Exit => {
                    self.call_stack.clear();
                    current = entry;
                    if summary.instructions >= max_insts {
                        break 'outer;
                    }
                }
                term => {
                    if summary.instructions >= max_insts {
                        break 'outer;
                    }
                    let (off, len) = blk.inst_offsets[n_insts - 1];
                    let pc = blk.start + u64::from(off);
                    let kind = term.branch_kind().expect("non-branch handled above");
                    let (outcome, target_block, target_addr, next) =
                        self.resolve_branch(current, term, entry);
                    sink.event(TraceEvent {
                        pc,
                        len,
                        class: InstClass::Branch(kind),
                        branch: Some(BranchEvent {
                            kind,
                            outcome,
                            target: target_addr,
                        }),
                        section,
                    });
                    summary.instructions += 1;
                    summary.branches += 1;
                    if outcome.is_taken() {
                        summary.taken_branches += 1;
                    }
                    let _ = target_block;
                    current = next;
                }
            }
        }
        summary
    }

    /// Decides a branch's outcome and successor. Returns
    /// `(outcome, taken_block, target_addr, next_block)`.
    fn resolve_branch(
        &mut self,
        at: BlockId,
        term: &Terminator,
        entry: BlockId,
    ) -> (Outcome, BlockId, Option<Addr>, BlockId) {
        match term {
            Terminator::Cond {
                taken,
                fall,
                behavior,
            } => {
                let take = self.decide_cond(at, behavior);
                let target_addr = Some(self.program.blocks[taken.index()].start);
                if take {
                    (Outcome::Taken, *taken, target_addr, *taken)
                } else {
                    (Outcome::NotTaken, *taken, target_addr, *fall)
                }
            }
            Terminator::Jump { target } => {
                let addr = Some(self.program.blocks[target.index()].start);
                (Outcome::Taken, *target, addr, *target)
            }
            Terminator::Call { callee, ret_to } => {
                assert!(
                    self.call_stack.len() < MAX_CALL_DEPTH,
                    "call depth exceeded {MAX_CALL_DEPTH}: runaway recursion in synthesized program"
                );
                self.call_stack.push(*ret_to);
                let addr = Some(self.program.blocks[callee.index()].start);
                (Outcome::Taken, *callee, addr, *callee)
            }
            Terminator::IndirectCall { callees, ret_to } => {
                assert!(
                    self.call_stack.len() < MAX_CALL_DEPTH,
                    "call depth exceeded {MAX_CALL_DEPTH}: runaway recursion in synthesized program"
                );
                let callee = callees[self.rng.gen_range(0..callees.len())];
                self.call_stack.push(*ret_to);
                let addr = Some(self.program.blocks[callee.index()].start);
                (Outcome::Taken, callee, addr, callee)
            }
            Terminator::IndirectJump { targets } => {
                let target = targets[self.rng.gen_range(0..targets.len())];
                let addr = Some(self.program.blocks[target.index()].start);
                (Outcome::Taken, target, addr, target)
            }
            Terminator::Return => {
                // An empty stack means the top-level function returned to
                // the driver: restart the phase at its entry.
                let target = self.call_stack.pop().unwrap_or(entry);
                let addr = Some(self.program.blocks[target.index()].start);
                (Outcome::Taken, target, addr, target)
            }
            Terminator::Syscall { next } => (Outcome::Taken, *next, None, *next),
            Terminator::FallThrough { .. } | Terminator::Exit => {
                unreachable!("not branch terminators")
            }
        }
    }

    fn decide_cond(&mut self, at: BlockId, behavior: &CondBehavior) -> bool {
        match behavior {
            CondBehavior::Bernoulli { p_taken } => self.rng.gen::<f64>() < *p_taken,
            CondBehavior::Loop { count } => {
                let state = &mut self.loop_state[at.index()];
                let k = match *state {
                    Some(k) => k,
                    None => {
                        let n = draw_iterations(&mut self.rng, count);
                        n - 1
                    }
                };
                if k > 0 {
                    *state = Some(k - 1);
                    true
                } else {
                    *state = None;
                    false
                }
            }
            CondBehavior::Periodic { taken, not_taken } => {
                let period = u32::from(*taken) + u32::from(*not_taken);
                debug_assert!(period > 0, "validated at build time");
                let pos = &mut self.periodic_pos[at.index()];
                let take = u32::from(*pos) < u32::from(*taken);
                *pos = ((u32::from(*pos) + 1) % period) as u16;
                take
            }
        }
    }
}

/// Draws a trip count (≥ 1) from an [`IterCount`] distribution.
fn draw_iterations<R: Rng>(rng: &mut R, count: &IterCount) -> u32 {
    match *count {
        IterCount::Fixed(n) => n,
        IterCount::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        IterCount::Geometric { mean } => {
            // Geometric on {1, 2, ...} with mean `mean`: success
            // probability p = 1/mean, inverse-transform sampled.
            let p = (1.0 / mean).clamp(1e-9, 1.0);
            let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
            let n = (u.ln() / (1.0 - p).ln()).floor() as u32 + 1;
            n.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::observer::{FnTool, NullTool};
    use crate::program::RegionId;

    /// body(7 insts) --loop(N)--> body ; exit(1 inst, Exit)
    fn loop_program(count: IterCount) -> (Program, BlockId) {
        let mut b = ProgramBuilder::new();
        let r = b.region("hot");
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.define_block(
            body,
            r,
            7,
            Terminator::Cond {
                taken: body,
                fall: exit,
                behavior: CondBehavior::Loop { count },
            },
        );
        b.define_block(exit, r, 1, Terminator::Exit);
        (b.build().unwrap(), body)
    }

    #[test]
    fn budget_is_exact() {
        let (p, entry) = loop_program(IterCount::Fixed(10));
        let mut tool = NullTool;
        let s = p
            .interpreter(1)
            .run(entry, Section::Parallel, 12_345, &mut tool);
        assert_eq!(s.instructions, 12_345);
    }

    #[test]
    fn zero_budget_is_noop() {
        let (p, entry) = loop_program(IterCount::Fixed(10));
        let mut tool = NullTool;
        let s = p.interpreter(1).run(entry, Section::Parallel, 0, &mut tool);
        assert_eq!(s, RunSummary::default());
    }

    #[test]
    fn fixed_loop_taken_rate_matches_trip_count() {
        // Trip count 10: the loop branch is taken 9 of every 10 times.
        let (p, entry) = loop_program(IterCount::Fixed(10));
        let mut tool = NullTool;
        let s = p
            .interpreter(7)
            .run(entry, Section::Parallel, 100_000, &mut tool);
        let rate = s.taken_branches as f64 / s.branches as f64;
        assert!(
            (rate - 0.9).abs() < 0.01,
            "taken rate {rate} should be ~0.9"
        );
    }

    #[test]
    fn events_have_correct_pcs_and_lengths() {
        let (p, entry) = loop_program(IterCount::Fixed(3));
        let mut pcs = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| pcs.push((ev.pc, ev.len, ev.class)));
        p.interpreter(3).run(entry, Section::Serial, 8, &mut tool);
        // First 7 body instructions then the loop branch.
        let blk = p.block(entry);
        for (i, &(pc, len, class)) in pcs.iter().enumerate() {
            let inst = blk.instruction(i);
            assert_eq!(pc, inst.addr);
            assert_eq!(len, inst.len);
            assert_eq!(class, inst.class);
        }
        assert!(pcs[7].2.is_branch());
    }

    #[test]
    fn branch_event_carries_static_target_even_when_not_taken() {
        let (p, entry) = loop_program(IterCount::Fixed(1)); // never taken
        let mut saw = None;
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if let Some(b) = ev.branch {
                saw = Some(b);
            }
        });
        p.interpreter(3).run(entry, Section::Serial, 8, &mut tool);
        let b = saw.expect("branch executed");
        assert_eq!(b.outcome, Outcome::NotTaken);
        assert_eq!(b.target, Some(p.block(entry).start()));
    }

    #[test]
    fn exit_restarts_at_entry() {
        let (p, entry) = loop_program(IterCount::Fixed(2));
        // Run long enough to pass through Exit several times.
        let mut first_pc = None;
        let mut restarts = 0u32;
        let start = p.block(entry).start();
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if first_pc.is_none() {
                first_pc = Some(ev.pc);
            } else if ev.pc == start {
                restarts += 1;
            }
        });
        p.interpreter(3)
            .run(entry, Section::Parallel, 10_000, &mut tool);
        assert_eq!(first_pc, Some(start));
        assert!(restarts > 10, "expected many restarts, saw {restarts}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let (p, entry) = loop_program(IterCount::Geometric { mean: 6.0 });
        let collect = |seed| {
            let mut evs = Vec::new();
            let mut tool = FnTool::new(|ev: &TraceEvent| evs.push(*ev));
            p.interpreter(seed)
                .run(entry, Section::Parallel, 5_000, &mut tool);
            evs
        };
        assert_eq!(collect(99), collect(99));
        assert_ne!(collect(99), collect(100));
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let lib = b.region("lib");
        let caller = b.reserve_block();
        let cont = b.reserve_block();
        let callee = b.reserve_block();
        b.define_block(
            caller,
            r,
            2,
            Terminator::Call {
                callee,
                ret_to: cont,
            },
        );
        b.define_block(cont, r, 2, Terminator::Exit);
        b.define_block(callee, lib, 5, Terminator::Return);
        let p = b.build().unwrap();
        let mut interp = p.interpreter(1);
        let mut kinds = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if let Some(br) = ev.branch {
                kinds.push((br.kind, br.outcome));
            }
        });
        let s = interp.run(caller, Section::Serial, 100, &mut tool);
        assert_eq!(s.instructions, 100);
        assert_eq!(interp.call_depth(), 0, "every call returned");
        use rebalance_isa::BranchKind;
        let calls = kinds.iter().filter(|(k, _)| *k == BranchKind::Call).count();
        let rets = kinds
            .iter()
            .filter(|(k, _)| *k == BranchKind::Return)
            .count();
        assert!(calls > 0);
        assert!((calls as i64 - rets as i64).abs() <= 1);
        assert!(kinds.iter().all(|(_, o)| o.is_taken()));
    }

    #[test]
    fn return_with_empty_stack_restarts_entry() {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let f = b.add_block(r, 3, Terminator::Return);
        let p = b.build().unwrap();
        let mut tool = NullTool;
        // Must not panic or loop without progress.
        let s = p.interpreter(1).run(f, Section::Serial, 1_000, &mut tool);
        assert_eq!(s.instructions, 1_000);
    }

    #[test]
    fn indirect_jump_visits_all_targets() {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let hub = b.reserve_block();
        let t1 = b.reserve_block();
        let t2 = b.reserve_block();
        let t3 = b.reserve_block();
        b.define_block(
            hub,
            r,
            1,
            Terminator::IndirectJump {
                targets: vec![t1, t2, t3],
            },
        );
        b.define_block(t1, r, 1, Terminator::Jump { target: hub });
        b.define_block(t2, r, 1, Terminator::Jump { target: hub });
        b.define_block(t3, r, 1, Terminator::Jump { target: hub });
        let p = b.build().unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if let Some(br) = ev.branch {
                if br.kind == rebalance_isa::BranchKind::IndirectBranch {
                    seen.insert(br.target.unwrap());
                }
            }
        });
        p.interpreter(5)
            .run(hub, Section::Parallel, 10_000, &mut tool);
        assert_eq!(seen.len(), 3, "all indirect targets should be visited");
    }

    #[test]
    fn syscall_has_no_target_and_is_taken() {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let a = b.reserve_block();
        let c = b.reserve_block();
        b.define_block(a, r, 1, Terminator::Syscall { next: c });
        b.define_block(c, r, 1, Terminator::Exit);
        let p = b.build().unwrap();
        let mut saw = None;
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if let Some(br) = ev.branch {
                saw = Some(br);
            }
        });
        p.interpreter(1).run(a, Section::Serial, 10, &mut tool);
        let br = saw.unwrap();
        assert_eq!(br.kind, rebalance_isa::BranchKind::Syscall);
        assert_eq!(br.target, None);
        assert!(br.outcome.is_taken());
    }

    #[test]
    fn periodic_behavior_follows_pattern() {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let head = b.reserve_block();
        let next = b.reserve_block();
        b.define_block(
            head,
            r,
            0,
            Terminator::Cond {
                taken: head,
                fall: next,
                behavior: CondBehavior::Periodic {
                    taken: 2,
                    not_taken: 1,
                },
            },
        );
        b.define_block(next, r, 1, Terminator::Jump { target: head });
        let p = b.build().unwrap();
        let mut outcomes = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| {
            if let Some(br) = ev.branch {
                if br.kind == rebalance_isa::BranchKind::CondDirect {
                    outcomes.push(br.outcome.is_taken());
                }
            }
        });
        p.interpreter(1).run(head, Section::Serial, 30, &mut tool);
        // Expect T, T, N, T, T, N, ...
        for (i, &o) in outcomes.iter().enumerate() {
            assert_eq!(o, i % 3 != 2, "position {i}");
        }
    }

    #[test]
    fn loop_state_persists_across_runs() {
        let (p, entry) = loop_program(IterCount::Fixed(1000));
        let mut interp = p.interpreter(1);
        let mut tool = NullTool;
        // Stop mid-loop...
        let s1 = interp.run(entry, Section::Serial, 100, &mut tool);
        // ...and continue: the loop must keep iterating, not re-draw.
        let s2 = interp.run(entry, Section::Parallel, 100, &mut tool);
        assert_eq!(s1.instructions + s2.instructions, 200);
        // With trip count 1000 and only ~25 iterations executed, no
        // fall-through can have happened: all branches taken.
        assert_eq!(s1.taken_branches, s1.branches);
        assert_eq!(s2.taken_branches, s2.branches);
    }

    #[test]
    fn geometric_draw_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mean_target = 8.0;
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| {
                u64::from(draw_iterations(
                    &mut rng,
                    &IterCount::Geometric { mean: mean_target },
                ))
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - mean_target).abs() < 0.3,
            "geometric mean {mean} should be near {mean_target}"
        );
    }

    #[test]
    fn uniform_draw_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let n = draw_iterations(&mut rng, &IterCount::Uniform { lo: 3, hi: 9 });
            assert!((3..=9).contains(&n));
        }
    }

    #[test]
    fn run_summary_merge() {
        let mut a = RunSummary {
            instructions: 10,
            branches: 2,
            taken_branches: 1,
        };
        a.merge(RunSummary {
            instructions: 5,
            branches: 3,
            taken_branches: 2,
        });
        assert_eq!(a.instructions, 15);
        assert_eq!(a.branches, 5);
        assert_eq!(a.taken_branches, 3);
        assert!((a.branch_ratio() - 5.0 / 15.0).abs() < 1e-12);
        assert_eq!(RunSummary::default().branch_ratio(), 0.0);
    }

    #[test]
    fn batched_run_matches_per_event_run_bit_identically() {
        let (p, entry) = loop_program(IterCount::Geometric { mean: 5.0 });
        let collect = |batched: Option<usize>| {
            let mut calls: Vec<Result<TraceEvent, Section>> = Vec::new();
            struct Rec<'a>(&'a mut Vec<Result<TraceEvent, Section>>);
            impl Pintool for Rec<'_> {
                fn on_inst(&mut self, ev: &TraceEvent) {
                    self.0.push(Ok(*ev));
                }
                fn on_section_start(&mut self, section: Section) {
                    self.0.push(Err(section));
                }
            }
            let mut interp = p.interpreter(13);
            let summary = match batched {
                None => interp.run_per_event(entry, Section::Parallel, 4_097, &mut Rec(&mut calls)),
                Some(cap) => {
                    let mut batch = EventBatch::with_capacity(cap);
                    let s = interp.run_batched(
                        entry,
                        Section::Parallel,
                        4_097,
                        &mut batch,
                        &mut Rec(&mut calls),
                    );
                    batch.flush_into(&mut Rec(&mut calls));
                    s
                }
            };
            (calls, summary)
        };
        let baseline = collect(None);
        for cap in [1usize, 7, 4096, 100_000] {
            assert_eq!(collect(Some(cap)), baseline, "capacity {cap}");
        }
        // The plain `run` front (internal scratch batch) matches too.
        let mut pcs = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| pcs.push(ev.pc));
        let s = p
            .interpreter(13)
            .run(entry, Section::Parallel, 4_097, &mut tool);
        assert_eq!(s, baseline.1);
        let expected: Vec<_> = baseline
            .0
            .iter()
            .filter_map(|c| c.as_ref().ok().map(|ev| ev.pc))
            .collect();
        assert_eq!(pcs, expected);
    }

    #[test]
    fn region_ids_in_blocks() {
        let (p, entry) = loop_program(IterCount::Fixed(4));
        assert_eq!(p.block(entry).region(), RegionId(0));
    }
}
