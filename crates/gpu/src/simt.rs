//! SIMT divergence handling: IPDOM stack and ITS multipath engines.
//!
//! Both engines consume the `SSY`/`SYNC` reconvergence markers the shader
//! translator emits around structured control flow:
//!
//! * **Stack** (baseline, paper §II-A): one runnable context; `SSY` pushes
//!   a join entry capturing the active mask; a divergent branch pushes the
//!   taken side as a split and continues on the fall-through side; `SYNC`
//!   pops — first the deferred splits, finally the join, reconverging all
//!   lanes. Only one warp split is schedulable at a time.
//! * **Multipath** (ITS, paper §IV-B): warp splits live in a table and are
//!   *all* schedulable; reconvergence is tracked in join entries keyed by
//!   the `SSY` point. This is what lets the two sides of a branch overlap
//!   long-latency `traverseAS` instructions.

/// A 32-lane activity mask.
pub type Mask = u32;

/// All 32 lanes active.
pub const FULL_MASK: Mask = u32::MAX;

/// What the executed instruction did to control flow, from the engine's
/// perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxOutcome {
    /// Straight-line instruction: advance pc.
    Fallthrough,
    /// A branch; `taken` is the subset of the context's lanes that take it.
    Branch {
        /// Branch target.
        target: u32,
        /// Lanes taking the branch.
        taken: Mask,
    },
    /// `SSY reconv`: push a reconvergence point.
    Ssy {
        /// The join pc (where the matching `SYNC` sits).
        reconv: u32,
    },
    /// `SYNC`: reconverge.
    Sync,
    /// Lanes executed `Exit`.
    Exit,
}

/// What [`SimtEngine::apply`] did to the warp's divergence state, for
/// observers (the tracing layer). Purely informational: engines behave
/// identically whether or not the caller looks at it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyInfo {
    /// The outcome split the context into two schedulable sides (stack:
    /// one deferred; multipath: both runnable).
    pub diverged: bool,
    /// The outcome merged lanes back together at a reconvergence point.
    pub reconverged: bool,
}

/// A runnable warp split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ctx {
    /// Stable context id (for per-context scheduling state).
    pub id: u32,
    /// Program counter.
    pub pc: u32,
    /// Active lanes.
    pub mask: Mask,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StackEntry {
    Join { pc: u32, mask: Mask },
    Split { pc: u32, mask: Mask },
}

/// IPDOM stack engine: exactly one runnable context.
#[derive(Clone, Debug)]
pub struct SimtStack {
    pc: u32,
    mask: Mask,
    stack: Vec<StackEntry>,
    exited: Mask,
}

impl SimtStack {
    fn new(mask: Mask) -> Self {
        SimtStack {
            pc: 0,
            mask,
            stack: Vec::new(),
            exited: 0,
        }
    }

    fn context(&self) -> Option<Ctx> {
        (self.mask != 0).then_some(Ctx {
            id: 0,
            pc: self.pc,
            mask: self.mask,
        })
    }

    fn apply(&mut self, outcome: CtxOutcome) -> ApplyInfo {
        let mut info = ApplyInfo::default();
        match outcome {
            CtxOutcome::Fallthrough => self.pc += 1,
            CtxOutcome::Ssy { reconv } => {
                self.stack.push(StackEntry::Join {
                    pc: reconv,
                    mask: self.mask,
                });
                self.pc += 1;
            }
            CtxOutcome::Branch { target, taken } => {
                let taken = taken & self.mask;
                let not_taken = self.mask & !taken;
                if taken == 0 {
                    self.pc += 1;
                } else if not_taken == 0 {
                    self.pc = target;
                } else {
                    // Defer the taken side; continue on fall-through.
                    self.stack.push(StackEntry::Split {
                        pc: target,
                        mask: taken,
                    });
                    self.mask = not_taken;
                    self.pc += 1;
                    info.diverged = true;
                }
            }
            CtxOutcome::Sync => match self.stack.pop() {
                Some(StackEntry::Split { pc, mask }) => {
                    // Current lanes park at the join (they are part of the
                    // join entry's mask); run the deferred split.
                    self.pc = pc;
                    self.mask = mask & !self.exited;
                    if self.mask == 0 {
                        self.unwind();
                    }
                }
                Some(StackEntry::Join { pc, mask }) => {
                    self.pc = pc + 1;
                    self.mask = mask & !self.exited;
                    info.reconverged = true;
                    if self.mask == 0 {
                        self.unwind();
                    }
                }
                None => self.pc += 1,
            },
            CtxOutcome::Exit => {
                self.exited |= self.mask;
                self.mask = 0;
                self.unwind();
            }
        }
        info
    }

    // Current mask is empty: resume from the stack.
    fn unwind(&mut self) {
        while self.mask == 0 {
            match self.stack.pop() {
                Some(StackEntry::Split { pc, mask }) => {
                    self.pc = pc;
                    self.mask = mask & !self.exited;
                }
                Some(StackEntry::Join { pc, mask }) => {
                    self.pc = pc + 1;
                    self.mask = mask & !self.exited;
                }
                None => return, // warp done
            }
        }
    }

    fn done(&self) -> bool {
        self.mask == 0 && self.stack.is_empty()
    }
}

vksim_snapshot::snap_enum!(StackEntry {
    0 => Join { pc, mask },
    1 => Split { pc, mask },
});

vksim_snapshot::snap_struct!(SimtStack {
    pc,
    mask,
    stack,
    exited
});

#[derive(Clone, Debug)]
struct JoinEntry {
    reconv: u32,
    expected: Mask,
    arrived: Mask,
    parent_joins: Vec<u32>,
    completed: bool,
}

#[derive(Clone, Debug)]
struct Split {
    id: u32,
    pc: u32,
    mask: Mask,
    joins: Vec<u32>,
}

/// ITS multipath engine: all warp splits are runnable; reconvergence is
/// tracked in a join table.
#[derive(Clone, Debug)]
pub struct Multipath {
    splits: Vec<Split>,
    joins: Vec<JoinEntry>,
    exited: Mask,
    next_id: u32,
}

impl Multipath {
    fn new(mask: Mask) -> Self {
        Multipath {
            splits: vec![Split {
                id: 0,
                pc: 0,
                mask,
                joins: Vec::new(),
            }],
            joins: Vec::new(),
            exited: 0,
            next_id: 1,
        }
    }

    fn split_index(&self, id: u32) -> Option<usize> {
        self.splits.iter().position(|s| s.id == id)
    }

    fn apply(&mut self, ctx_id: u32, outcome: CtxOutcome) -> ApplyInfo {
        let mut info = ApplyInfo::default();
        let Some(i) = self.split_index(ctx_id) else {
            return info;
        };
        match outcome {
            CtxOutcome::Fallthrough => self.splits[i].pc += 1,
            CtxOutcome::Ssy { reconv } => {
                let parent = self.splits[i].joins.clone();
                self.joins.push(JoinEntry {
                    reconv,
                    expected: self.splits[i].mask,
                    arrived: 0,
                    parent_joins: parent,
                    completed: false,
                });
                let jid = (self.joins.len() - 1) as u32;
                self.splits[i].joins.push(jid);
                self.splits[i].pc += 1;
            }
            CtxOutcome::Branch { target, taken } => {
                let mask = self.splits[i].mask;
                let taken = taken & mask;
                let not_taken = mask & !taken;
                if taken == 0 {
                    self.splits[i].pc += 1;
                } else if not_taken == 0 {
                    self.splits[i].pc = target;
                } else {
                    // True multipath: both sides become schedulable splits.
                    let joins = self.splits[i].joins.clone();
                    self.splits[i].mask = not_taken;
                    self.splits[i].pc += 1;
                    let id = self.next_id;
                    self.next_id += 1;
                    self.splits.push(Split {
                        id,
                        pc: target,
                        mask: taken,
                        joins,
                    });
                    info.diverged = true;
                }
            }
            CtxOutcome::Sync => {
                let split = self.splits.remove(i);
                match split.joins.last().copied() {
                    Some(jid) => {
                        self.joins[jid as usize].arrived |= split.mask;
                        info.reconverged = self.try_complete_join(jid);
                    }
                    None => {
                        // SYNC without SSY: resume past it.
                        let mut s = split;
                        s.pc += 1;
                        self.splits.push(s);
                    }
                }
            }
            CtxOutcome::Exit => {
                let split = self.splits.remove(i);
                self.exited |= split.mask;
                // Exited lanes will never arrive: re-check every join this
                // split was nested under.
                for jid in split.joins.iter().rev() {
                    self.try_complete_join(*jid);
                }
            }
        }
        info
    }

    fn try_complete_join(&mut self, jid: u32) -> bool {
        let j = &self.joins[jid as usize];
        if j.completed {
            return false;
        }
        let live_expected = j.expected & !self.exited;
        if j.arrived & live_expected != live_expected {
            return false;
        }
        let j = &mut self.joins[jid as usize];
        j.completed = true;
        let mask = j.arrived & !self.exited;
        let pc = j.reconv + 1;
        let joins = j.parent_joins.clone();
        if mask != 0 {
            let id = self.next_id;
            self.next_id += 1;
            self.splits.push(Split {
                id,
                pc,
                mask,
                joins,
            });
        } else if let Some(&parent) = joins.last() {
            // All lanes exited below this join: propagate completion upward.
            self.try_complete_join(parent);
        }
        true
    }

    fn done(&self) -> bool {
        self.splits.is_empty()
    }
}

vksim_snapshot::snap_struct!(Split {
    id,
    pc,
    mask,
    joins
});
vksim_snapshot::snap_struct!(JoinEntry {
    reconv,
    expected,
    arrived,
    parent_joins,
    completed
});
// Split and join table order is load-bearing (the scheduler walks the split
// Vec in order), so both are written as-is.
vksim_snapshot::snap_struct!(Multipath {
    splits,
    joins,
    exited,
    next_id
});

/// A warp's divergence engine: stack or multipath.
#[derive(Clone, Debug)]
pub enum SimtEngine {
    /// IPDOM stack (baseline).
    Stack(SimtStack),
    /// ITS multipath.
    Multipath(Multipath),
}

impl SimtEngine {
    /// Creates a stack engine with the given initial active mask.
    pub fn stack(mask: Mask) -> Self {
        SimtEngine::Stack(SimtStack::new(mask))
    }

    /// Creates a multipath engine with the given initial active mask.
    pub fn multipath(mask: Mask) -> Self {
        SimtEngine::Multipath(Multipath::new(mask))
    }

    /// All currently runnable contexts (stack mode: at most one), in
    /// split-table order. Borrows the engine; nothing is allocated.
    pub fn contexts(&self) -> impl Iterator<Item = Ctx> + '_ {
        let (stack, splits) = match self {
            SimtEngine::Stack(s) => (s.context(), &[][..]),
            SimtEngine::Multipath(m) => (None, &m.splits[..]),
        };
        stack.into_iter().chain(splits.iter().map(|s| Ctx {
            id: s.id,
            pc: s.pc,
            mask: s.mask,
        }))
    }

    /// The runnable context with this id, if it is still live.
    pub fn context(&self, id: u32) -> Option<Ctx> {
        self.contexts().find(|c| c.id == id)
    }

    /// Applies an executed instruction's control-flow outcome to context
    /// `ctx_id`. The returned [`ApplyInfo`] reports divergence and
    /// reconvergence edges for observers; it is safe to ignore.
    pub fn apply(&mut self, ctx_id: u32, outcome: CtxOutcome) -> ApplyInfo {
        match self {
            SimtEngine::Stack(s) => s.apply(outcome),
            SimtEngine::Multipath(m) => m.apply(ctx_id, outcome),
        }
    }

    /// `true` when every lane has exited.
    pub fn done(&self) -> bool {
        match self {
            SimtEngine::Stack(s) => s.done(),
            SimtEngine::Multipath(m) => m.done(),
        }
    }

    /// `true` while the warp is mid-divergence: a split or join is
    /// outstanding (stack: non-empty reconvergence stack; multipath:
    /// multiple live splits or an incomplete join). Purely observational
    /// — the cycle-accounting layer uses it to classify otherwise-idle
    /// cycles as divergence/reconvergence wait.
    pub fn mid_divergence(&self) -> bool {
        match self {
            SimtEngine::Stack(s) => !s.stack.is_empty(),
            SimtEngine::Multipath(m) => m.splits.len() > 1 || m.joins.iter().any(|j| !j.completed),
        }
    }
}

vksim_snapshot::snap_enum!(SimtEngine {
    0 => Stack(stack),
    1 => Multipath(engine),
});

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding of both engines and both stack entries, pinned.
    #[test]
    fn every_variant_layout_is_pinned() {
        let stack = SimtStack {
            pc: 3,
            mask: 0xf0,
            stack: vec![
                StackEntry::Join { pc: 9, mask: 0xff },
                StackEntry::Split { pc: 5, mask: 0x0f },
            ],
            exited: 0x100,
        };
        let engines = vec![SimtEngine::Stack(stack), SimtEngine::multipath(0xffff)];
        assert_eq!(
            vksim_snapshot::layout_pin(&engines),
            (0x9cb7_93e8_f120_9ca9, 92)
        );
    }

    /// The runnable contexts as a `Vec`, for indexing and counting.
    fn live(e: &SimtEngine) -> Vec<Ctx> {
        e.contexts().collect()
    }

    /// Drives an engine through an if/else pattern:
    /// ```text
    /// 0: ssy 5
    /// 1: bra 3 if lane-odd       (then = lanes even at 2, else at 3)
    /// 2: bra 5                   (then side jumps to sync)
    /// 3: nop                     (else side)
    /// 4: -                       (falls to 5)
    /// 5: sync
    /// 6: exit
    /// ```
    fn drive_if_else(engine: &mut SimtEngine) -> Vec<(u32, Mask)> {
        let mut visits = Vec::new();
        let mut guard = 0;
        while !engine.done() {
            guard += 1;
            assert!(guard < 100, "engine did not converge");
            let ctxs = live(engine);
            let Some(c) = ctxs.first().copied() else {
                break;
            };
            visits.push((c.pc, c.mask));
            let outcome = match c.pc {
                0 => CtxOutcome::Ssy { reconv: 5 },
                1 => CtxOutcome::Branch {
                    target: 3,
                    taken: 0xAAAA_AAAA & c.mask,
                },
                2 => CtxOutcome::Branch {
                    target: 5,
                    taken: c.mask,
                },
                3 => CtxOutcome::Fallthrough,
                4 => CtxOutcome::Fallthrough,
                5 => CtxOutcome::Sync,
                6 => CtxOutcome::Exit,
                other => panic!("unexpected pc {other}"),
            };
            engine.apply(c.id, outcome);
        }
        visits
    }

    #[test]
    fn stack_if_else_reconverges_full_mask() {
        let mut e = SimtEngine::stack(FULL_MASK);
        let visits = drive_if_else(&mut e);
        // The instruction after sync (pc 6) must run with the full mask.
        let at6: Vec<Mask> = visits
            .iter()
            .filter(|(pc, _)| *pc == 6)
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(at6, vec![FULL_MASK]);
        // Both sides executed with complementary masks.
        let at3: Mask = visits
            .iter()
            .filter(|(pc, _)| *pc == 3)
            .map(|&(_, m)| m)
            .sum();
        let at2: Mask = visits
            .iter()
            .filter(|(pc, _)| *pc == 2)
            .map(|&(_, m)| m)
            .sum();
        assert_eq!(at3 | at2, FULL_MASK);
        assert_eq!(at3 & at2, 0);
    }

    #[test]
    fn mid_divergence_tracks_split_lifetime() {
        for mut e in [SimtEngine::stack(0b1111), SimtEngine::multipath(0b1111)] {
            assert!(!e.mid_divergence(), "fresh warp is convergent");
            e.apply(0, CtxOutcome::Ssy { reconv: 4 });
            e.apply(
                0,
                CtxOutcome::Branch {
                    target: 3,
                    taken: 0b0011,
                },
            );
            assert!(e.mid_divergence(), "outstanding split/join");
            // Walk every context to the sync; after the final arrival the
            // warp is convergent again.
            let mut guard = 0;
            while e.mid_divergence() {
                guard += 1;
                assert!(guard < 50);
                let c = live(&e)[0];
                if c.pc == 4 {
                    e.apply(c.id, CtxOutcome::Sync);
                } else {
                    e.apply(
                        c.id,
                        CtxOutcome::Branch {
                            target: 4,
                            taken: c.mask,
                        },
                    );
                }
            }
            assert_eq!(live(&e)[0].mask, 0b1111);
        }
    }

    #[test]
    fn stack_uniform_branch_no_divergence() {
        let mut e = SimtEngine::stack(FULL_MASK);
        // pc0: ssy 3; pc1: branch all-taken to 3... then sync, exit.
        e.apply(0, CtxOutcome::Ssy { reconv: 3 });
        let c = live(&e)[0];
        assert_eq!(c.pc, 1);
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 3,
                taken: FULL_MASK,
            },
        );
        let c = live(&e)[0];
        assert_eq!(c.pc, 3);
        assert_eq!(c.mask, FULL_MASK);
        e.apply(0, CtxOutcome::Sync);
        assert_eq!(live(&e)[0].pc, 4);
        e.apply(0, CtxOutcome::Exit);
        assert!(e.done());
    }

    #[test]
    fn apply_info_reports_divergence_edges() {
        for mut e in [SimtEngine::stack(0b1111), SimtEngine::multipath(0b1111)] {
            assert_eq!(
                e.apply(0, CtxOutcome::Ssy { reconv: 4 }),
                ApplyInfo::default()
            );
            let info = e.apply(
                0,
                CtxOutcome::Branch {
                    target: 3,
                    taken: 0b0011,
                },
            );
            assert!(info.diverged && !info.reconverged);
            // Walk every context to the sync; the final arrival reconverges.
            let mut reconverged = 0;
            let mut guard = 0;
            while !e.done() && reconverged == 0 {
                guard += 1;
                assert!(guard < 50);
                let c = live(&e)[0];
                let info = match c.pc {
                    4 => e.apply(c.id, CtxOutcome::Sync),
                    _ => e.apply(
                        c.id,
                        CtxOutcome::Branch {
                            target: 4,
                            taken: c.mask,
                        },
                    ),
                };
                assert!(
                    !info.diverged,
                    "uniform branches must not report divergence"
                );
                if info.reconverged {
                    reconverged += 1;
                }
            }
            assert_eq!(reconverged, 1);
            assert_eq!(live(&e)[0].mask, 0b1111);
        }
    }

    #[test]
    fn stack_partial_exit_inside_divergence() {
        let mut e = SimtEngine::stack(0b1111);
        e.apply(0, CtxOutcome::Ssy { reconv: 10 });
        // Lanes 0,1 take the branch to 5 and exit there; lanes 2,3 fall
        // through and sync at 10.
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 5,
                taken: 0b0011,
            },
        );
        // Current = fall-through lanes 2,3 at pc 2.
        let c = live(&e)[0];
        assert_eq!((c.pc, c.mask), (2, 0b1100));
        // They run to the sync.
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 10,
                taken: c.mask,
            },
        );
        e.apply(0, CtxOutcome::Sync); // pops the split (lanes 0,1 at pc 5)
        let c = live(&e)[0];
        assert_eq!((c.pc, c.mask), (5, 0b0011));
        e.apply(0, CtxOutcome::Exit); // those lanes exit
                                      // Unwind pops the join; remaining lanes resume after the sync.
        let c = live(&e)[0];
        assert_eq!((c.pc, c.mask), (11, 0b1100));
        e.apply(0, CtxOutcome::Exit);
        assert!(e.done());
    }

    #[test]
    fn multipath_if_else_reconverges() {
        let mut e = SimtEngine::multipath(FULL_MASK);
        let visits = drive_if_else(&mut e);
        let at6: Vec<Mask> = visits
            .iter()
            .filter(|(pc, _)| *pc == 6)
            .map(|&(_, m)| m)
            .collect();
        assert_eq!(at6, vec![FULL_MASK]);
    }

    #[test]
    fn multipath_exposes_both_splits_simultaneously() {
        let mut e = SimtEngine::multipath(FULL_MASK);
        e.apply(0, CtxOutcome::Ssy { reconv: 9 });
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 5,
                taken: 0xFFFF,
            },
        );
        let ctxs = live(&e);
        assert_eq!(ctxs.len(), 2, "ITS: both sides schedulable");
        let masks: Mask = ctxs.iter().map(|c| c.mask).sum();
        assert_eq!(masks, FULL_MASK);
        // The stack engine in the same situation exposes only one.
        let mut s = SimtEngine::stack(FULL_MASK);
        s.apply(0, CtxOutcome::Ssy { reconv: 9 });
        s.apply(
            0,
            CtxOutcome::Branch {
                target: 5,
                taken: 0xFFFF,
            },
        );
        assert_eq!(live(&s).len(), 1);
    }

    #[test]
    fn multipath_join_waits_for_all_splits() {
        let mut e = SimtEngine::multipath(0b11);
        e.apply(0, CtxOutcome::Ssy { reconv: 4 });
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 3,
                taken: 0b01,
            },
        );
        let ctxs = live(&e);
        assert_eq!(ctxs.len(), 2);
        // First split syncs: join not yet complete.
        let first = ctxs[0];
        // walk it to pc4 then sync
        let mut c = first;
        while c.pc != 4 {
            e.apply(c.id, CtxOutcome::Fallthrough);
            c = e.context(c.id).unwrap();
        }
        e.apply(c.id, CtxOutcome::Sync);
        assert_eq!(live(&e).len(), 1, "other split still running");
        // Second split arrives.
        let mut c = live(&e)[0];
        while c.pc != 4 {
            e.apply(c.id, CtxOutcome::Fallthrough);
            c = e.context(c.id).unwrap();
        }
        e.apply(c.id, CtxOutcome::Sync);
        let merged = live(&e);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].mask, 0b11);
        assert_eq!(merged[0].pc, 5);
    }

    #[test]
    fn multipath_exit_releases_join() {
        let mut e = SimtEngine::multipath(0b11);
        e.apply(0, CtxOutcome::Ssy { reconv: 4 });
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 3,
                taken: 0b01,
            },
        );
        // Taken split exits instead of syncing.
        let taken = *live(&e).iter().find(|c| c.mask == 0b01).unwrap();
        e.apply(taken.id, CtxOutcome::Exit);
        // The other split syncs; join must complete with just its lanes.
        let other = *live(&e).iter().find(|c| c.mask == 0b10).unwrap();
        let mut c = other;
        while c.pc != 4 {
            e.apply(c.id, CtxOutcome::Fallthrough);
            c = e.context(c.id).unwrap();
        }
        e.apply(c.id, CtxOutcome::Sync);
        let merged = live(&e);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].mask, 0b10);
        e.apply(merged[0].id, CtxOutcome::Exit);
        assert!(e.done());
    }

    #[test]
    fn nested_divergence_stack() {
        // Outer if (lanes 0-1 vs 2-3), inner if inside then-side (lane 0 vs 1).
        let mut e = SimtEngine::stack(0b1111);
        e.apply(0, CtxOutcome::Ssy { reconv: 20 }); // outer join at 20
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 10,
                taken: 0b1100,
            },
        );
        // Current: lanes 0,1 at pc 2 (fall-through).
        assert_eq!(live(&e)[0].mask, 0b0011);
        e.apply(0, CtxOutcome::Ssy { reconv: 8 }); // inner join at 8
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 6,
                taken: 0b0001,
            },
        );
        assert_eq!(live(&e)[0].mask, 0b0010);
        // Fall-through lane reaches inner sync.
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 8,
                taken: 0b0010,
            },
        );
        e.apply(0, CtxOutcome::Sync); // pops inner split (lane 0 at 6)
        assert_eq!((live(&e)[0].pc, live(&e)[0].mask), (6, 0b0001));
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 8,
                taken: 0b0001,
            },
        );
        e.apply(0, CtxOutcome::Sync); // pops inner join -> lanes 0,1 at 9
        assert_eq!((live(&e)[0].pc, live(&e)[0].mask), (9, 0b0011));
        // They run to outer sync at 20.
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 20,
                taken: 0b0011,
            },
        );
        e.apply(0, CtxOutcome::Sync); // pops outer split (lanes 2,3 at 10)
        assert_eq!((live(&e)[0].pc, live(&e)[0].mask), (10, 0b1100));
        e.apply(
            0,
            CtxOutcome::Branch {
                target: 20,
                taken: 0b1100,
            },
        );
        e.apply(0, CtxOutcome::Sync); // pops outer join -> all lanes at 21
        assert_eq!((live(&e)[0].pc, live(&e)[0].mask), (21, 0b1111));
    }

    #[test]
    fn loop_divergence_converges() {
        // while-loop shape: ssy J; TOP: branch exiting lanes to J (sync);
        // body; bra TOP. Lanes exit the loop on different iterations.
        let mut e = SimtEngine::stack(0b111);
        e.apply(0, CtxOutcome::Ssy { reconv: 9 });
        let mut iterations = 0;
        loop {
            iterations += 1;
            assert!(iterations < 20);
            let c = live(&e)[0];
            if c.pc == 9 {
                e.apply(0, CtxOutcome::Sync);
                let c2 = live(&e);
                if c2.is_empty() || c2[0].pc == 10 {
                    break;
                }
                continue;
            }
            // pc1: loop-exit branch: lane i leaves on iteration i+1.
            let leaving = match iterations {
                i if i < 4 => 1u32 << (i - 1),
                _ => c.mask,
            } & c.mask;
            e.apply(
                0,
                CtxOutcome::Branch {
                    target: 9,
                    taken: leaving,
                },
            );
            let c = live(&e);
            if c.is_empty() {
                break;
            }
            if c[0].pc == 9 {
                continue;
            }
            // body at pc2 then back to pc1... model as single fallthrough
            // returning to the branch pc.
            e.apply(
                c[0].id,
                CtxOutcome::Branch {
                    target: 1,
                    taken: c[0].mask,
                },
            );
        }
        let c = live(&e);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].mask, 0b111, "all lanes reconverged after the loop");
        assert_eq!(c[0].pc, 10);
    }

    // -----------------------------------------------------------------
    // Property tests (vksim-testkit): random structured programs with
    // nested divergence must terminate, cover each instruction at most
    // once per lane, and behave identically on both engines.
    // -----------------------------------------------------------------

    mod properties {
        use super::*;
        use vksim_testkit::prop::{check, map, u32_in, u64_in};
        use vksim_testkit::{prop_assert_eq, Pcg32};

        /// A compiled structured program: straight-line code with nested
        /// if/else regions bracketed by `SSY`/`SYNC`, optional early exits
        /// on the taken side, and a terminal `Exit`.
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Instr {
            Ssy(u32),
            Bra { target: u32, taken: Mask },
            Nop,
            Sync,
            Exit,
        }

        /// Emits one block: optional nops around an optional nested
        /// if/else. Branch masks are random but static, so the lane
        /// partition (and therefore per-pc coverage) is schedule-free.
        fn gen_block(rng: &mut Pcg32, depth: u32, code: &mut Vec<Instr>) {
            for _ in 0..rng.u64_range(0, 2) {
                code.push(Instr::Nop);
            }
            if depth > 0 && rng.bool_with(0.85) {
                let ssy_at = code.len();
                code.push(Instr::Nop); // patched to Ssy below
                let bra_at = code.len();
                code.push(Instr::Nop); // patched to the divergent Bra
                gen_block(rng, depth - 1, code); // fall-through (else) side
                let jump_at = code.len();
                code.push(Instr::Nop); // patched to an unconditional Bra
                let then_start = code.len() as u32;
                gen_block(rng, depth - 1, code); // taken (then) side
                if rng.bool_with(0.15) {
                    code.push(Instr::Exit); // early exit under the join
                }
                let sync_at = code.len() as u32;
                code.push(Instr::Sync);
                code[ssy_at] = Instr::Ssy(sync_at);
                code[bra_at] = Instr::Bra {
                    target: then_start,
                    taken: rng.next_u32(),
                };
                code[jump_at] = Instr::Bra {
                    target: sync_at,
                    taken: FULL_MASK,
                };
            }
            for _ in 0..rng.u64_range(0, 2) {
                code.push(Instr::Nop);
            }
        }

        fn gen_program(seed: u64) -> Vec<Instr> {
            let mut rng = Pcg32::new(seed);
            let mut code = Vec::new();
            gen_block(&mut rng, 3, &mut code);
            code.push(Instr::Exit);
            code
        }

        /// Drives an engine to completion with a (seeded) random context
        /// schedule. Returns the per-pc executed-lane coverage, or an error
        /// if the engine ran away, left the program, or re-executed a pc on
        /// a lane.
        fn run_program(
            prog: &[Instr],
            mut engine: SimtEngine,
            sched_seed: u64,
        ) -> Result<Vec<Mask>, String> {
            let mut rng = Pcg32::new(sched_seed);
            let mut coverage = vec![0u32; prog.len()];
            let mut steps = 0u32;
            while !engine.done() {
                steps += 1;
                if steps > 10_000 {
                    return Err("engine did not terminate within 10k steps".into());
                }
                let ctxs = live(&engine);
                if ctxs.is_empty() {
                    return Err("no runnable context but engine not done".into());
                }
                let c = ctxs[rng.u64_below(ctxs.len() as u64) as usize];
                let pc = c.pc as usize;
                if pc >= prog.len() {
                    return Err(format!("pc {pc} escaped the program"));
                }
                if coverage[pc] & c.mask != 0 {
                    return Err(format!(
                        "lanes {:#010x} re-executed pc {pc}",
                        coverage[pc] & c.mask
                    ));
                }
                coverage[pc] |= c.mask;
                let outcome = match prog[pc] {
                    Instr::Nop => CtxOutcome::Fallthrough,
                    Instr::Ssy(reconv) => CtxOutcome::Ssy { reconv },
                    Instr::Bra { target, taken } => CtxOutcome::Branch {
                        target,
                        taken: taken & c.mask,
                    },
                    Instr::Sync => CtxOutcome::Sync,
                    Instr::Exit => CtxOutcome::Exit,
                };
                engine.apply(c.id, outcome);
            }
            Ok(coverage)
        }

        fn strategy() -> impl vksim_testkit::Strategy<Value = (u64, u32, u64)> {
            (
                u64_in(0, 1 << 48),                  // program seed
                map(u32_in(0, u32::MAX), |m| m | 1), // nonzero initial mask
                u64_in(0, 1 << 48),                  // multipath schedule seed
            )
        }

        /// Both engines terminate on arbitrary nested-divergence programs,
        /// every initial lane eventually exits, and no lane executes an
        /// instruction it does not own.
        #[test]
        fn random_nested_divergence_terminates_and_exits_all_lanes() {
            check(&strategy(), |&(prog_seed, init_mask, sched_seed)| {
                let prog = gen_program(prog_seed);
                for engine in [
                    SimtEngine::stack(init_mask),
                    SimtEngine::multipath(init_mask),
                ] {
                    let coverage = run_program(&prog, engine, sched_seed)?;
                    prop_assert_eq!(coverage[0], init_mask, "entry block runs all lanes");
                    let mut exited: Mask = 0;
                    for (pc, instr) in prog.iter().enumerate() {
                        prop_assert_eq!(
                            coverage[pc] & !init_mask,
                            0,
                            "phantom lanes at pc {pc}: {:#010x}",
                            coverage[pc]
                        );
                        if *instr == Instr::Exit {
                            exited |= coverage[pc];
                        }
                    }
                    prop_assert_eq!(exited, init_mask, "every lane must reach an Exit");
                }
                Ok(())
            });
        }

        /// The IPDOM stack and the ITS multipath engine are semantically
        /// equivalent on structured programs: identical per-pc lane
        /// coverage regardless of the multipath schedule.
        #[test]
        fn stack_and_multipath_agree_on_coverage() {
            check(&strategy(), |&(prog_seed, init_mask, sched_seed)| {
                let prog = gen_program(prog_seed);
                let stack = run_program(&prog, SimtEngine::stack(init_mask), 0)?;
                for schedule in [sched_seed, sched_seed ^ 0xDEAD_BEEF] {
                    let multi = run_program(&prog, SimtEngine::multipath(init_mask), schedule)?;
                    prop_assert_eq!(
                        &stack,
                        &multi,
                        "engines diverged (prog seed {prog_seed}, mask {init_mask:#010x}, \
                         schedule {schedule})\n  stack: {stack:?}\n  multi: {multi:?}"
                    );
                }
                Ok(())
            });
        }
    }
}
