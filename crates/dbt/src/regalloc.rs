//! Register allocation over the low-level IR.
//!
//! As in the paper (Section 2.3.3): a dead-code pass first marks
//! instructions whose results cannot be observed, a forward pass over the
//! surviving instructions discovers live ranges, and a linear scan assigns
//! host registers (splitting to spill slots when the pool is exhausted).
//! The algorithm favours speed over optimality — it is part of the
//! JIT-latency budget measured in Fig. 20.
//!
//! Dead-code marking is *iterative*: backward liveness over virtual
//! registers and host flags, run to a **fixpoint** over the unit's control
//! flow.  Each backward pass records the live set and flag demand at every
//! `Label`; jumps (`Jmp`, `Jcc`, and the looping regions' `BackEdge`) merge
//! their target label's recorded state into their own live-out.  For the
//! forward-only units plain blocks and stitched traces produce, one pass
//! suffices; for *looping* units (a region whose loop closed as an internal
//! back-edge) the passes repeat until the label states stop growing, so DCE
//! and flag-demand tracking fire inside loops exactly as they do in
//! straight-line code — a flag writer at the bottom of a loop body whose
//! only reader sits at the top of the next iteration is kept, and an unused
//! chain inside the body is swept whole.  When a consumer dies its producers
//! die with it, so the chains feeding regfile stores deleted by
//! [`crate::opt`] are removed too.  The states grow monotonically from
//! bottom (nothing live, no demand), so the iteration converges to the
//! least fixpoint — sound liveness for arbitrary intra-unit control flow.
//! The historical one-shot `use_count == 0` marking survives only as a
//! debug-build cross-check: everything it would kill, the fixpoint must
//! kill too.
//!
//! Loops also bend the *live ranges* the linear scan consumes: a virtual
//! register defined before a loop header and read inside the loop is live
//! across the back-edge on every iteration, so its range is extended to the
//! back-edge's position — otherwise the scan could hand its register to a
//! loop-local value whose linear range looks disjoint.
//!
//! Everything here is linear in the unit's length per fixpoint pass.  Vreg
//! and label ids are dense per unit (see the crate docs), so the live set is
//! a word bitset over vreg ids, each label's recorded state is one bitset
//! row, first/last occurrences are `Vec`s indexed by id, and the result,
//! [`Allocation::assignment`], is indexed by vreg id as well.

use crate::lir::{label_bound, vreg_bound, LirInsn, Vreg, VregClass, GPR_POOL};
use hvm::{Gpr, Xmm};

/// Vector registers available to the allocator (the top three are reserved
/// as spill scratch — `FpFma` can need reloads for all three of its
/// operands).
pub const XMM_POOL: [u8; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// Where a virtual register ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// A general-purpose host register.
    Gpr(Gpr),
    /// A vector host register.
    Xmm(Xmm),
    /// A spill slot (index into the per-block spill area addressed off the
    /// register-file base pointer).
    Spill(u32),
}

/// The result of register allocation for one block.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Assignment per virtual register, indexed by vreg id (`None` for ids
    /// that only dead instructions touch).
    pub assignment: Vec<Option<Assignment>>,
    /// `dead[i]` is true if LIR instruction `i` can be skipped by the encoder.
    pub dead: Vec<bool>,
    /// Number of spill slots used (GPR and XMM slots share the numbering).
    pub spill_slots: u32,
}

impl Allocation {
    /// Where `v` lives, if the allocator assigned it anything.
    pub fn get(&self, v: Vreg) -> Option<Assignment> {
        self.assignment.get(v.id as usize).copied().flatten()
    }
}

/// Live range of one virtual register (instruction indices, inclusive).
#[derive(Debug, Clone, Copy)]
struct Range {
    vreg: Vreg,
    start: usize,
    end: usize,
}

/// Sentinel for "no position" in the position tables below.
const NONE: usize = usize::MAX;

/// Per-label liveness states for the fixpoint: one live-vreg bitset row and
/// one flag-demand bit per label id, zero (nothing live, no demand) until a
/// backward pass reaches the label.  Rows grow monotonically across passes.
struct LabelStates {
    words: usize,
    live: Vec<u64>,
    flags: Vec<bool>,
    /// Whether some jump to the label sits at or after a place the label is
    /// bound: a backward pass reads that jump's state *before* recording
    /// the label, so only these labels carry state from one pass into the
    /// next.
    read_before_recorded: Vec<bool>,
}

impl LabelStates {
    fn row(&self, label: u32) -> &[u64] {
        let at = label as usize * self.words;
        &self.live[at..at + self.words]
    }
}

/// Iterative dead-code marking: backward liveness over virtual registers and
/// host flags, repeated to a fixpoint over the unit's labels.  See the
/// module docs for the rules.
fn mark_dead(lir: &[LirInsn], vregs: usize, labels: usize) -> Vec<bool> {
    let words = vregs.div_ceil(64);
    let (mut first_bound, mut last_jump) = (vec![NONE; labels], vec![None; labels]);
    for (i, insn) in lir.iter().enumerate() {
        match insn {
            LirInsn::Label { id } => first_bound[*id as usize] = first_bound[*id as usize].min(i),
            LirInsn::Jmp { label }
            | LirInsn::Jcc { label, .. }
            | LirInsn::BackEdge { label, .. } => last_jump[*label as usize] = Some(i),
            _ => {}
        }
    }
    let mut states = LabelStates {
        words,
        live: vec![0; labels * words],
        flags: vec![false; labels],
        read_before_recorded: first_bound
            .iter()
            .zip(&last_jump)
            .map(|(&bound, &jump)| jump.is_some_and(|j| bound <= j))
            .collect(),
    };
    let mut dead = vec![false; lir.len()];
    let mut live = vec![0u64; words];
    let contains = |set: &[u64], id: u32| set[id as usize / 64] & (1 << (id % 64)) != 0;
    loop {
        let mut changed = false;
        live.fill(0);
        // Whether some later kept instruction reads the host flags before a
        // kept writer overwrites them.
        let mut flags_demanded = false;
        for (i, insn) in lir.iter().enumerate().rev() {
            // Successor merge: control flow replaces or widens the linear
            // state.  Forward targets were recorded earlier in this pass;
            // backward targets (loop back-edges) carry the previous pass's
            // state, which is what the outer fixpoint loop converges.
            match insn {
                LirInsn::Jmp { label } => {
                    // The label is the sole successor.
                    live.copy_from_slice(states.row(*label));
                    flags_demanded = states.flags[*label as usize];
                }
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    // The machine *falls through* a yielding back-edge when
                    // `reconcile` is set (into the compensation block the
                    // promotion pass placed right after it), so that path is
                    // a second successor and its state — the carriers the
                    // compensation stores read — must stay live.
                    let row = states.row(*label);
                    let flags = states.flags[*label as usize];
                    if *reconcile {
                        live.iter_mut().zip(row).for_each(|(l, r)| *l |= r);
                        flags_demanded |= flags;
                    } else {
                        live.copy_from_slice(row);
                        flags_demanded = flags;
                    }
                }
                LirInsn::Jcc { label, .. } => {
                    // Successors: the fallthrough (current state) and the
                    // label.
                    let row = states.row(*label);
                    live.iter_mut().zip(row).for_each(|(l, r)| *l |= r);
                    flags_demanded |= states.flags[*label as usize];
                }
                LirInsn::Ret => {
                    // Nothing in this unit executes after a return to the
                    // dispatcher; host flags are not guest state.
                    live.fill(0);
                    flags_demanded = false;
                }
                _ => {}
            }
            let needed = match insn {
                // Unconditional effects: memory, PC, control flow, calls and
                // their argument setup, system operations, block structure.
                LirInsn::Store { .. }
                | LirInsn::StoreImm { .. }
                | LirInsn::StoreXmm { .. }
                | LirInsn::SetPcImm { .. }
                | LirInsn::SetPcReg { .. }
                | LirInsn::IncPc { .. }
                | LirInsn::SetArg { .. }
                | LirInsn::CallHelper { .. }
                | LirInsn::Int { .. }
                | LirInsn::Out { .. }
                | LirInsn::In { .. }
                | LirInsn::Syscall
                | LirInsn::TlbFlushAll
                | LirInsn::TlbFlushPcid
                | LirInsn::TraceEdge
                | LirInsn::BackEdge { .. }
                | LirInsn::Ret
                | LirInsn::Jmp { .. }
                | LirInsn::Jcc { .. }
                | LirInsn::Label { .. } => true,
                // Everything else lives only through its destination (or, for
                // flag writers, through an outstanding flag demand) — except
                // that a guest-memory *load* can fault, and the data abort is
                // guest-visible even when the loaded value is dead.
                _ => {
                    let def_live = insn.def().is_some_and(|d| contains(&live, d.id));
                    def_live || insn.may_fault() || (insn.writes_host_flags() && flags_demanded)
                }
            };
            if needed {
                insn.for_each_use(|u| live[u.id as usize / 64] |= 1 << (u.id % 64));
                // Backward flag bookkeeping: a kept writer satisfies later
                // demand; a kept reader creates demand for earlier writers.
                if insn.writes_host_flags() {
                    flags_demanded = false;
                }
                if insn.reads_host_flags() {
                    flags_demanded = true;
                }
            }
            dead[i] = !needed;
            if let LirInsn::Label { id } = insn {
                // Record the live-in of the label (grow-only merge).  Growth
                // at a label some jump read earlier in this pass means that
                // jump may see a wider state: another pass is required.
                // Every other jump to it is reached after this point, so
                // this pass already propagated the growth.
                let at = *id as usize * words;
                let mut grew = false;
                for (entry, l) in states.live[at..at + words].iter_mut().zip(&live) {
                    grew |= *l & !*entry != 0;
                    *entry |= l;
                }
                let entry = &mut states.flags[*id as usize];
                grew |= flags_demanded && !*entry;
                *entry |= flags_demanded;
                changed |= grew && states.read_before_recorded[*id as usize];
            }
        }
        if !changed {
            break;
        }
    }
    // Debug cross-check against the historical one-shot marking: a pure
    // instruction whose destination is read nowhere in the unit must be dead
    // under the fixpoint too (the fixpoint can only kill *more*).
    #[cfg(debug_assertions)]
    {
        let one_shot = mark_dead_one_shot(lir);
        for (i, insn) in lir.iter().enumerate() {
            debug_assert!(
                !one_shot[i] || dead[i],
                "fixpoint liveness kept an instruction one-shot marking kills: {insn:?}"
            );
        }
    }
    dead
}

/// Conservative host-flag liveness for the idiom recognizer: `out[i]` is
/// `true` when some instruction that may execute after instruction `i`
/// reads the host flags (`SetCc`/`CmovCc`/`Jcc`) before any instruction
/// overwrites them.  The bookkeeping mirrors [`mark_dead`]'s flag demand
/// exactly — `Jmp` replaces the linear state with its target label's,
/// `BackEdge` does too (unioning when `reconcile` falls through into a
/// compensation block), `Jcc` unions, `Ret` clears — but every instruction
/// is treated as *kept*, so the answer is sound against any subsequent
/// dead-code outcome: a fusion site where `out[jcc]` is `false` can
/// clobber the flags freely, no matter what the allocator later sweeps.
pub fn host_flags_live_after(lir: &[LirInsn]) -> Vec<bool> {
    let mut label_flags = vec![false; label_bound(lir)];
    let mut out = vec![false; lir.len()];
    loop {
        let mut changed = false;
        let mut flags = false;
        for (i, insn) in lir.iter().enumerate().rev() {
            match insn {
                LirInsn::Jmp { label } => {
                    flags = label_flags[*label as usize];
                }
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    let s = label_flags[*label as usize];
                    if *reconcile {
                        flags |= s;
                    } else {
                        flags = s;
                    }
                }
                LirInsn::Jcc { label, .. } => {
                    flags |= label_flags[*label as usize];
                }
                LirInsn::Ret => flags = false,
                _ => {}
            }
            out[i] = flags;
            if insn.writes_host_flags() {
                flags = false;
            }
            if insn.reads_host_flags() {
                flags = true;
            }
            if let LirInsn::Label { id } = insn {
                let e = &mut label_flags[*id as usize];
                if flags && !*e {
                    *e = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

/// The original one-shot marking: pure instructions whose destination is
/// never read anywhere in the unit.  Kept only as a debug-build cross-check
/// for the fixpoint pass (its kill set must be a subset of the fixpoint's).
#[cfg(debug_assertions)]
fn mark_dead_one_shot(lir: &[LirInsn]) -> Vec<bool> {
    let mut use_count = vec![0u32; vreg_bound(lir)];
    for insn in lir {
        insn.for_each_use(|v| use_count[v.id as usize] += 1);
    }
    let mut dead = vec![false; lir.len()];
    for (i, insn) in lir.iter().enumerate() {
        if insn.has_side_effect() {
            continue;
        }
        if let Some(d) = insn.def() {
            if use_count[d.id as usize] == 0 {
                dead[i] = true;
            }
        }
    }
    dead
}

/// Runs liveness analysis, dead-code marking and linear-scan assignment.
pub fn allocate(lir: &[LirInsn]) -> Allocation {
    let (vregs, labels) = (vreg_bound(lir), label_bound(lir));
    let dead = mark_dead(lir, vregs, labels);

    // Forward pass over the *surviving* instructions: first and last
    // occurrence of every vreg.  Occurrence tables note both uses and defs
    // at the same index; a def-after-use instruction (the two-address forms,
    // where `dst` is read and written by one instruction) therefore keeps
    // every operand live *through* that index, and the linear scan below
    // only reuses a register for a range starting strictly after another
    // ends (`end < start`, not `end <= start`) — so the operands of a
    // def-after-use instruction can never share a register.
    let mut first: Vec<Option<(Vreg, usize)>> = vec![None; vregs];
    let mut last: Vec<usize> = vec![NONE; vregs];
    for (i, insn) in lir.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let mut occurs = |v: Vreg| {
            first[v.id as usize].get_or_insert((v, i));
            last[v.id as usize] = i;
        };
        insn.for_each_use(&mut occurs);
        if let Some(d) = insn.def() {
            occurs(d);
        }
    }

    // Loop-carried ranges: a vreg defined before a backward jump's target
    // label and still read at or after it is re-read on *every* iteration,
    // so its range must cover the whole loop — otherwise the linear scan
    // could hand its register to a loop-local value whose (linear) range
    // looks disjoint, clobbering the loop-carried value between iterations.
    let mut label_pos = vec![NONE; labels];
    for (i, insn) in lir.iter().enumerate() {
        if let (false, LirInsn::Label { id }) = (dead[i], insn) {
            label_pos[*id as usize] = i;
        }
    }
    let mut back_jumps: Vec<(usize, usize)> = Vec::new(); // (header pos, jump pos)
    for (j, insn) in lir.iter().enumerate() {
        if dead[j] {
            continue;
        }
        let label = match insn {
            LirInsn::Jmp { label } | LirInsn::Jcc { label, .. } => *label,
            LirInsn::BackEdge { label, .. } => *label,
            _ => continue,
        };
        let p = label_pos[label as usize];
        if p <= j {
            back_jumps.push((p, j));
        }
    }
    // Extension can cascade through nested loops; iterate each range until
    // stable (ranges extend independently of one another).
    if !back_jumps.is_empty() {
        for (f, end) in first.iter().zip(last.iter_mut()) {
            let Some((_, start)) = *f else { continue };
            let mut extended = true;
            while extended {
                extended = false;
                for &(p, j) in &back_jumps {
                    if start < p && *end >= p && *end < j {
                        *end = j;
                        extended = true;
                    }
                }
            }
        }
    }

    // Build live ranges (vregs touched only by dead instructions have no
    // occurrences and get no range), in (start, id) order.
    let mut ranges: Vec<Range> = first
        .iter()
        .zip(&last)
        .filter_map(|(f, &end)| f.map(|(vreg, start)| Range { vreg, start, end }))
        .collect();
    ranges.sort_unstable_by_key(|r| (r.start, r.vreg.id));

    // Linear scan, one pool per register class.
    let mut assignment = vec![None; vregs];
    let mut active_gpr: Vec<(usize, Gpr)> = Vec::new(); // (end, reg)
    let mut active_xmm: Vec<(usize, Xmm)> = Vec::new();
    let mut free_gpr: Vec<Gpr> = GPR_POOL.to_vec();
    let mut free_xmm: Vec<Xmm> = XMM_POOL.iter().rev().map(|&i| Xmm(i)).collect();
    let mut spill_slots = 0u32;
    // Earliest end among the active ranges: expiry only has work to do once
    // a range starts past it.
    let mut min_end = NONE;

    for r in &ranges {
        // Expire ranges that ended strictly before this one starts (a range
        // ending *at* this index may be a same-instruction operand of a
        // def-after-use form and must keep its register).
        if min_end < r.start {
            active_gpr.retain(|&(end, reg)| {
                if end < r.start {
                    free_gpr.push(reg);
                    false
                } else {
                    true
                }
            });
            active_xmm.retain(|&(end, reg)| {
                if end < r.start {
                    free_xmm.push(reg);
                    false
                } else {
                    true
                }
            });
            min_end = active_gpr
                .iter()
                .map(|a| a.0)
                .chain(active_xmm.iter().map(|a| a.0))
                .min()
                .unwrap_or(NONE);
        }
        let slot = &mut assignment[r.vreg.id as usize];
        match r.vreg.class {
            VregClass::Gpr => {
                if let Some(reg) = free_gpr.pop() {
                    *slot = Some(Assignment::Gpr(reg));
                    active_gpr.push((r.end, reg));
                    min_end = min_end.min(r.end);
                } else {
                    *slot = Some(Assignment::Spill(spill_slots));
                    spill_slots += 1;
                }
            }
            VregClass::Xmm => {
                if let Some(reg) = free_xmm.pop() {
                    *slot = Some(Assignment::Xmm(reg));
                    active_xmm.push((r.end, reg));
                    min_end = min_end.min(r.end);
                } else {
                    *slot = Some(Assignment::Spill(spill_slots));
                    spill_slots += 1;
                }
            }
        }
    }

    Allocation {
        assignment,
        dead,
        spill_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lir::{LirMem, LirOperand};
    use hvm::{AluOp, Cond, MemSize};

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    #[test]
    fn faulting_loads_survive_dce_with_dead_destinations() {
        // The exact shape `dbt::opt` produces after dead-store elimination:
        // a guest-memory load whose destination is never read (the regfile
        // store of it died under a covering store).  The load can still
        // fault — deleting it would elide a guest-visible data abort.
        let lir = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::vreg(v(1), 0), // computed address: can fault
                size: MemSize::U64,
            },
            LirInsn::StoreImm {
                imm: 5,
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(
            !alloc.dead[0],
            "a guest-memory load with a dead destination must survive"
        );
        // A fixed regfile load with a dead destination is still removable.
        let lir2 = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(16),
                size: MemSize::U64,
            },
            LirInsn::StoreImm {
                imm: 5,
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc2 = allocate(&lir2);
        assert!(alloc2.dead[0], "regfile loads cannot fault and may die");
    }

    #[test]
    fn simple_block_gets_registers_without_spills() {
        let lir = vec![
            LirInsn::Load {
                dst: v(0),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Load {
                dst: v(1),
                addr: LirMem::regfile(0x108),
                size: MemSize::U64,
            },
            LirInsn::MovReg {
                dst: v(2),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(2),
                src: LirOperand::Vreg(v(1)),
            },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0);
        for id in 0..3 {
            assert!(matches!(alloc.get(v(id)), Some(Assignment::Gpr(_))));
        }
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn unused_pure_results_are_marked_dead() {
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovImm { dst: v(1), imm: 2 },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead[0], "v0 is never used, the MovImm is dead");
        assert!(!alloc.dead[1]);
        assert!(!alloc.dead[2]);
    }

    #[test]
    fn iterative_dce_sweeps_whole_value_chains() {
        // v0 feeds v1 feeds nothing: the chain dies from consumer to
        // producer, including the flag-writing ALU op (no reader demands the
        // flags before the return).
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::Alu {
                op: AluOp::Add,
                dst: v(1),
                src: LirOperand::Imm(3),
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(alloc.dead, vec![true, true, true, false]);
        assert!(
            alloc.assignment.iter().all(Option::is_none),
            "dead chains claim no registers"
        );
    }

    #[test]
    fn nzcv_chain_dies_when_its_store_was_eliminated() {
        // The shape set_nzcv_logic leaves behind once dbt::opt has deleted
        // the covered store: compare + setcc + shift/or chain with no
        // consumer.  Everything must be swept.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(1),
            },
            LirInsn::MovReg {
                dst: v(2),
                src: v(1),
            },
            LirInsn::Alu {
                op: AluOp::Shl,
                dst: v(2),
                src: LirOperand::Imm(2),
            },
            LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(!alloc.dead[0], "v0 still feeds the store");
        assert!(alloc.dead[1], "unread Cmp dies");
        assert!(alloc.dead[2], "SetCc with a dead destination dies");
        assert!(alloc.dead[3] && alloc.dead[4], "the shift chain dies");
        assert!(!alloc.dead[5] && !alloc.dead[6]);
    }

    #[test]
    fn demanded_flags_keep_their_writer_alive() {
        // The Cmp's destination-free flags are read by a Jcc: it must stay,
        // and so must its operand chain.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::Jcc {
                cond: Cond::Eq,
                label: 0,
            },
            LirInsn::SetPcImm { imm: 0x1000 },
            LirInsn::Label { id: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn flag_demand_is_conservative_at_labels() {
        // A flag writer just before a label join: a reader could be reached
        // through the join, so the writer must survive even with no linear
        // reader between.
        let lir = vec![
            LirInsn::MovImm { dst: v(0), imm: 7 },
            LirInsn::Test {
                a: v(0),
                b: LirOperand::Vreg(v(0)),
            },
            LirInsn::Label { id: 0 },
            LirInsn::SetCc {
                cond: Cond::Ne,
                dst: v(1),
            },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(alloc.dead.iter().all(|d| !d));
    }

    #[test]
    fn backward_jumps_get_fixpoint_dce() {
        // A looping unit (backward Jmp) no longer falls back to one-shot
        // marking: the whole dead chain is swept, including the chain head
        // whose only "use" sits in another dead instruction (one-shot
        // marking counted that use and kept it).
        let lir = vec![
            LirInsn::Label { id: 0 },
            LirInsn::MovImm { dst: v(0), imm: 1 },
            LirInsn::MovReg {
                dst: v(1),
                src: v(0),
            },
            LirInsn::MovImm { dst: v(2), imm: 2 },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            },
            LirInsn::Jmp { label: 0 },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert_eq!(
            alloc.dead,
            vec![false, true, true, false, false, false, false],
            "DCE fires inside looping units and sweeps whole chains"
        );
        assert!(alloc.get(v(0)).is_none());
        assert!(alloc.get(v(1)).is_none());
    }

    #[test]
    fn flag_demand_crosses_the_back_edge() {
        // A flag writer at the bottom of a loop body whose only reader sits
        // at the *top* of the next iteration: the demand flows through the
        // BackEdge to the loop-header label, so the Cmp must survive.
        let lir = vec![
            LirInsn::Label { id: 0 },
            LirInsn::SetCc {
                cond: Cond::Eq,
                dst: v(1),
            },
            LirInsn::Store {
                src: v(1),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::MovImm { dst: v(0), imm: 3 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
                weight: 1,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(
            alloc.dead.iter().all(|d| !d),
            "the cross-iteration flag chain must stay alive: {:?}",
            alloc.dead
        );

        // Same loop, but nothing ever reads the flags: the Cmp (and its
        // operand chain) dies even in a looping unit.
        let lir2 = vec![
            LirInsn::Label { id: 0 },
            LirInsn::MovImm { dst: v(2), imm: 7 },
            LirInsn::Store {
                src: v(2),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            },
            LirInsn::MovImm { dst: v(0), imm: 3 },
            LirInsn::Cmp {
                a: v(0),
                b: LirOperand::Imm(0),
            },
            LirInsn::BackEdge {
                pc: 0x1000,
                label: 0,
                reconcile: false,
                weight: 1,
            },
            LirInsn::Ret,
        ];
        let alloc2 = allocate(&lir2);
        assert!(alloc2.dead[4], "an unread Cmp dies inside a loop");
        assert!(alloc2.dead[3], "its operand chain dies with it");
    }

    #[test]
    fn loop_carried_ranges_extend_across_the_back_edge() {
        // v0 is defined before the loop and read inside it on every
        // iteration; the loop-local v1 is defined and stored after v0's last
        // (linear) use.  Without range extension the scan would let v1 steal
        // v0's register and clobber it between iterations.
        let n = GPR_POOL.len() as u32;
        let mut lir = Vec::new();
        lir.push(LirInsn::MovImm { dst: v(0), imm: 7 });
        lir.push(LirInsn::Label { id: 0 });
        lir.push(LirInsn::Store {
            src: v(0),
            addr: LirMem::regfile(0),
            size: MemSize::U64,
        });
        // Saturate the pool inside the loop so reuse pressure is real.
        for i in 1..=n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::BackEdge {
            pc: 0x1000,
            label: 0,
            reconcile: false,
            weight: 1,
        });
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        let a0 = alloc.get(v(0));
        for i in 1..=n {
            assert_ne!(
                alloc.get(v(i)),
                a0,
                "loop-local v{i} must not reuse the loop-carried register"
            );
        }
    }

    #[test]
    fn def_after_use_at_range_boundaries_never_shares_registers() {
        // Audit for the first/last-occurrence maps: saturate the GPR pool,
        // then define a new vreg with a MovReg whose source's live range
        // ends at that same index.  Treating the source's range as open at
        // its end (`end <= start` expiry) would hand the destination the
        // source's register — for the two-address forms that follow such a
        // move, that reads a clobbered value.  The allocator must keep them
        // apart (here: the newcomer spills, since the pool is full).
        let n = GPR_POOL.len() as u32;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        // v0's last occurrence: the same index where v_n is defined.
        lir.push(LirInsn::MovReg {
            dst: v(n),
            src: v(0),
        });
        // Keep everything live to the end.
        for i in 1..=n {
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_ne!(
            alloc.get(v(n)),
            alloc.get(v(0)),
            "a def at its source's last index must not steal the register"
        );
        assert!(matches!(alloc.get(v(n)), Some(Assignment::Spill(_))));
    }

    #[test]
    fn register_reuse_after_range_ends() {
        // Many short-lived vregs must fit in the pool by reuse.
        let mut lir = Vec::new();
        for i in 0..50u32 {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0, "short ranges should all fit");
    }

    #[test]
    fn long_overlapping_ranges_spill() {
        // More simultaneously-live vregs than the pool size forces spills.
        let n = GPR_POOL.len() as u32 + 4;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::Store {
                src: v(i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert!(alloc.spill_slots >= 4);
        let spilled = alloc
            .assignment
            .iter()
            .flatten()
            .filter(|a| matches!(a, Assignment::Spill(_)))
            .count();
        assert_eq!(spilled as u32, alloc.spill_slots);
    }

    #[test]
    fn dead_chains_free_registers_for_live_ranges() {
        // Pool-sized dead chain plus a pool-sized live set: with iterative
        // DCE the dead vregs claim no registers, so nothing spills.
        let n = GPR_POOL.len() as u32;
        let mut lir = Vec::new();
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::MovImm {
                dst: v(n + i),
                imm: i as u64,
            });
        }
        for i in 0..n {
            lir.push(LirInsn::Store {
                src: v(n + i),
                addr: LirMem::regfile((i * 8) as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        let alloc = allocate(&lir);
        assert_eq!(alloc.spill_slots, 0, "dead ranges must not cause spills");
        for i in 0..n {
            assert!(alloc.dead[i as usize]);
            assert!(alloc.get(v(i)).is_none());
        }
    }

    #[test]
    fn xmm_class_uses_vector_registers() {
        let xv = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let lir = vec![
            LirInsn::LoadXmm {
                dst: xv(0),
                addr: LirMem::regfile(0x110),
                size: MemSize::U64,
            },
            LirInsn::StoreXmm {
                src: xv(0),
                addr: LirMem::regfile(0x100),
                size: MemSize::U64,
            },
            LirInsn::Ret,
        ];
        let alloc = allocate(&lir);
        assert!(matches!(alloc.get(xv(0)), Some(Assignment::Xmm(_))));
    }

    /// Builds an emitter-shaped looping unit from random choices: a
    /// preheader defining `globals` values (read anywhere, redefined in
    /// place inside the loop, so some are loop-carried), a loop body of
    /// straight-line segments separated by labels that forward `Jcc`/`Jmp`s
    /// target (segment-local values are only read before the next label,
    /// as the emitter's are), side exits to stubs after the back-edge, and a
    /// `BackEdge` to the header.  Every use is dominated by a definition.
    fn random_loop_unit(globals: u32, reconcile: bool, ops: &[(u8, u8, u8)]) -> Vec<LirInsn> {
        let xv = |id| Vreg {
            id,
            class: VregClass::Xmm,
        };
        let mut lir = Vec::new();
        for g in 0..globals {
            lir.push(LirInsn::Load {
                dst: v(g),
                addr: LirMem::regfile(8 * g as i32),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Label { id: 0 });
        let mut next_vreg = globals;
        let mut next_label = 1u32;
        let mut locals: Vec<u32> = Vec::new();
        let mut pending: Vec<u32> = Vec::new(); // forward labels not yet bound
        let mut stubs: Vec<u32> = Vec::new();
        for &(kind, a, b) in ops {
            // Operand choices: any global, or a live segment-local.
            let pick = |k: u8, locals: &[u32]| -> u32 {
                let n = globals as usize + locals.len();
                let k = k as usize % n;
                if k < globals as usize {
                    k as u32
                } else {
                    locals[k - globals as usize]
                }
            };
            let (x, y) = (pick(a, &locals), pick(b, &locals));
            match kind {
                0 => {
                    lir.push(LirInsn::MovImm {
                        dst: v(next_vreg),
                        imm: b as u64,
                    });
                    locals.push(next_vreg);
                    next_vreg += 1;
                }
                1 => {
                    lir.push(LirInsn::MovReg {
                        dst: v(next_vreg),
                        src: v(x),
                    });
                    locals.push(next_vreg);
                    next_vreg += 1;
                }
                2 | 3 => lir.push(LirInsn::Alu {
                    op: if kind == 2 { AluOp::Add } else { AluOp::Xor },
                    dst: v(x),
                    src: LirOperand::Vreg(v(y)),
                }),
                4 => lir.push(LirInsn::Store {
                    src: v(x),
                    addr: LirMem::regfile(8 * (b % 16) as i32),
                    size: MemSize::U64,
                }),
                5 => lir.push(LirInsn::Cmp {
                    a: v(x),
                    b: LirOperand::Vreg(v(y)),
                }),
                6 => {
                    lir.push(LirInsn::SetCc {
                        cond: Cond::Eq,
                        dst: v(next_vreg),
                    });
                    locals.push(next_vreg);
                    next_vreg += 1;
                }
                7 | 8 => {
                    // Forward branch to a label bound later in the body; the
                    // `Jmp` form is the emitter's if/else shape, whose else
                    // arm starts at a label the `Jcc` targets (so no code is
                    // unreachable).
                    lir.push(LirInsn::Test {
                        a: v(x),
                        b: LirOperand::Vreg(v(x)),
                    });
                    lir.push(LirInsn::Jcc {
                        cond: Cond::Ne,
                        label: next_label,
                    });
                    if kind == 8 {
                        lir.push(LirInsn::Jmp {
                            label: next_label + 1,
                        });
                        lir.push(LirInsn::Label { id: next_label });
                        locals.clear();
                        next_label += 1;
                    }
                    pending.push(next_label);
                    next_label += 1;
                }
                9 => {
                    // Join: bind the oldest pending label; locals die.
                    if !pending.is_empty() {
                        lir.push(LirInsn::Label {
                            id: pending.remove(0),
                        });
                        locals.clear();
                    }
                }
                10 => {
                    // Side exit to a stub after the back-edge.
                    lir.push(LirInsn::SetPcImm { imm: 0x2000 });
                    lir.push(LirInsn::Jcc {
                        cond: Cond::Eq,
                        label: next_label,
                    });
                    stubs.push(next_label);
                    next_label += 1;
                }
                _ => {
                    // A vector round-trip, so both register classes compete.
                    lir.push(LirInsn::LoadXmm {
                        dst: xv(next_vreg),
                        addr: LirMem::regfile(0x200 + 16 * (b % 4) as i32),
                        size: MemSize::U128,
                    });
                    lir.push(LirInsn::StoreXmm {
                        src: xv(next_vreg),
                        addr: LirMem::regfile(0x240 + 16 * (a % 4) as i32),
                        size: MemSize::U128,
                    });
                    next_vreg += 1;
                }
            }
        }
        for label in pending {
            lir.push(LirInsn::Label { id: label });
        }
        lir.push(LirInsn::BackEdge {
            pc: 0x1000,
            label: 0,
            reconcile,
            weight: 1,
        });
        if reconcile {
            lir.push(LirInsn::Store {
                src: v(0),
                addr: LirMem::regfile(0),
                size: MemSize::U64,
            });
        }
        lir.push(LirInsn::Ret);
        for stub in stubs {
            lir.push(LirInsn::Label { id: stub });
            lir.push(LirInsn::Store {
                src: v(globals - 1),
                addr: LirMem::regfile(8),
                size: MemSize::U64,
            });
            lir.push(LirInsn::Ret);
        }
        lir
    }

    /// Exact liveness over the surviving instructions of `lir` (control
    /// flow through labels, jumps and the back-edge): `live_out[i]`.
    fn live_out(lir: &[LirInsn], dead: &[bool]) -> Vec<Vec<u32>> {
        let label_at = |l: u32| {
            lir.iter()
                .position(|i| matches!(i, LirInsn::Label { id } if *id == l))
                .expect("bound label")
        };
        let succs: Vec<Vec<usize>> = lir
            .iter()
            .enumerate()
            .map(|(i, insn)| match insn {
                LirInsn::Jmp { label } => vec![label_at(*label)],
                LirInsn::Jcc { label, .. } => vec![i + 1, label_at(*label)],
                LirInsn::BackEdge {
                    label, reconcile, ..
                } => {
                    let mut s = vec![label_at(*label)];
                    if *reconcile {
                        s.push(i + 1);
                    }
                    s
                }
                LirInsn::Ret => vec![],
                _ => vec![i + 1],
            })
            .collect();
        let n = lir.len();
        let mut live_in = vec![std::collections::BTreeSet::new(); n];
        let mut out = vec![std::collections::BTreeSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let o: std::collections::BTreeSet<u32> = succs[i]
                    .iter()
                    .flat_map(|&s| live_in[s].iter().copied())
                    .collect();
                let mut inn = o.clone();
                if !dead[i] {
                    if let Some(d) = lir[i].def() {
                        inn.remove(&d.id);
                    }
                    let mut uses = Vec::new();
                    lir[i].uses(&mut uses);
                    inn.extend(uses.iter().map(|u| u.id));
                }
                if inn != live_in[i] || o != out[i] {
                    changed = true;
                    live_in[i] = inn;
                    out[i] = o;
                }
            }
        }
        out.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        #[test]
        fn random_looping_units_allocate_soundly(
            globals in 2u32..12,
            reconcile in 0u8..2,
            ops in proptest::collection::vec((0u8..12, 0u8..16, 0u8..16), 4..60),
        ) {
            let lir = random_loop_unit(globals, reconcile == 1, &ops);
            let alloc = allocate(&lir);
            let out = live_out(&lir, &alloc.dead);
            let mut scratch = Vec::new();
            for (i, insn) in lir.iter().enumerate() {
                if alloc.dead[i] {
                    continue;
                }
                // Every register a surviving instruction touches is
                // assigned somewhere.
                scratch.clear();
                insn.uses(&mut scratch);
                scratch.extend(insn.def());
                for r in &scratch {
                    proptest::prop_assert!(
                        alloc.get(*r).is_some(),
                        "v{} at {i} ({insn:?}) has no assignment", r.id
                    );
                }
                // Everything live across, read or written by this
                // instruction holds a distinct host register.
                let mut here: Vec<u32> = scratch.iter().map(|r| r.id).collect();
                here.extend(&out[i]);
                here.sort_unstable();
                here.dedup();
                let mut regs: Vec<(Assignment, u32)> = here
                    .iter()
                    .filter_map(|&id| {
                        alloc.assignment[id as usize].map(|a| (a, id))
                    })
                    .filter(|(a, _)| !matches!(a, Assignment::Spill(_)))
                    .collect();
                regs.sort_by_key(|&(a, id)| (format!("{a:?}"), id));
                for pair in regs.windows(2) {
                    proptest::prop_assert!(
                        pair[0].0 != pair[1].0,
                        "v{} and v{} share {:?} at {i} ({insn:?})",
                        pair[0].1, pair[1].1, pair[0].0
                    );
                }
            }
        }
    }
}
