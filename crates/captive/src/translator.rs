//! The per-region translation driver: decode → generate → optimise →
//! allocate → encode.
//!
//! This is the online pipeline of Fig. 8, timed per phase for the Fig. 20
//! experiment, plus the explicit block-scoped optimisation phase
//! (`dbt::opt`) between emission and register allocation.  Every translation
//! it produces is a [`Region`]: [`translate_block`] emits the
//! one-constituent kind (a guest basic block, ending at the first
//! branch/exception instruction, at a page boundary, or at the configured
//! instruction limit), and [`form_region_from`] stitches a hot chained path
//! — including peeled and closed loops — into a multi-constituent one,
//! reading only a [`crate::tier::FormationSnapshot`].

use crate::layout;
use crate::runtime::sf_helpers;
use crate::tier::SnapshotSource;
use crate::FpMode;
use dbt::emitter::ValueType;
use dbt::idiom::RuleTable;
use dbt::{BlockExit, ChainLinks, Emitter, GuestIsa, Phase, PhaseTimers, Region, RegionKey};
use guest_aarch64::gen::Decoded;
use guest_aarch64::isa::{FpKind, Insn};
use guest_aarch64::{v_off, Aarch64Isa};
use hvm::{Machine, MemSize};
use std::sync::Arc;

/// Translates one guest basic block starting at virtual address `pc`
/// (physical address `pa`) into a one-constituent region.
#[allow(clippy::too_many_arguments)]
pub fn translate_block(
    isa: &Aarch64Isa,
    machine: &mut Machine,
    timers: &mut PhaseTimers,
    pc: u64,
    pa: u64,
    max_insns: usize,
    fp_mode: FpMode,
    run_opt: bool,
    promote: bool,
    idioms: Option<&RuleTable>,
) -> Region {
    let mut emitter = Emitter::new();
    let mut guest_insns = 0usize;
    let mut va = pc;

    loop {
        // Stop at page boundaries so a block never spans two translations
        // of different physical pages.
        if guest_insns > 0 && (va & !0xFFF) != (pc & !0xFFF) {
            break;
        }
        // Every instruction shares the first one's page (the boundary check
        // above), so its physical address is pure offset arithmetic — no
        // walk, and the fetch iTLB counters stay dispatch-only.
        let pa_i = (pa & !0xFFF) | (va & 0xFFF);
        let word = machine
            .mem
            .read_uint(layout::GUEST_PHYS_BASE + pa_i, 4)
            .unwrap_or(0) as u32;

        let decoded = timers.time(Phase::Decode, || isa.decode(word, va));
        let end = match decoded {
            None => {
                // Undefined instruction: raise a guest UNDEF exception.
                timers.time(Phase::Translate, || {
                    let class = emitter.const_u64(guest_aarch64::esr_class::UNDEFINED);
                    let iss = emitter.const_u64(0);
                    let ret = emitter.const_u64(va);
                    emitter.call_helper(
                        guest_aarch64::gen::helpers::TAKE_EXCEPTION,
                        &[class, iss, ret],
                    );
                    emitter.set_end_of_block();
                });
                true
            }
            Some(d) => timers.time(Phase::Translate, || {
                let end = if fp_mode == FpMode::Software {
                    generate_maybe_soft_fp(&d, &mut emitter, isa)
                } else {
                    isa.generate(&d, &mut emitter)
                };
                if !end {
                    emitter.inc_pc(4);
                }
                end
            }),
        };
        guest_insns += 1;
        va += 4;
        if end || guest_insns >= max_insns {
            break;
        }
    }

    // Terminator metadata for direct chaining: a block that never emitted a
    // PC-setting terminator ended at the instruction limit or a page
    // boundary and falls through sequentially.
    let exit = emitter
        .exit_hint()
        .unwrap_or(BlockExit::Fallthrough { next: va });

    let lir = emitter.finish();
    let lir_count = lir.len();
    let t = match dbt::finish_translation(timers, lir, run_opt, promote, idioms) {
        Ok(t) => t,
        Err(_) => {
            // Graceful degradation: a lowering defect discards the
            // translation and the block becomes an UNDEF-raising stub, so
            // the guest observes an architectural fault instead of the host
            // executing corrupt code.
            timers.lower_bailouts += 1;
            return undef_fallback_region(timers, pc, pa);
        }
    };
    timers.blocks += 1;
    timers.guest_insns += guest_insns as u64;

    Region {
        guest_phys: pa,
        guest_virt: pc,
        guest_insns,
        encoded_bytes: t.encoded.len(),
        lir_insns: lir_count,
        elided_insns: t.elided,
        code: Arc::new(t.code),
        exit,
        links: ChainLinks::default(),
        constituents: 1,
        pages: Region::span_pages(pa, guest_insns),
        ctx_gen: 0,
        unroll: 1,
        back_edges: 0,
        loop_guest_insns: 0,
        loop_elided_insns: 0,
        promoted: t.promoted,
        idiom_candidates: t.idioms.candidates,
    }
}

/// The degraded translation used when lowering bails out on a plain block:
/// a one-instruction region raising a guest UNDEF exception at `pc`.  The
/// stub itself uses no virtual registers, so its lowering cannot fail.
fn undef_fallback_region(timers: &mut PhaseTimers, pc: u64, pa: u64) -> Region {
    let mut emitter = Emitter::new();
    let class = emitter.const_u64(guest_aarch64::esr_class::UNDEFINED);
    let iss = emitter.const_u64(0);
    let ret = emitter.const_u64(pc);
    emitter.call_helper(
        guest_aarch64::gen::helpers::TAKE_EXCEPTION,
        &[class, iss, ret],
    );
    emitter.set_end_of_block();
    let lir = emitter.finish();
    let lir_count = lir.len();
    let t = dbt::finish_translation(timers, lir, false, false, None)
        .expect("host bug: the UNDEF stub lowers without virtual registers");
    timers.blocks += 1;
    timers.guest_insns += 1;
    Region {
        guest_phys: pa,
        guest_virt: pc,
        guest_insns: 1,
        encoded_bytes: t.encoded.len(),
        lir_insns: lir_count,
        elided_insns: t.elided,
        code: Arc::new(t.code),
        exit: BlockExit::Indirect,
        links: ChainLinks::default(),
        constituents: 1,
        pages: Region::span_pages(pa, 1),
        ctx_gen: 0,
        unroll: 1,
        back_edges: 0,
        loop_guest_insns: 0,
        loop_elided_insns: 0,
        promoted: Vec::new(),
        idiom_candidates: [0; dbt::RULE_COUNT],
    }
}

/// Maximum constituent basic blocks stitched into one region.
pub const REGION_MAX_BLOCKS: usize = 32;

/// Result of one read against a [`SnapshotSource`].
pub enum SourceRead<T> {
    /// The read succeeded.
    Ok(T),
    /// The address is not resolvable (unmapped, out of range): the trace
    /// ends here, exactly as a faulting fetch would end it.
    Fault,
    /// The snapshot does not hold the physical page (base carried here):
    /// formation must abort and report the page so the requester can refill
    /// the snapshot and resubmit.
    Missing(u64),
}

/// Outcome of a generic region formation.
pub enum FormOutcome {
    /// A multi-constituent or looping region was formed (boxed: the other
    /// variants are a fraction of `Region`'s size).
    Formed(Box<Region>),
    /// The trace closed at one constituent with no back-edge (a region
    /// would add nothing over the plain block), or lowering bailed out.
    TooShort,
    /// A snapshot source was missing these physical pages; refill and
    /// resubmit.
    NeedPages(Vec<u64>),
}

/// A recorded constituent start: where in the trace a guest basic block
/// began, both architecturally (virtual/physical address, guest-instruction
/// count) and in the emitted LIR (so a later back-edge can bind its loop
/// label there).
struct ConstituentStart {
    va: u64,
    pa: u64,
    lir_pos: usize,
    guest_insns_before: usize,
}

/// What the trace does with a direct terminator's chosen target.
enum Step {
    /// Stitch forward into a new (or peeled) constituent at (va, pa).
    Forward(u64, u64),
    /// Close the loop: a region-internal back-edge to the target's first
    /// constituent.
    Close(u64),
    /// Generate the terminator unstitched; the trace ends at it.
    Plain,
}

/// Forms a multi-constituent region — the engine's only region former.
/// Re-decodes and re-lowers the hot chained path starting at
/// `entry_pc`/`entry_pa` as one translation, stitching direct jumps and
/// fallthroughs into internal transfers and turning the off-trace leg of
/// interior conditionals into out-of-line side-exit stubs.  The trace stops
/// at indirect exits, untranslatable target pages, `max_insns` guest
/// instructions, or [`REGION_MAX_BLOCKS`] constituents.  Returns
/// [`FormOutcome::TooShort`] when the result would be neither
/// multi-constituent nor looping (a region would add nothing over the plain
/// block).
///
/// Every read goes through `source`, an immutable
/// [`crate::tier::FormationSnapshot`]: a formed region is a pure function of
/// the snapshot, whether a tier-1 worker or the run thread runs the
/// formation.  A page the snapshot lacks aborts the trace with
/// [`FormOutcome::NeedPages`].
///
/// **Looping regions.** A back edge to an already-traced constituent does
/// not end the trace: it closes as a *region-internal backward transfer*
/// ([`hvm::MachInsn::BackEdge`]) to a label bound at the target's first
/// constituent, so a hot loop — the header, its body blocks, and the hotter
/// conditional legs — iterates entirely inside one translation.  Only cold
/// legs and the loop exit leave, through side-exit stubs with precise PC;
/// the closing conditional's exit leg carries ordinary
/// [`dbt::BlockExit::Branch`] metadata so it chains.  The trace always ends
/// at the close (execution cannot proceed past a closed loop).
///
/// **Unrolling.** Before closing, the loop body is *peeled*: back edges to
/// the loop header re-trace the body (forward-stitched like any hot path)
/// until `unroll` copies are stitched, and the back-edge then targets the
/// first copy, so each internal trip covers `unroll` iterations and the
/// per-iteration loop-back overhead is amortised.
///
/// For interior conditionals the continuation leg is chosen by profile: the
/// hotter chain-link slot of the cached region containing the branch, as
/// frozen in the snapshot, falling back to the static backward-branch
/// heuristic when the profile is empty.
///
/// Formation is pure JIT work: it charges no simulated cycles and touches no
/// iTLB/gTLB counters.
#[allow(clippy::too_many_arguments)]
pub fn form_region_from(
    isa: &Aarch64Isa,
    source: &mut SnapshotSource,
    timers: &mut PhaseTimers,
    entry_pc: u64,
    entry_pa: u64,
    max_insns: usize,
    unroll: usize,
    fp_mode: FpMode,
    run_opt: bool,
    promote: bool,
    idioms: Option<&RuleTable>,
) -> FormOutcome {
    let ctx_gen = source.ctx_gen();
    let unroll = unroll.max(1);
    let mut emitter = Emitter::new();
    let mut guest_insns = 0usize;
    let mut constituents = 1usize;
    let mut pages: Vec<u64> = vec![entry_pa & !0xFFF];
    let mut visited: Vec<u64> = vec![entry_pc];
    let mut starts: Vec<ConstituentStart> = vec![ConstituentStart {
        va: entry_pc,
        pa: entry_pa,
        lir_pos: 0,
        guest_insns_before: 0,
    }];
    // The first back-edge target seen; peeling re-traces its body until
    // `unroll` copies are stitched, then the loop closes.
    let mut loop_header: Option<u64> = None;
    let mut back_edges = 0usize;
    let mut loop_guest_insns = 0usize;
    let mut va = entry_pc;
    let mut page_va = entry_pc & !0xFFF;
    let mut page_pa = entry_pa & !0xFFF;
    // Start of the constituent currently being translated, used to consult
    // the plain region's link heats for leg selection.
    let mut block_start_pa = entry_pa;
    let mut block_start_va = entry_pc;

    loop {
        // Sequential page crossing: a fallthrough constituent boundary.
        if (va & !0xFFF) != page_va {
            if guest_insns >= max_insns || constituents >= REGION_MAX_BLOCKS {
                break;
            }
            match source.va_to_pa(va) {
                SourceRead::Ok(pa) => {
                    page_va = va & !0xFFF;
                    page_pa = pa & !0xFFF;
                    if !pages.contains(&page_pa) {
                        pages.push(page_pa);
                    }
                    constituents += 1;
                    visited.push(va);
                    block_start_pa = pa;
                    block_start_va = va;
                    emitter.trace_edge();
                    starts.push(ConstituentStart {
                        va,
                        pa,
                        lir_pos: emitter.lir_pos(),
                        guest_insns_before: guest_insns,
                    });
                }
                // The next page is not translatable right now: end the trace
                // with a fallthrough exit and let the dispatcher fault.
                SourceRead::Fault => break,
                SourceRead::Missing(page) => return FormOutcome::NeedPages(vec![page]),
            }
        }
        let pa_i = page_pa | (va & 0xFFF);
        let word = match source.read_code_word(pa_i) {
            SourceRead::Ok(w) => w,
            SourceRead::Fault => 0,
            SourceRead::Missing(page) => return FormOutcome::NeedPages(vec![page]),
        };
        let decoded = timers.time(Phase::Decode, || source.decode(isa, word, va));
        let Some(d) = decoded else {
            // Undefined instruction: raise a guest UNDEF exception, exactly
            // as the per-block translator does, and end the trace.
            timers.time(Phase::Translate, || {
                let class = emitter.const_u64(guest_aarch64::esr_class::UNDEFINED);
                let iss = emitter.const_u64(0);
                let ret = emitter.const_u64(va);
                emitter.call_helper(
                    guest_aarch64::gen::helpers::TAKE_EXCEPTION,
                    &[class, iss, ret],
                );
                emitter.set_end_of_block();
            });
            guest_insns += 1;
            va += 4;
            break;
        };

        // For direct terminators, pick the on-trace continuation and decide
        // whether it extends the trace, peels a loop body, or closes a
        // back-edge.  Physical addresses are resolved before generating, so
        // a stitched leg is known to be translatable.
        let budget_left = guest_insns + 1 < max_insns && constituents < REGION_MAX_BLOCKS;
        let candidate = match d.insn {
            Insn::B { offset } | Insn::Bl { offset } => Some(va.wrapping_add(offset as u64)),
            Insn::BCond { offset, .. } | Insn::Cbz { offset, .. } | Insn::Cbnz { offset, .. } => {
                let taken = va.wrapping_add(offset as u64);
                let fallthrough = va.wrapping_add(4);
                Some(choose_leg(
                    source,
                    block_start_pa,
                    block_start_va,
                    va,
                    taken,
                    fallthrough,
                ))
            }
            _ => None,
        };
        let step = match candidate {
            None => Step::Plain,
            Some(t) if !visited.contains(&t) => {
                if budget_left {
                    match source.va_to_pa(t) {
                        SourceRead::Ok(p) => Step::Forward(t, p),
                        SourceRead::Fault => Step::Plain,
                        SourceRead::Missing(page) => {
                            return FormOutcome::NeedPages(vec![page]);
                        }
                    }
                } else {
                    Step::Plain
                }
            }
            Some(t) => {
                // A back edge to a traced constituent.  Peel while budget
                // allows and fewer than `unroll` copies of the header have
                // been stitched (a non-header revisit mid-peel is simply the
                // body path being re-traced); otherwise close the loop.
                let header = *loop_header.get_or_insert(t);
                let copies = visited.iter().filter(|v| **v == header).count();
                let peel = budget_left
                    && if t == header {
                        copies < unroll
                    } else {
                        copies > 1
                    };
                if peel {
                    let pa = starts
                        .iter()
                        .find(|s| s.va == t)
                        .map(|s| s.pa)
                        .expect("revisited constituent was recorded");
                    Step::Forward(t, pa)
                } else {
                    Step::Close(t)
                }
            }
        };

        match step {
            Step::Forward(target, target_pa) => {
                emitter.set_trace_next(target);
                timers.time(Phase::Translate, || {
                    if fp_mode == FpMode::Software {
                        generate_maybe_soft_fp(&d, &mut emitter, isa);
                    } else {
                        isa.generate(&d, &mut emitter);
                    }
                });
                if emitter.take_stitched() {
                    guest_insns += 1;
                    constituents += 1;
                    visited.push(target);
                    va = target;
                    page_va = target & !0xFFF;
                    page_pa = target_pa & !0xFFF;
                    if !pages.contains(&page_pa) {
                        pages.push(page_pa);
                    }
                    block_start_pa = target_pa;
                    block_start_va = target;
                    starts.push(ConstituentStart {
                        va: target,
                        pa: target_pa,
                        lir_pos: emitter.lir_pos(),
                        guest_insns_before: guest_insns,
                    });
                    continue;
                }
                // The generator terminated without stitching (e.g. a folded
                // conditional resolved to the other leg): the trace ends
                // here.
                guest_insns += 1;
                va += 4;
                break;
            }
            Step::Close(target) => {
                let first = starts
                    .iter()
                    .find(|s| s.va == target)
                    .expect("closed target was traced");
                let insns_before = first.guest_insns_before;
                let label = emitter.insert_label_at(first.lir_pos);
                emitter.set_trace_back(target, label);
                timers.time(Phase::Translate, || {
                    if fp_mode == FpMode::Software {
                        generate_maybe_soft_fp(&d, &mut emitter, isa);
                    } else {
                        isa.generate(&d, &mut emitter);
                    }
                });
                guest_insns += 1;
                if emitter.take_stitched_back() {
                    back_edges = 1;
                    loop_guest_insns = guest_insns - insns_before;
                } else {
                    // The generator resolved to the non-loop leg without
                    // stitching; the trace ends as an ordinary terminator
                    // (the stray loop label is harmless).
                    va += 4;
                }
                break;
            }
            Step::Plain => {
                let end = timers.time(Phase::Translate, || {
                    let end = if fp_mode == FpMode::Software {
                        generate_maybe_soft_fp(&d, &mut emitter, isa)
                    } else {
                        isa.generate(&d, &mut emitter)
                    };
                    if !end {
                        emitter.inc_pc(4);
                    }
                    end
                });
                guest_insns += 1;
                va += 4;
                if end || guest_insns >= max_insns {
                    break;
                }
            }
        }
    }

    if constituents < 2 && back_edges == 0 {
        return FormOutcome::TooShort;
    }

    let exit = emitter
        .exit_hint()
        .unwrap_or(BlockExit::Fallthrough { next: va });
    let lir = emitter.finish();
    let lir_count = lir.len();
    let t = match dbt::finish_translation(timers, lir, run_opt, promote, idioms) {
        Ok(t) => t,
        Err(_) => {
            // A lowering defect abandons the formation; the dispatcher keeps
            // running the constituent blocks and the quarantine/backoff
            // machinery decides when (or whether) to retry.
            timers.lower_bailouts += 1;
            return FormOutcome::TooShort;
        }
    };
    timers.blocks += 1;
    timers.guest_insns += guest_insns as u64;

    // Copies of the loop body stitched (header occurrences); 1 when no loop
    // was peeled or closed.
    let unroll_copies = loop_header
        .map(|h| visited.iter().filter(|v| **v == h).count())
        .unwrap_or(1);
    // Pro-rated eliminated-LIR share of the looping portion, credited per
    // back-edge transfer by the dynamic instructions-saved accounting.
    let loop_elided_insns = (t.elided * loop_guest_insns)
        .checked_div(guest_insns)
        .unwrap_or(0);

    FormOutcome::Formed(Box::new(Region {
        guest_phys: entry_pa,
        guest_virt: entry_pc,
        guest_insns,
        encoded_bytes: t.encoded.len(),
        lir_insns: lir_count,
        elided_insns: t.elided,
        code: Arc::new(t.code),
        exit,
        links: ChainLinks::default(),
        constituents,
        pages,
        ctx_gen,
        unroll: unroll_copies,
        back_edges,
        loop_guest_insns,
        loop_elided_insns,
        promoted: t.promoted,
        idiom_candidates: t.idioms.candidates,
    }))
}

/// Picks the continuation leg of an interior conditional: the hotter chain
/// link of the block holding the branch (from the snapshot's frozen
/// profile), falling back to "backward taken targets are
/// loops" when the profile is empty or tied.
fn choose_leg(
    source: &SnapshotSource,
    block_pa: u64,
    block_va: u64,
    branch_va: u64,
    taken: u64,
    fallthrough: u64,
) -> u64 {
    if let Some((taken_heat, fall_heat)) = source.branch_heats(RegionKey {
        phys: block_pa,
        virt: block_va,
    }) {
        if taken_heat != fall_heat {
            return if taken_heat > fall_heat {
                taken
            } else {
                fallthrough
            };
        }
    }
    if taken <= branch_va {
        taken
    } else {
        fallthrough
    }
}

/// In software-FP mode, scalar FP arithmetic is routed through softfloat
/// helper calls (the Section 3.6.2 ablation); everything else uses the normal
/// generator functions.
fn generate_maybe_soft_fp(d: &Decoded, e: &mut Emitter, isa: &Aarch64Isa) -> bool {
    let soft_bin = |e: &mut Emitter, helper: u16, vd: u32, vn: u32, vm: u32| {
        let a = e.load_register(v_off(vn), ValueType::U64);
        let b = e.load_register(v_off(vm), ValueType::U64);
        let r = e.call_helper(helper, &[a, b]);
        e.store_register(v_off(vd), r);
        let zero = e.const_u64(0);
        e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
        false
    };
    match d.insn {
        Insn::FpReg { kind, vd, vn, vm } => {
            let helper = match kind {
                FpKind::Add => sf_helpers::ADD,
                FpKind::Sub => sf_helpers::SUB,
                FpKind::Mul => sf_helpers::MUL,
                FpKind::Div => sf_helpers::DIV,
            };
            soft_bin(e, helper, vd, vn, vm)
        }
        Insn::Fsqrt { vd, vn } => {
            let a = e.load_register(v_off(vn), ValueType::U64);
            let r = e.call_helper(sf_helpers::SQRT, &[a]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::Fmadd { vd, vn, vm, va } => {
            let a = e.load_register(v_off(vn), ValueType::U64);
            let b = e.load_register(v_off(vm), ValueType::U64);
            let prod = e.call_helper(sf_helpers::MUL, &[a, b]);
            let c = e.load_register(v_off(va), ValueType::U64);
            let sum = e.call_helper(sf_helpers::ADD, &[prod, c]);
            e.store_register(v_off(vd), sum);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        _ => isa.generate(d, e),
    }
}
