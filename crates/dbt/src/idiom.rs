//! Profile-mined guest-idiom rules over the LIR: NZCV-free compare+branch
//! fusion, scaled-index address folding, and bulk-move loop rewriting.
//!
//! The generic pipeline ([`crate::opt`] + the allocator's DCE) removes work
//! the guest program cannot observe, but it never changes *shape*: a guest
//! `CMP/SUBS + B.cond` still materialises all four NZCV flags into the
//! register file and re-derives the condition from them with a dozen ALU
//! operations, an address computed as `base + (index << k)` still lowers
//! insn-by-insn, and a byte-wide memset loop still moves one byte per trip.
//! This module is the *idiom layer*: a small set of multi-instruction guest
//! patterns recognised on the raw LIR and rewritten into the host shape a
//! human translator would have written — the learned-translation-rules idea,
//! with the rule set driven by data rather than faith (see *Mining*).
//!
//! # The rules
//!
//! * **`fuse.cmpbr`** — an NZCV nibble produced by the subtract-shaped
//!   `set_nzcv` chain (`V|C<<1|Z<<2|N<<3` with `C = a >=u b`,
//!   `Z/N = cmp(a-b, 0)`, `V` the sign of the overflow mask) and consumed by
//!   a conditional branch whose condition value is a pure bit-extraction of
//!   that nibble.  The `Test cv,cv; Jcc` pair is rewritten to a single host
//!   `Cmp a,b; Jcc cc` with the guest condition mapped onto the host flags
//!   the compare sets directly — x86 `SUB` flags are AArch64 `SUBS` flags
//!   with the carry inverted, so all fourteen guest conditions map.  The
//!   whole consumer chain (NZCV load + extraction ALUs) dies with its last
//!   use and is swept by the allocator; the producer's store stays, keeping
//!   the architectural NZCV exact at every observer.
//! * **`fuse.tstbr`** — same consumer, but the producer is the logic-shaped
//!   chain (`Z<<2|N<<3`, carry and overflow cleared).  Rewritten to
//!   `Test r,r; Jcc cc`.  `Hi`/`Ls` consult the cleared carry in a way host
//!   `TEST` flags cannot express with one condition, so those two are
//!   conservatively refused; the other twelve map.
//! * **`fuse.cbz`** — a compare materialised straight into a 0/1 value
//!   (`Cmp; SetCc`) and branched on (`CBZ`/`CBNZ`, which never touch NZCV).
//!   The re-test of the materialised boolean is replaced by re-issuing the
//!   compare at the branch: `Cmp a,b; Jcc cc`.
//! * **`addr.fold`** — an address built as `t = x + y` (optionally with
//!   `y = i << k`, `k <= 3`) feeding a memory operand is folded into the
//!   x86 scaled-index addressing mode `[x + i*2^k + disp]`; the arithmetic
//!   chain goes dead and the addressing mode is free in the cost model.
//! * **`bulk.memset`** — a single-back-edge byte-store loop
//!   (`strb; add cur,1; sub cnt,1; cbnz`) gets a *wide fast path* spliced
//!   in at the loop header: when at least 9 bytes remain and the next 8
//!   stay inside one 4 KiB page, one 64-bit store of the splatted byte
//!   covers 8 trips, with the counters advanced by 8 and the back-edge
//!   *weighted* so the machine credits 8 guest iterations per transfer
//!   (trip accounting and the trip limit stay exact).  Otherwise the
//!   original byte body runs unchanged — so trip counts 0–8, the loop
//!   tail, page boundaries and faults take exactly the architectural path.
//!
//! # Soundness contract
//!
//! Every fusion site must pass, in addition to its structural match:
//!
//! * **Flag deadness** — the host flags set by the fused compare must be
//!   provably dead after the branch, by the same fixpoint flag-demand
//!   analysis the register allocator uses
//!   ([`crate::regalloc::host_flags_live_after`]), computed with every
//!   instruction treated as kept so the answer holds whatever DCE later
//!   removes.  A side-exit `Ret` clears demand (host flags are not guest
//!   state); a `SetCc`/`CmovCc`/`Jcc` reachable after the branch keeps the
//!   site unfused.
//! * **Value stability** — the operands re-read at the fusion point must
//!   have the same reaching definition they had at the producer's own
//!   compare, and the traced spans must contain no joins (`Label`), calls,
//!   or unit exits that could let another path supply a different NZCV or
//!   operand value.  `TraceEdge` is deliberately transparent: fusing a
//!   compare in one stitched constituent with the branch in the next is
//!   the superblock payoff.
//! * **Nibble identity** — the producer chain is not pattern-matched
//!   syntactically: its leaves (the `SetCc`s and the overflow shift) are
//!   discovered and the combining expression is *evaluated* over all leaf
//!   assignments; only a chain that packs exactly `V|C<<1|Z<<2|N<<3` (or
//!   `Z<<2|N<<3`) classifies.  The consumer is evaluated the same way over
//!   all sixteen nibble values and matched against the guest condition
//!   truth tables.  An `ADDS`-shaped producer (different carry polarity)
//!   fails classification and is never fused.
//!
//! # Mining
//!
//! Recognition and rewriting are decoupled through the [`RuleTable`]: every
//! structural+soundness match counts into [`IdiomStats::candidates`] whether
//! or not its rule is enabled, and only enabled rules rewrite (counted in
//! [`IdiomStats::fused`]).  The engine accumulates per-region candidate
//! counts, weighs them by each region's measured execution count from the
//! region profile, and emits a table in which rules that never fire on the
//! observed workload are pruned — the active rule set is mined from the
//! profile, not hand-enabled.  The table serialises to a stable text form
//! and contributes [`RuleTable::hash`] to the translation-reuse key, so
//! cached code is never shared across different rule sets.

use crate::cache::fnv1a;
use crate::lir::{
    label_bound, vreg_bound, LirBase, LirInsn, LirMem, LirOperand, RegFileAccess, Vreg, VregClass,
};
use crate::regalloc::host_flags_live_after;
use hvm::{AluOp, Cond, MemSize};
use std::sync::OnceLock;

/// Number of shipped rules (indexes [`IdiomStats::fused`] and friends).
pub const RULE_COUNT: usize = 5;

/// The shipped rule kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Subtract-producer compare+branch fusion.
    FuseCmpBr,
    /// Logic-producer (flags-from-`ANDS`-style) compare+branch fusion.
    FuseTstBr,
    /// `CBZ`/`CBNZ`-style materialised-boolean branch fusion.
    FuseCbz,
    /// Shift/add address chains folded into scaled-index operands.
    AddrFold,
    /// Byte-memset loops given a wide (64-bit) fast path.
    BulkMemset,
}

impl RuleKind {
    /// All rules, in stats-index order.
    pub const ALL: [RuleKind; RULE_COUNT] = [
        RuleKind::FuseCmpBr,
        RuleKind::FuseTstBr,
        RuleKind::FuseCbz,
        RuleKind::AddrFold,
        RuleKind::BulkMemset,
    ];

    /// Index into the per-rule stats arrays.
    pub fn index(self) -> usize {
        match self {
            RuleKind::FuseCmpBr => 0,
            RuleKind::FuseTstBr => 1,
            RuleKind::FuseCbz => 2,
            RuleKind::AddrFold => 3,
            RuleKind::BulkMemset => 4,
        }
    }

    /// Inverse of [`RuleKind::name`].
    pub fn from_name(s: &str) -> Option<RuleKind> {
        RuleKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Declares each rule's external name once and derives its run-statistics
/// counter names from it.
macro_rules! rule_names {
    ($($kind:ident => $name:literal,)*) => {
        impl RuleKind {
            /// Stable external name (serialisation, figures, counters).
            pub fn name(self) -> &'static str {
                match self {
                    $(RuleKind::$kind => $name,)*
                }
            }

            /// The rule's run-statistics counter names: rewrites applied
            /// (`idiom.hit.<name>`) and candidate sites (`idiom.cand.<name>`).
            pub fn counter_names(self) -> [&'static str; 2] {
                match self {
                    $(RuleKind::$kind => [
                        concat!("idiom.hit.", $name),
                        concat!("idiom.cand.", $name),
                    ],)*
                }
            }
        }
    };
}

rule_names! {
    FuseCmpBr => "fuse.cmpbr",
    FuseTstBr => "fuse.tstbr",
    FuseCbz => "fuse.cbz",
    AddrFold => "addr.fold",
    BulkMemset => "bulk.memset",
}

/// One table entry: a rule, whether it rewrites, and its mined weight
/// (dynamic candidate count; informational — it does not affect codegen
/// and is excluded from [`RuleTable::hash`]).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub kind: RuleKind,
    pub enabled: bool,
    pub weight: u64,
}

/// The active idiom rule set applied by a translation pipeline.
#[derive(Debug, Clone)]
pub struct RuleTable {
    /// Byte offset of the guest NZCV slot in the register file.  The
    /// recogniser is otherwise frontend-agnostic; this is the one piece of
    /// guest layout it needs.
    pub nzcv_off: i32,
    /// Entries, one per [`RuleKind`].
    pub rules: Vec<Rule>,
}

/// Default NZCV slot offset (the AArch64 frontend's register-file layout).
pub const DEFAULT_NZCV_OFF: i32 = 256;

impl RuleTable {
    /// A table with every shipped rule enabled (weights zero).
    pub fn full() -> RuleTable {
        RuleTable {
            nzcv_off: DEFAULT_NZCV_OFF,
            rules: RuleKind::ALL
                .into_iter()
                .map(|kind| Rule {
                    kind,
                    enabled: true,
                    weight: 0,
                })
                .collect(),
        }
    }

    /// A table that recognises (counts candidates) but rewrites nothing —
    /// the miner's observation configuration.
    pub fn observe_only() -> RuleTable {
        let mut t = RuleTable::full();
        for r in &mut t.rules {
            r.enabled = false;
        }
        t
    }

    /// The process-wide default table (all rules on).
    pub fn builtin() -> &'static RuleTable {
        static TABLE: OnceLock<RuleTable> = OnceLock::new();
        TABLE.get_or_init(RuleTable::full)
    }

    /// Whether `kind` rewrites under this table.
    pub fn enabled(&self, kind: RuleKind) -> bool {
        self.rules.iter().any(|r| r.kind == kind && r.enabled)
    }

    /// Enable or disable one rule.
    pub fn set_enabled(&mut self, kind: RuleKind, on: bool) {
        for r in &mut self.rules {
            if r.kind == kind {
                r.enabled = on;
            }
        }
    }

    /// Record a mined weight for one rule.
    pub fn set_weight(&mut self, kind: RuleKind, weight: u64) {
        for r in &mut self.rules {
            if r.kind == kind {
                r.weight = weight;
            }
        }
    }

    /// Mined weight of one rule.
    pub fn weight(&self, kind: RuleKind) -> u64 {
        self.rules
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0, |r| r.weight)
    }

    /// Stable text serialisation.
    pub fn serialize(&self) -> String {
        let mut s = String::from("idiom-rules-v1\n");
        s.push_str(&format!("nzcv {}\n", self.nzcv_off));
        for r in &self.rules {
            s.push_str(&format!(
                "rule {} {} {}\n",
                r.kind.name(),
                if r.enabled { "on" } else { "off" },
                r.weight
            ));
        }
        s
    }

    /// Parse the [`RuleTable::serialize`] form.  Unknown rule names are
    /// ignored (forward compatibility); missing rules default to disabled.
    pub fn parse(text: &str) -> Option<RuleTable> {
        let mut lines = text.lines();
        if lines.next()? != "idiom-rules-v1" {
            return None;
        }
        let mut table = RuleTable::observe_only();
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("nzcv") => table.nzcv_off = parts.next()?.parse().ok()?,
                Some("rule") => {
                    let name = parts.next()?;
                    let on = match parts.next()? {
                        "on" => true,
                        "off" => false,
                        _ => return None,
                    };
                    let weight: u64 = parts.next()?.parse().ok()?;
                    if let Some(kind) = RuleKind::from_name(name) {
                        table.set_enabled(kind, on);
                        table.set_weight(kind, weight);
                    }
                }
                None => {}
                _ => return None,
            }
        }
        Some(table)
    }

    /// Content hash of everything that affects generated code: the format
    /// version, the NZCV offset and the set of *enabled* rules.  Weights are
    /// excluded — they are mining metadata.  Joins the translation-reuse
    /// key, so cached code never crosses rule sets.
    pub fn hash(&self) -> u64 {
        let mut names: Vec<&str> = self
            .rules
            .iter()
            .filter(|r| r.enabled)
            .map(|r| r.kind.name())
            .collect();
        names.sort_unstable();
        let canon = format!("idiom-rules-v1\0{}\0{}", self.nzcv_off, names.join(","));
        fnv1a(canon.as_bytes())
    }
}

/// Per-translation idiom counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdiomStats {
    /// Sites rewritten, per rule (requires the rule enabled).
    pub fused: [u32; RULE_COUNT],
    /// Sites that matched structurally *and* passed every soundness check,
    /// per rule, counted whether or not the rule is enabled — the miner's
    /// input signal.
    pub candidates: [u32; RULE_COUNT],
}

impl IdiomStats {
    /// Total rewrites across all rules.
    pub fn total_fused(&self) -> u32 {
        self.fused.iter().sum()
    }

    /// Accumulate another translation's counters.
    pub fn merge(&mut self, other: &IdiomStats) {
        for i in 0..RULE_COUNT {
            self.fused[i] += other.fused[i];
            self.candidates[i] += other.candidates[i];
        }
    }
}

// ---------------------------------------------------------------------------
// Shared recogniser plumbing
// ---------------------------------------------------------------------------

/// One pass's position index over a unit: definition sites per vreg, use
/// counts, and prefix/forward tables for the span, NZCV-store and
/// flag-access queries.  Every query the recognisers make is a table lookup
/// or a binary search instead of a scan, so a pass stays linear in unit
/// length (up to a log factor) however many sites it inspects.  The index
/// is exact while the pass leaves definitions, barriers, regfile stores and
/// flag accesses where they are: [`fuse_branches`] collects every site on
/// the unmodified unit before rewriting, and [`fold_addressing`] rewrites
/// only memory operands, so one index per pass suffices.
struct Unit<'a> {
    lir: &'a [LirInsn],
    /// Definition positions grouped by vreg id, ascending within a group:
    /// `def_pos[def_start[id]..def_start[id + 1]]`.
    def_start: Vec<u32>,
    def_pos: Vec<u32>,
    /// Reads of each vreg across the unit.
    uses: Vec<u32>,
    /// `barriers[i]`: span barriers ([`is_barrier`]) in `lir[..i]`.
    barriers: Vec<u32>,
    /// `nzcv_store[i]`: the store that produced the NZCV value a load at `i`
    /// reads — the nearest preceding store to the slot, when it is a
    /// full-width register store and nothing between can change or alias
    /// the slot.
    nzcv_store: Vec<Option<u32>>,
    /// `next_flag_access[i]`: the first position at or after `i` that reads
    /// or writes the host flags (`lir.len()` when none does).
    next_flag_access: Vec<u32>,
}

impl<'a> Unit<'a> {
    fn new(lir: &'a [LirInsn], nzcv_off: i32) -> Unit<'a> {
        // One forward pass counts definitions and uses (growing the vreg
        // tables as ids appear) and fills the prefix and NZCV tables; a
        // second places the definitions.
        let mut def_start = vec![0u32; 1];
        let mut uses = Vec::new();
        let mut barriers = Vec::with_capacity(lir.len() + 1);
        let mut nzcv_store = Vec::with_capacity(lir.len());
        let slot = nzcv_slot(nzcv_off);
        let (mut barrier_count, mut last_store) = (0u32, None);
        for (k, insn) in lir.iter().enumerate() {
            if let Some(d) = insn.def() {
                let at = d.id as usize + 1;
                if at >= def_start.len() {
                    def_start.resize(at + 1, 0);
                }
                def_start[at] += 1;
            }
            insn.for_each_use(|u| {
                let at = u.id as usize;
                if at >= uses.len() {
                    uses.resize(at + 1, 0);
                }
                uses[at] += 1;
            });
            barriers.push(barrier_count);
            barrier_count += is_barrier(insn) as u32;
            nzcv_store.push(last_store);
            if let Some(acc) = insn.regfile_store() {
                if acc.overlaps(&slot) {
                    // Must be a full-width register store of the slot.
                    last_store = match insn {
                        LirInsn::Store { size, .. } if acc == slot && *size == MemSize::U64 => {
                            Some(k as u32)
                        }
                        _ => None,
                    };
                }
            } else if insn.invalidates_regfile_values() || matches!(insn, LirInsn::BackEdge { .. })
            {
                last_store = None;
            }
        }
        barriers.push(barrier_count);
        let vregs = uses.len().max(def_start.len() - 1);
        uses.resize(vregs, 0);
        def_start.resize(vregs + 1, 0);
        for id in 0..vregs {
            def_start[id + 1] += def_start[id];
        }
        let mut fill = def_start.clone();
        let mut def_pos = vec![0u32; def_start[vregs] as usize];
        for (k, insn) in lir.iter().enumerate() {
            if let Some(d) = insn.def() {
                let at = &mut fill[d.id as usize];
                def_pos[*at as usize] = k as u32;
                *at += 1;
            }
        }
        let mut next_flag_access = vec![lir.len() as u32; lir.len() + 1];
        for (k, insn) in lir.iter().enumerate().rev() {
            if insn.reads_host_flags() || insn.writes_host_flags() {
                next_flag_access[k] = k as u32;
            } else {
                next_flag_access[k] = next_flag_access[k + 1];
            }
        }
        Unit {
            lir,
            def_start,
            def_pos,
            uses,
            barriers,
            nzcv_store,
            next_flag_access,
        }
    }

    /// Index of the last definition of `v` strictly before `idx`.
    fn last_def_before(&self, v: Vreg, idx: usize) -> Option<usize> {
        let id = v.id as usize;
        let defs = &self.def_pos[self.def_start[id] as usize..self.def_start[id + 1] as usize];
        let k = defs.partition_point(|&p| (p as usize) < idx);
        k.checked_sub(1).map(|k| defs[k] as usize)
    }

    /// True when `v` has the same reaching definition at positions `a` and
    /// `b` (reading just before each) — the value re-read at `b` is the
    /// value that was read at `a`.
    fn same_reaching_def(&self, v: Vreg, a: usize, b: usize) -> bool {
        let da = self.last_def_before(v, a);
        da.is_some() && da == self.last_def_before(v, b)
    }

    fn operand_stable(&self, op: LirOperand, a: usize, b: usize) -> bool {
        match op {
            LirOperand::Imm(_) => true,
            LirOperand::Vreg(v) => self.same_reaching_def(v, a, b),
        }
    }

    /// True when the open span `(from, to)` contains a join, call or unit
    /// exit that could invalidate a traced value.
    fn span_has_barrier(&self, from: usize, to: usize) -> bool {
        self.barriers[to] > self.barriers[from + 1]
    }
}

/// Joins, calls and unit exits — the instructions a traced value may not
/// cross (see [`Unit::span_has_barrier`]).  `TraceEdge`, `Jcc` and PC updates
/// are transparent.
fn is_barrier(insn: &LirInsn) -> bool {
    matches!(
        insn,
        LirInsn::Label { .. }
            | LirInsn::Jmp { .. }
            | LirInsn::BackEdge { .. }
            | LirInsn::Ret
            | LirInsn::CallHelper { .. }
            | LirInsn::Int { .. }
            | LirInsn::In { .. }
            | LirInsn::Out { .. }
            | LirInsn::Syscall
            | LirInsn::TlbFlushAll
            | LirInsn::TlbFlushPcid
    )
}

/// The fixed NZCV regfile slot.
fn nzcv_slot(nzcv_off: i32) -> RegFileAccess {
    RegFileAccess {
        offset: nzcv_off,
        size: MemSize::U64,
    }
}

fn apply_alu(op: AluOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Guest condition truth tables
// ---------------------------------------------------------------------------

/// The fourteen non-trivial AArch64 condition codes, evaluated over the
/// NZCV nibble (`V = bit 0`, `C = bit 1`, `Z = bit 2`, `N = bit 3` — the
/// frontend's packing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuestCc {
    Eq,
    Ne,
    Cs,
    Cc,
    Mi,
    Pl,
    Vs,
    Vc,
    Hi,
    Ls,
    Ge,
    Lt,
    Gt,
    Le,
}

const GUEST_CCS: [GuestCc; 14] = [
    GuestCc::Eq,
    GuestCc::Ne,
    GuestCc::Cs,
    GuestCc::Cc,
    GuestCc::Mi,
    GuestCc::Pl,
    GuestCc::Vs,
    GuestCc::Vc,
    GuestCc::Hi,
    GuestCc::Ls,
    GuestCc::Ge,
    GuestCc::Lt,
    GuestCc::Gt,
    GuestCc::Le,
];

fn guest_holds(g: GuestCc, nzcv: u64) -> bool {
    let v = nzcv & 1 != 0;
    let c = (nzcv >> 1) & 1 != 0;
    let z = (nzcv >> 2) & 1 != 0;
    let n = (nzcv >> 3) & 1 != 0;
    match g {
        GuestCc::Eq => z,
        GuestCc::Ne => !z,
        GuestCc::Cs => c,
        GuestCc::Cc => !c,
        GuestCc::Mi => n,
        GuestCc::Pl => !n,
        GuestCc::Vs => v,
        GuestCc::Vc => !v,
        GuestCc::Hi => c && !z,
        GuestCc::Ls => !c || z,
        GuestCc::Ge => n == v,
        GuestCc::Lt => n != v,
        GuestCc::Gt => !z && n == v,
        GuestCc::Le => z || n != v,
    }
}

/// Host condition after a fused `Cmp a, b` for a subtract-shaped producer.
/// x86 `SUB` flags are AArch64 `SUBS` flags with inverted carry
/// (`CF = borrow`, guest `C = !borrow`), so every code maps.
fn host_for_sub(g: GuestCc) -> Cond {
    match g {
        GuestCc::Eq => Cond::Eq,
        GuestCc::Ne => Cond::Ne,
        GuestCc::Cs => Cond::Ge,
        GuestCc::Cc => Cond::Lt,
        GuestCc::Mi => Cond::Mi,
        GuestCc::Pl => Cond::Pl,
        GuestCc::Vs => Cond::Vs,
        GuestCc::Vc => Cond::Vc,
        GuestCc::Hi => Cond::Gt,
        GuestCc::Ls => Cond::Le,
        GuestCc::Ge => Cond::SGe,
        GuestCc::Lt => Cond::SLt,
        GuestCc::Gt => Cond::SGt,
        GuestCc::Le => Cond::SLe,
    }
}

/// Host condition after a fused `Test r, r` for a logic-shaped producer
/// (guest C and V architecturally zero; host CF and OF cleared by `TEST`).
/// `Hi`/`Ls` mix the cleared carry with Z in a way that has no single host
/// condition under this encoding, so they are refused.
fn host_for_logic(g: GuestCc) -> Option<Cond> {
    Some(match g {
        GuestCc::Eq => Cond::Eq,
        GuestCc::Ne => Cond::Ne,
        // Guest C is 0: Cs is constant-false, Cc constant-true.  Host CF is
        // 0 after TEST: Lt is constant-false, Ge constant-true.
        GuestCc::Cs => Cond::Lt,
        GuestCc::Cc => Cond::Ge,
        GuestCc::Mi => Cond::Mi,
        GuestCc::Pl => Cond::Pl,
        // Guest V is 0 and host OF is 0: both constant.
        GuestCc::Vs => Cond::Vs,
        GuestCc::Vc => Cond::Vc,
        GuestCc::Ge => Cond::SGe,
        GuestCc::Lt => Cond::SLt,
        GuestCc::Gt => Cond::SGt,
        GuestCc::Le => Cond::SLe,
        GuestCc::Hi | GuestCc::Ls => return None,
    })
}

// ---------------------------------------------------------------------------
// Consumer recognition: cv as a function of the NZCV nibble
// ---------------------------------------------------------------------------

/// Evaluates the value of `v` just before `before`, treating loads of the
/// NZCV slot as the symbolic input `nzcv_val`.  Only pure, frontend-emitted
/// chain shapes evaluate; anything else aborts the match.  Root load
/// indices are appended to `roots`.
fn eval_consumer(
    u: &Unit,
    v: Vreg,
    before: usize,
    nzcv_off: i32,
    nzcv_val: u64,
    roots: &mut Vec<usize>,
    depth: u32,
) -> Option<u64> {
    if depth > 24 {
        return None;
    }
    let i = u.last_def_before(v, before)?;
    match &u.lir[i] {
        LirInsn::Load { .. } => {
            let slot = u.lir[i].regfile_load()?;
            if slot == nzcv_slot(nzcv_off) {
                roots.push(i);
                Some(nzcv_val)
            } else {
                None
            }
        }
        LirInsn::MovImm { imm, .. } => Some(*imm),
        LirInsn::MovReg { src, .. } => {
            eval_consumer(u, *src, i, nzcv_off, nzcv_val, roots, depth + 1)
        }
        LirInsn::MovZx { src, size, .. } => {
            let x = eval_consumer(u, *src, i, nzcv_off, nzcv_val, roots, depth + 1)?;
            Some(x & size.mask())
        }
        LirInsn::Alu { op, dst, src } => {
            let a = eval_consumer(u, *dst, i, nzcv_off, nzcv_val, roots, depth + 1)?;
            let b = match src {
                LirOperand::Imm(imm) => *imm,
                LirOperand::Vreg(w) => {
                    eval_consumer(u, *w, i, nzcv_off, nzcv_val, roots, depth + 1)?
                }
            };
            apply_alu(*op, a, b)
        }
        _ => None,
    }
}

/// Classifies the branch condition value `cv` (read at `t`) as a guest
/// condition over the stored NZCV nibble, returning the matched code and the
/// earliest NZCV load the chain is rooted at.
fn classify_consumer(u: &Unit, cv: Vreg, t: usize, nzcv_off: i32) -> Option<(GuestCc, usize)> {
    let mut roots = Vec::new();
    let mut table = [false; 16];
    for (nz, holds) in table.iter_mut().enumerate() {
        *holds = eval_consumer(u, cv, t, nzcv_off, nz as u64, &mut roots, 0)? != 0;
    }
    let root_min = roots.iter().copied().min()?;
    let g = GUEST_CCS
        .into_iter()
        .find(|g| (0..16).all(|nz| guest_holds(*g, nz as u64) == table[nz]))?;
    Some((g, root_min))
}

// ---------------------------------------------------------------------------
// Producer recognition: the stored nibble as a function of its flag leaves
// ---------------------------------------------------------------------------

/// A classified NZCV producer.
enum Producer {
    /// Subtract shape: nibble of `a - b`; `anchor` is the carry compare
    /// (where `a`/`b` were read).
    Sub {
        a: Vreg,
        b: LirOperand,
        anchor: usize,
    },
    /// Logic shape: nibble of `r` with C/V clear; `anchor` is the zero
    /// compare (where `r` was read).
    Logic { r: Vreg, anchor: usize },
}

/// Collects the leaves (SetCc results and shift-by-63 overflow terms) of
/// the expression defining `v`, walking only pure chain shapes.
fn collect_leaves(u: &Unit, v: Vreg, before: usize, out: &mut Vec<usize>, depth: u32) -> bool {
    if depth > 24 || out.len() > 8 {
        return false;
    }
    let Some(i) = u.last_def_before(v, before) else {
        return false;
    };
    match &u.lir[i] {
        LirInsn::SetCc { .. } => {
            if !out.contains(&i) {
                out.push(i);
            }
            true
        }
        LirInsn::Alu {
            op: AluOp::Shr,
            src: LirOperand::Imm(63),
            ..
        } => {
            if !out.contains(&i) {
                out.push(i);
            }
            true
        }
        LirInsn::Alu { op, dst, src } => {
            if apply_alu(*op, 0, 0).is_none() {
                return false;
            }
            let a_ok = collect_leaves(u, *dst, i, out, depth + 1);
            let b_ok = match src {
                LirOperand::Imm(_) => true,
                LirOperand::Vreg(w) => collect_leaves(u, *w, i, out, depth + 1),
            };
            a_ok && b_ok
        }
        LirInsn::MovReg { src, .. } => collect_leaves(u, *src, i, out, depth + 1),
        LirInsn::MovImm { .. } => true,
        _ => false,
    }
}

/// Evaluates `v` just before `before` with the given leaf assignments
/// (keyed by leaf instruction index).
fn eval_with_leaves(
    u: &Unit,
    v: Vreg,
    before: usize,
    leaves: &[(usize, u64)],
    depth: u32,
) -> Option<u64> {
    if depth > 24 {
        return None;
    }
    let i = u.last_def_before(v, before)?;
    if let Some((_, val)) = leaves.iter().find(|(idx, _)| *idx == i) {
        return Some(*val);
    }
    match &u.lir[i] {
        LirInsn::MovImm { imm, .. } => Some(*imm),
        LirInsn::MovReg { src, .. } => eval_with_leaves(u, *src, i, leaves, depth + 1),
        LirInsn::Alu { op, dst, src } => {
            let a = eval_with_leaves(u, *dst, i, leaves, depth + 1)?;
            let b = match src {
                LirOperand::Imm(imm) => *imm,
                LirOperand::Vreg(w) => eval_with_leaves(u, *w, i, leaves, depth + 1)?,
            };
            apply_alu(*op, a, b)
        }
        _ => None,
    }
}

/// Unordered (first-operand, second-operand) pair of a `MovReg`+`Xor` chain
/// defining `x` just before `before`.
fn xor_pair(u: &Unit, x: Vreg, before: usize) -> Option<(Vreg, LirOperand)> {
    let xi = u.last_def_before(x, before)?;
    let LirInsn::Alu {
        op: AluOp::Xor,
        dst,
        src,
    } = &u.lir[xi]
    else {
        return None;
    };
    let mi = u.last_def_before(*dst, xi)?;
    let LirInsn::MovReg { src: first, .. } = &u.lir[mi] else {
        return None;
    };
    Some((*first, *src))
}

/// Classifies the stored value `s` (stored at `p`) as one of the two NZCV
/// producer shapes.
fn classify_producer(u: &Unit, s: Vreg, p: usize) -> Option<Producer> {
    let mut leaves = Vec::new();
    if !collect_leaves(u, s, p, &mut leaves, 0) {
        return None;
    }
    // Classify each leaf by role.
    let mut c_leaf: Option<(usize, Vreg, LirOperand, usize)> = None; // (leaf, a, b, cmp idx)
    let mut z_leaf: Option<(usize, Vreg, usize)> = None;
    let mut n_leaf: Option<(usize, Vreg, usize)> = None;
    let mut v_leaf: Option<usize> = None;
    for &li in &leaves {
        match &u.lir[li] {
            LirInsn::SetCc { cond, .. } => {
                // The emitter materialises compares as an adjacent Cmp+SetCc
                // pair; anything else is not a frontend flag leaf.
                if li == 0 {
                    return None;
                }
                let LirInsn::Cmp { a, b } = &u.lir[li - 1] else {
                    return None;
                };
                match (cond, b) {
                    (Cond::Ge, _) if c_leaf.is_none() => c_leaf = Some((li, *a, *b, li - 1)),
                    (Cond::Eq, LirOperand::Imm(0)) if z_leaf.is_none() => {
                        z_leaf = Some((li, *a, li - 1))
                    }
                    (Cond::SLt, LirOperand::Imm(0)) if n_leaf.is_none() => {
                        n_leaf = Some((li, *a, li - 1))
                    }
                    _ => return None,
                }
            }
            LirInsn::Alu { .. } => {
                if v_leaf.is_some() {
                    return None;
                }
                v_leaf = Some(li);
            }
            _ => return None,
        }
    }
    let (zl, zr, z_cmp) = z_leaf?;
    let (nl, nr, _) = n_leaf?;
    if zr != nr {
        return None;
    }
    let r = zr;
    match (c_leaf, v_leaf) {
        (Some((cl, a, b, c_cmp)), Some(vl)) => {
            // Subtract shape.  Verify the result register really is a - b.
            let ri = u.last_def_before(r, z_cmp)?;
            let LirInsn::Alu {
                op: AluOp::Sub,
                dst,
                src,
            } = &u.lir[ri]
            else {
                return None;
            };
            let rm = u.last_def_before(*dst, ri)?;
            let LirInsn::MovReg { src: r_base, .. } = &u.lir[rm] else {
                return None;
            };
            if *r_base != a || *src != b {
                return None;
            }
            // Verify the overflow chain: Shr63(And(Xor{a,b}, Xor{a,r})).
            let LirInsn::Alu { dst: v_dst, .. } = &u.lir[vl] else {
                return None;
            };
            let vm = u.last_def_before(*v_dst, vl)?;
            let LirInsn::MovReg { src: and_v, .. } = &u.lir[vm] else {
                return None;
            };
            let ai = u.last_def_before(*and_v, vm)?;
            let LirInsn::Alu {
                op: AluOp::And,
                dst: and_dst,
                src: and_src,
            } = &u.lir[ai]
            else {
                return None;
            };
            let am = u.last_def_before(*and_dst, ai)?;
            let LirInsn::MovReg { src: x1, .. } = &u.lir[am] else {
                return None;
            };
            let LirOperand::Vreg(x2) = and_src else {
                return None;
            };
            let p1 = xor_pair(u, *x1, am)?;
            let p2 = xor_pair(u, *x2, ai)?;
            let ab = (a, b);
            let ar = (a, LirOperand::Vreg(r));
            if !((p1 == ab && p2 == ar) || (p1 == ar && p2 == ab)) {
                return None;
            }
            // Verify the combine packs exactly V | C<<1 | Z<<2 | N<<3.
            for bits in 0u64..16 {
                let assign = [
                    (vl, bits & 1),
                    (cl, (bits >> 1) & 1),
                    (zl, (bits >> 2) & 1),
                    (nl, (bits >> 3) & 1),
                ];
                if eval_with_leaves(u, s, p, &assign, 0)? != bits {
                    return None;
                }
            }
            Some(Producer::Sub {
                a,
                b,
                anchor: c_cmp,
            })
        }
        (None, None) => {
            // Logic shape: Z and N of r, C and V clear.
            for bits in 0u64..4 {
                let assign = [(zl, bits & 1), (nl, (bits >> 1) & 1)];
                let expect = ((bits & 1) << 2) | (((bits >> 1) & 1) << 3);
                if eval_with_leaves(u, s, p, &assign, 0)? != expect {
                    return None;
                }
            }
            Some(Producer::Logic { r, anchor: z_cmp })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Branch fusion
// ---------------------------------------------------------------------------

/// Finds the `Jcc` consuming the flags set at `t`, allowing only
/// flag-transparent instructions between (the emitter's branch shapes put at
/// most a PC write there).
fn find_jcc(lir: &[LirInsn], t: usize) -> Option<usize> {
    for (k, insn) in lir.iter().enumerate().skip(t + 1) {
        match insn {
            LirInsn::Jcc { .. } => return Some(k),
            LirInsn::SetPcImm { .. } | LirInsn::IncPc { .. } | LirInsn::MovImm { .. } => {}
            _ => return None,
        }
    }
    None
}

struct FuseSite {
    t: usize,
    j: usize,
    new_cmp: LirInsn,
    cond: Cond,
    kind: RuleKind,
    delete: Vec<usize>,
}

fn match_cbz(u: &Unit, cv: Vreg, t: usize, j: usize, jc: Cond) -> Option<FuseSite> {
    let s = u.last_def_before(cv, t)?;
    let LirInsn::SetCc { cond: hc, .. } = u.lir[s] else {
        return None;
    };
    if s == 0 {
        return None;
    }
    let LirInsn::Cmp { a, b } = u.lir[s - 1] else {
        return None;
    };
    if !u.same_reaching_def(a, s - 1, t) || !u.operand_stable(b, s - 1, t) {
        return None;
    }
    if u.span_has_barrier(s - 1, t) {
        return None;
    }
    // Delete the materialisation when the boolean has no other consumer
    // (Test reads cv twice), and the original compare when its flags feed
    // nothing else before the next flag write.
    let mut delete = Vec::new();
    if u.uses[cv.id as usize] == 2 {
        delete.push(s);
        let next = u.next_flag_access[s + 1] as usize;
        if u.lir.get(next).is_none_or(|insn| !insn.reads_host_flags()) {
            delete.push(s - 1);
        }
    }
    let host = if jc == Cond::Ne { hc } else { hc.invert() };
    Some(FuseSite {
        t,
        j,
        new_cmp: LirInsn::Cmp { a, b },
        cond: host,
        kind: RuleKind::FuseCbz,
        delete,
    })
}

fn match_nzcv(u: &Unit, cv: Vreg, t: usize, j: usize, jc: Cond, nzcv_off: i32) -> Option<FuseSite> {
    let (g, root_min) = classify_consumer(u, cv, t, nzcv_off)?;
    let p = u.nzcv_store[root_min]? as usize;
    let LirInsn::Store { src: s, .. } = u.lir[p] else {
        return None;
    };
    let producer = classify_producer(u, s, p)?;
    match producer {
        Producer::Sub { a, b, anchor } => {
            if u.span_has_barrier(anchor, t) {
                return None;
            }
            if !u.same_reaching_def(a, anchor, t) || !u.operand_stable(b, anchor, t) {
                return None;
            }
            let host = host_for_sub(g);
            let cond = if jc == Cond::Ne { host } else { host.invert() };
            Some(FuseSite {
                t,
                j,
                new_cmp: LirInsn::Cmp { a, b },
                cond,
                kind: RuleKind::FuseCmpBr,
                delete: Vec::new(),
            })
        }
        Producer::Logic { r, anchor } => {
            if u.span_has_barrier(anchor, t) {
                return None;
            }
            if !u.same_reaching_def(r, anchor, t) {
                return None;
            }
            let host = host_for_logic(g)?;
            let cond = if jc == Cond::Ne { host } else { host.invert() };
            Some(FuseSite {
                t,
                j,
                new_cmp: LirInsn::Test {
                    a: r,
                    b: LirOperand::Vreg(r),
                },
                cond,
                kind: RuleKind::FuseTstBr,
                delete: Vec::new(),
            })
        }
    }
}

/// The compare+branch fusion pass: rewrites `Test cv,cv; Jcc` pairs whose
/// condition value derives from a recognised flag producer into a direct
/// host compare-and-branch, when the host flags are dead after the branch.
pub fn fuse_branches(lir: &mut Vec<LirInsn>, table: &RuleTable, stats: &mut IdiomStats) {
    let flags_live = host_flags_live_after(lir);
    let u = Unit::new(lir, nzcv(table));
    let mut sites: Vec<FuseSite> = Vec::new();
    for t in 0..lir.len() {
        let LirInsn::Test {
            a: cv,
            b: LirOperand::Vreg(cv2),
        } = lir[t]
        else {
            continue;
        };
        if cv != cv2 {
            continue;
        }
        let Some(j) = find_jcc(lir, t) else {
            continue;
        };
        let LirInsn::Jcc { cond: jc, .. } = lir[j] else {
            unreachable!()
        };
        if !matches!(jc, Cond::Eq | Cond::Ne) {
            continue;
        }
        // Soundness gate: the flags the fused compare would set must be
        // provably dead after the branch.
        if flags_live[j] {
            continue;
        }
        let site =
            match_cbz(&u, cv, t, j, jc).or_else(|| match_nzcv(&u, cv, t, j, jc, nzcv(table)));
        if let Some(site) = site {
            stats.candidates[site.kind.index()] += 1;
            if table.enabled(site.kind) {
                sites.push(site);
            }
        }
    }
    let mut dead = vec![false; lir.len()];
    for site in &sites {
        stats.fused[site.kind.index()] += 1;
        lir[site.t] = site.new_cmp;
        if let LirInsn::Jcc { cond, .. } = &mut lir[site.j] {
            *cond = site.cond;
        }
        for &d in &site.delete {
            dead[d] = true;
        }
    }
    if dead.iter().any(|d| *d) {
        let mut idx = 0;
        lir.retain(|_| {
            let keep = !dead[idx];
            idx += 1;
            keep
        });
    }
}

fn nzcv(table: &RuleTable) -> i32 {
    table.nzcv_off
}

// ---------------------------------------------------------------------------
// Address-mode folding
// ---------------------------------------------------------------------------

fn mem_of(insn: &LirInsn) -> Option<LirMem> {
    match insn {
        LirInsn::Load { addr, .. }
        | LirInsn::LoadSx { addr, .. }
        | LirInsn::Store { addr, .. }
        | LirInsn::StoreImm { addr, .. }
        | LirInsn::LoadXmm { addr, .. }
        | LirInsn::StoreXmm { addr, .. } => Some(*addr),
        _ => None,
    }
}

fn set_mem(insn: &mut LirInsn, new: LirMem) {
    match insn {
        LirInsn::Load { addr, .. }
        | LirInsn::LoadSx { addr, .. }
        | LirInsn::Store { addr, .. }
        | LirInsn::StoreImm { addr, .. }
        | LirInsn::LoadXmm { addr, .. }
        | LirInsn::StoreXmm { addr, .. } => *addr = new,
        _ => unreachable!(),
    }
}

/// Matches `y = i << k` (`k <= 3`) defined before `before`, with `i` stable
/// up to `use_at`.  Returns the pre-shift register and the x86 scale.
fn shift_chain(u: &Unit, y: Vreg, before: usize, use_at: usize) -> Option<(Vreg, u8)> {
    let sd = u.last_def_before(y, before)?;
    let LirInsn::Alu {
        op: AluOp::Shl,
        dst,
        src: LirOperand::Imm(k),
    } = &u.lir[sd]
    else {
        return None;
    };
    if *k > 3 {
        return None;
    }
    let sm = u.last_def_before(*dst, sd)?;
    let LirInsn::MovReg { src: i0, .. } = &u.lir[sm] else {
        return None;
    };
    if i0.class != VregClass::Gpr || !u.same_reaching_def(*i0, sd, use_at) {
        return None;
    }
    Some((*i0, 1u8 << *k))
}

/// The address-mode folding pass: memory operands whose base was computed
/// as `x + y` (optionally `y = i << k`) become scaled-index operands.  Runs
/// after store-to-load forwarding and copy propagation so address values
/// that round-tripped through the register file (the `lsl`+`ldr_reg` guest
/// idiom) are visible as register chains.
pub fn fold_addressing(lir: &mut [LirInsn], table: &RuleTable, stats: &mut IdiomStats) {
    // Sites are found on the unmodified unit and rewritten afterwards; a
    // rewrite only touches its own memory operand, which no other site
    // reads, so this is the same as rewriting in place.
    let u = Unit::new(lir, nzcv(table));
    let mut folds: Vec<(usize, LirMem)> = Vec::new();
    for (i, insn) in lir.iter().enumerate() {
        let Some(addr) = mem_of(insn) else {
            continue;
        };
        let (LirBase::Vreg(t), None) = (addr.base, addr.index) else {
            continue;
        };
        let Some(d) = u.last_def_before(t, i) else {
            continue;
        };
        let LirInsn::Alu {
            op: AluOp::Add,
            dst,
            src: LirOperand::Vreg(y),
        } = u.lir[d]
        else {
            continue;
        };
        let Some(m) = u.last_def_before(dst, d) else {
            continue;
        };
        let LirInsn::MovReg { src: x, .. } = u.lir[m] else {
            continue;
        };
        if x.class != VregClass::Gpr || y.class != VregClass::Gpr {
            continue;
        }
        // Both summands must still hold their add-time values at the access.
        if !u.same_reaching_def(x, d, i) || !u.same_reaching_def(y, d, i) {
            continue;
        }
        let folded = if let Some((i0, scale)) = shift_chain(&u, y, d, i) {
            LirMem {
                base: LirBase::Vreg(x),
                index: Some((i0, scale)),
                disp: addr.disp,
            }
        } else if let Some((i0, scale)) = shift_chain(&u, x, d, i) {
            LirMem {
                base: LirBase::Vreg(y),
                index: Some((i0, scale)),
                disp: addr.disp,
            }
        } else {
            LirMem {
                base: LirBase::Vreg(x),
                index: Some((y, 1)),
                disp: addr.disp,
            }
        };
        stats.candidates[RuleKind::AddrFold.index()] += 1;
        if table.enabled(RuleKind::AddrFold) {
            folds.push((i, folded));
        }
    }
    stats.fused[RuleKind::AddrFold.index()] += folds.len() as u32;
    for (i, folded) in folds {
        set_mem(&mut lir[i], folded);
    }
}

// ---------------------------------------------------------------------------
// Bulk-move rewriting
// ---------------------------------------------------------------------------

/// The matched byte-memset loop roles.
struct MemsetLoop {
    cur: i32,
    val: i32,
    cnt: i32,
}

/// Matches the byte-memset body in the open window `(h, e)` between the
/// loop-header label and the back-edge.  The body must consist exactly of:
/// a byte store of a freshly-loaded value register through the current
/// pointer, the pointer incremented by one and the counter decremented by
/// one (both through the register file), and a fused `Cmp cnt',0; Jcc Eq`
/// loop exit — plus PC bookkeeping.  Anything else refuses the match.
fn match_memset(u: &Unit, h: usize, e: usize, nzcv_off: i32) -> Option<MemsetLoop> {
    let mut byte_store: Option<(usize, Vreg, Vreg)> = None; // (idx, value, addr base)
    let mut slot_loads: Vec<(usize, i32, Vreg)> = Vec::new();
    let mut slot_stores: Vec<(usize, i32, Vreg)> = Vec::new();
    let mut cmp: Option<(usize, Vreg)> = None;
    let mut jcc: Option<usize> = None;
    let mut first_incpc: Option<usize> = None;
    for (k, insn) in u.lir.iter().enumerate().take(e).skip(h + 1) {
        match insn {
            LirInsn::IncPc { .. } => {
                if first_incpc.is_none() {
                    first_incpc = Some(k);
                }
            }
            LirInsn::Load { dst, .. } => {
                let slot = insn.regfile_load()?;
                if slot.size != MemSize::U64 {
                    return None;
                }
                slot_loads.push((k, slot.offset, *dst));
            }
            LirInsn::Store { src, addr, size } => {
                if let Some(slot) = insn.regfile_store() {
                    if slot.size != MemSize::U64 {
                        return None;
                    }
                    slot_stores.push((k, slot.offset, *src));
                } else if addr.index.is_none() && addr.disp == 0 {
                    let LirBase::Vreg(base) = addr.base else {
                        return None;
                    };
                    if *size != MemSize::U8 || byte_store.is_some() {
                        return None;
                    }
                    byte_store = Some((k, *src, base));
                } else {
                    return None;
                }
            }
            LirInsn::MovReg { .. } => {}
            LirInsn::Alu {
                op: AluOp::Add | AluOp::Sub,
                src: LirOperand::Imm(1),
                ..
            } => {}
            LirInsn::Cmp {
                a,
                b: LirOperand::Imm(0),
            } => {
                if cmp.is_some() {
                    return None;
                }
                cmp = Some((k, *a));
            }
            LirInsn::Jcc { cond: Cond::Eq, .. } => {
                if jcc.is_some() {
                    return None;
                }
                jcc = Some(k);
            }
            other => {
                // Tolerate pure leftovers whose result nothing consumes
                // (pre-DCE fusion residue), refuse everything else.
                let harmless = match other.def() {
                    Some(d) => {
                        u.uses[d.id as usize] == 0 && !other.has_side_effect() && !other.may_fault()
                    }
                    None => false,
                };
                if !harmless {
                    return None;
                }
            }
        }
    }
    let (bs_idx, bs_val, bs_base) = byte_store?;
    let (cmp_idx, cmp_reg) = cmp?;
    let jcc_idx = jcc?;
    if jcc_idx < cmp_idx || jcc_idx + 1 != e {
        return None;
    }
    // The compare must be the instruction the exit branch consumes.
    if find_jcc(u.lir, cmp_idx) != Some(jcc_idx) {
        return None;
    }
    // The byte store must belong to the first guest instruction of the loop
    // (no PC advance before it) and precede both slot write-backs, so the
    // wide path's fault point has the same precise state.
    if first_incpc.is_some_and(|f| f < bs_idx) {
        return None;
    }
    // Exactly two slot stores: the pointer and the counter.
    if slot_stores.len() != 2 {
        return None;
    }
    // Trace each store back through `MovReg t <- base; Alu t, Imm 1`.
    let trace_update = |src: Vreg, at: usize, op: AluOp| -> Option<Vreg> {
        let d = u.last_def_before(src, at)?;
        let LirInsn::Alu {
            op: got,
            dst,
            src: LirOperand::Imm(1),
        } = &u.lir[d]
        else {
            return None;
        };
        if *got != op {
            return None;
        }
        let m = u.last_def_before(*dst, d)?;
        let LirInsn::MovReg { src: base, .. } = &u.lir[m] else {
            return None;
        };
        Some(*base)
    };
    // A role register must be this iteration's in-window load of its slot.
    let loaded_from = |v: Vreg, at: usize| -> Option<i32> {
        let d = u.last_def_before(v, at)?;
        slot_loads
            .iter()
            .find(|(k, _, dst)| *k == d && *dst == v)
            .map(|(_, off, _)| *off)
    };
    let mut cur: Option<i32> = None;
    let mut cnt: Option<(i32, usize)> = None;
    for &(k, off, src) in &slot_stores {
        if k < bs_idx {
            return None;
        }
        if let Some(base) = trace_update(src, k, AluOp::Add) {
            // Pointer update: `base` must be this iteration's load of the
            // stored slot.  (The byte store's address register is tied to
            // the same slot below; both loads precede the sole in-window
            // store of the slot, so they hold the same value even though
            // raw LIR gives each guest instruction its own load.)
            if loaded_from(base, k) != Some(off) || cur.is_some() {
                return None;
            }
            cur = Some(off);
        } else if let Some(base) = trace_update(src, k, AluOp::Sub) {
            if loaded_from(base, k) != Some(off) || cnt.is_some() {
                return None;
            }
            cnt = Some((off, k));
        } else {
            return None;
        }
    }
    let cur_off = cur?;
    let (cnt_off, cnt_store_idx) = cnt?;
    if cur_off == cnt_off {
        return None;
    }
    // The exit compare must read the decremented counter: either the Sub
    // result itself (the value the counter store wrote) or a reload of the
    // slot after the write-back.
    let cmp_src = u.last_def_before(cmp_reg, cmp_idx)?;
    let reads_new_cnt = match &u.lir[cmp_src] {
        LirInsn::Alu {
            op: AluOp::Sub,
            src: LirOperand::Imm(1),
            ..
        } => {
            let (_, _, st_src) = slot_stores
                .iter()
                .find(|(k, _, _)| *k == cnt_store_idx)
                .copied()?;
            u.last_def_before(st_src, cnt_store_idx) == Some(cmp_src)
        }
        LirInsn::Load { .. } => {
            u.lir[cmp_src].regfile_load()
                == Some(RegFileAccess {
                    offset: cnt_off,
                    size: MemSize::U64,
                })
                && cmp_src > cnt_store_idx
        }
        _ => false,
    };
    if !reads_new_cnt {
        return None;
    }
    // The byte store must write through the iteration's pointer load, and
    // its value register must be a fresh in-window load of a third slot.
    if loaded_from(bs_base, bs_idx) != Some(cur_off) {
        return None;
    }
    let val_off = loaded_from(bs_val, bs_idx)?;
    if val_off == cur_off || val_off == cnt_off {
        return None;
    }
    // All three slots must be plain 64-bit X-register slots below NZCV.
    for off in [cur_off, val_off, cnt_off] {
        if off < 0 || off % 8 != 0 || off + 8 > nzcv_off {
            return None;
        }
    }
    Some(MemsetLoop {
        cur: cur_off,
        val: val_off,
        cnt: cnt_off,
    })
}

/// The bulk-move pass: splices a wide fast path ahead of a recognised
/// byte-memset loop body.  See the module docs for the shape and the
/// soundness argument (the `>= 9` guard keeps the wide trip exit-free, the
/// page guard keeps its fault behaviour byte-identical, and the weighted
/// back-edge keeps trip accounting exact).
pub fn rewrite_bulk_loops(lir: &mut Vec<LirInsn>, table: &RuleTable, stats: &mut IdiomStats) {
    let backedges: Vec<usize> = lir
        .iter()
        .enumerate()
        .filter_map(|(i, insn)| matches!(insn, LirInsn::BackEdge { .. }).then_some(i))
        .collect();
    let [e] = backedges[..] else {
        return;
    };
    let LirInsn::BackEdge {
        pc,
        label,
        reconcile: false,
        weight: 1,
    } = lir[e]
    else {
        return;
    };
    let Some(h) = lir
        .iter()
        .position(|i| matches!(i, LirInsn::Label { id } if *id == label))
    else {
        return;
    };
    if h >= e {
        return;
    }
    // The loop body may be unrolled: N identical copies of the guest body,
    // each ending in a side-exit `Jcc; SetPcImm <head>; TraceEdge`, with the
    // back-edge closing the last.  Split at the TraceEdge seams and demand
    // that EVERY segment match the memset body with the same slot roles —
    // that proves the whole loop does nothing but the memset, so a wide
    // trip spliced at the head replaces full iterations and nothing else.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut seg_start = h;
    for k in h + 1..e {
        if matches!(lir[k], LirInsn::TraceEdge) {
            let LirInsn::SetPcImm { imm } = lir[k - 1] else {
                return;
            };
            if imm != pc {
                return;
            }
            segments.push((seg_start, k - 1));
            seg_start = k;
        }
    }
    segments.push((seg_start, e));
    let u = Unit::new(lir, nzcv(table));
    let mut roles: Option<MemsetLoop> = None;
    for &(s0, s1) in &segments {
        let Some(r) = match_memset(&u, s0, s1, nzcv(table)) else {
            return;
        };
        match &roles {
            Some(prev) if prev.cur != r.cur || prev.val != r.val || prev.cnt != r.cnt => {
                return;
            }
            Some(_) => {}
            None => roles = Some(r),
        }
    }
    let Some(roles) = roles else {
        return;
    };
    stats.candidates[RuleKind::BulkMemset.index()] += 1;
    if !table.enabled(RuleKind::BulkMemset) {
        return;
    }
    stats.fused[RuleKind::BulkMemset.index()] += 1;

    let mut next_id = vreg_bound(lir) as u32;
    let mut fresh = || {
        let v = Vreg {
            id: next_id,
            class: VregClass::Gpr,
        };
        next_id += 1;
        v
    };
    let byte_label = label_bound(lir) as u32;

    let rf = LirMem::regfile;
    let (va, vn, vp, vv, vs, vab, vnb) = (
        fresh(),
        fresh(),
        fresh(),
        fresh(),
        fresh(),
        fresh(),
        fresh(),
    );
    let wide = vec![
        LirInsn::Load {
            dst: va,
            addr: rf(roles.cur),
            size: MemSize::U64,
        },
        LirInsn::Load {
            dst: vn,
            addr: rf(roles.cnt),
            size: MemSize::U64,
        },
        // Fewer than 9 bytes left: the wide trip could overrun the exit, so
        // take the architectural byte path.
        LirInsn::Cmp {
            a: vn,
            b: LirOperand::Imm(9),
        },
        LirInsn::Jcc {
            cond: Cond::Lt,
            label: byte_label,
        },
        // Next 8 bytes must stay inside one 4 KiB page so the wide store
        // faults exactly when the byte store would.
        LirInsn::MovReg { dst: vp, src: va },
        LirInsn::Alu {
            op: AluOp::And,
            dst: vp,
            src: LirOperand::Imm(0xFFF),
        },
        LirInsn::Cmp {
            a: vp,
            b: LirOperand::Imm(4088),
        },
        LirInsn::Jcc {
            cond: Cond::Gt,
            label: byte_label,
        },
        // Splat the low byte of the value register across 64 bits.
        LirInsn::Load {
            dst: vv,
            addr: rf(roles.val),
            size: MemSize::U64,
        },
        LirInsn::MovReg { dst: vs, src: vv },
        LirInsn::Alu {
            op: AluOp::And,
            dst: vs,
            src: LirOperand::Imm(0xFF),
        },
        LirInsn::Alu {
            op: AluOp::Mul,
            dst: vs,
            src: LirOperand::Imm(0x0101_0101_0101_0101),
        },
        LirInsn::Store {
            src: vs,
            addr: LirMem::vreg(va, 0),
            size: MemSize::U64,
        },
        LirInsn::MovReg { dst: vab, src: va },
        LirInsn::Alu {
            op: AluOp::Add,
            dst: vab,
            src: LirOperand::Imm(8),
        },
        LirInsn::Store {
            src: vab,
            addr: rf(roles.cur),
            size: MemSize::U64,
        },
        LirInsn::MovReg { dst: vnb, src: vn },
        LirInsn::Alu {
            op: AluOp::Sub,
            dst: vnb,
            src: LirOperand::Imm(8),
        },
        LirInsn::Store {
            src: vnb,
            addr: rf(roles.cnt),
            size: MemSize::U64,
        },
        // One transfer, eight credited guest iterations.
        LirInsn::BackEdge {
            pc,
            label,
            reconcile: false,
            weight: 8,
        },
        LirInsn::Label { id: byte_label },
    ];
    lir.splice(h + 1..h + 1, wide);
}

/// Runs the pre-optimisation idiom passes (fusion, then bulk rewriting) on
/// raw LIR.  [`fold_addressing`] runs separately, after forwarding and copy
/// propagation have connected regfile round-trips.
pub fn apply_early(lir: &mut Vec<LirInsn>, table: &RuleTable, stats: &mut IdiomStats) {
    fuse_branches(lir, table, stats);
    rewrite_bulk_loops(lir, table, stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> Vreg {
        Vreg {
            id,
            class: VregClass::Gpr,
        }
    }

    fn movi(dst: u32, imm: u64) -> LirInsn {
        LirInsn::MovImm { dst: v(dst), imm }
    }

    fn cmp(a: u32, b: u32) -> LirInsn {
        LirInsn::Cmp {
            a: v(a),
            b: LirOperand::Vreg(v(b)),
        }
    }

    fn test_self(cv: u32) -> LirInsn {
        LirInsn::Test {
            a: v(cv),
            b: LirOperand::Vreg(v(cv)),
        }
    }

    fn setcc(cond: Cond, dst: u32) -> LirInsn {
        LirInsn::SetCc { cond, dst: v(dst) }
    }

    fn jcc(cond: Cond) -> LirInsn {
        LirInsn::Jcc { cond, label: 1 }
    }

    fn fuse_with(lir: &mut Vec<LirInsn>, table: &RuleTable) -> IdiomStats {
        let mut stats = IdiomStats::default();
        fuse_branches(lir, table, &mut stats);
        stats
    }

    fn fuse(lir: &mut Vec<LirInsn>) -> IdiomStats {
        fuse_with(lir, RuleTable::builtin())
    }

    // A CBZ-shaped site: materialised compare re-tested by the branch.
    fn cbz_site(jc: Cond) -> Vec<LirInsn> {
        vec![
            movi(0, 7),
            movi(1, 9),
            cmp(0, 1),
            setcc(Cond::Eq, 2),
            test_self(2),
            jcc(jc),
            LirInsn::Ret,
        ]
    }

    #[test]
    fn table_roundtrips_through_text() {
        let mut t = RuleTable::full();
        t.set_enabled(RuleKind::AddrFold, false);
        t.set_enabled(RuleKind::BulkMemset, false);
        t.set_weight(RuleKind::FuseCmpBr, 36);
        t.set_weight(RuleKind::FuseCbz, 18);
        let back = RuleTable::parse(&t.serialize()).expect("serialized table parses");
        assert_eq!(back.nzcv_off, t.nzcv_off);
        for kind in RuleKind::ALL {
            assert_eq!(back.enabled(kind), t.enabled(kind), "{}", kind.name());
            assert_eq!(back.weight(kind), t.weight(kind), "{}", kind.name());
        }
        assert_eq!(back.serialize(), t.serialize());
        assert_eq!(back.hash(), t.hash());
    }

    #[test]
    fn table_hash_tracks_enablement_not_weights() {
        let full = RuleTable::full();
        // Weights are miner bookkeeping; they never change generated code,
        // so they must not perturb the reuse-key contribution.
        let mut weighted = RuleTable::full();
        weighted.set_weight(RuleKind::FuseTstBr, 17);
        assert_eq!(full.hash(), weighted.hash());
        // Enablement does change generated code.
        let mut pruned = RuleTable::full();
        pruned.set_enabled(RuleKind::BulkMemset, false);
        assert_ne!(full.hash(), pruned.hash());
        assert_ne!(full.hash(), RuleTable::observe_only().hash());
        // So does the guest NZCV layout the recogniser assumes.
        let mut moved = RuleTable::full();
        moved.nzcv_off += 8;
        assert_ne!(full.hash(), moved.hash());
    }

    #[test]
    fn cbz_site_fuses_to_direct_compare() {
        let mut lir = cbz_site(Cond::Ne);
        let stats = fuse(&mut lir);
        assert_eq!(stats.fused[RuleKind::FuseCbz.index()], 1);
        assert_eq!(stats.candidates[RuleKind::FuseCbz.index()], 1);
        // SetCc and the original Cmp die with the fusion; the re-test is
        // rewritten into the compare and the branch takes the host cond
        // directly (CBNZ on an Eq boolean == branch-if-equal).
        assert_eq!(lir.len(), 5);
        assert!(lir
            .iter()
            .all(|i| !matches!(i, LirInsn::SetCc { .. } | LirInsn::Test { .. })));
        assert!(matches!(
            lir[2],
            LirInsn::Cmp {
                a,
                b: LirOperand::Vreg(b),
            } if a == v(0) && b == v(1)
        ));
        assert!(matches!(lir[3], LirInsn::Jcc { cond: Cond::Eq, .. }));
    }

    #[test]
    fn inverted_branch_polarity_inverts_host_cond() {
        // CBZ on an Eq boolean branches when the compare did NOT hold.
        let mut lir = cbz_site(Cond::Eq);
        let stats = fuse(&mut lir);
        assert_eq!(stats.fused[RuleKind::FuseCbz.index()], 1);
        assert!(matches!(lir[3], LirInsn::Jcc { cond: Cond::Ne, .. }));
    }

    #[test]
    fn disabled_rule_still_counts_candidates() {
        let mut lir = cbz_site(Cond::Ne);
        let before = lir.clone();
        let stats = fuse_with(&mut lir, &RuleTable::observe_only());
        assert_eq!(stats.total_fused(), 0);
        assert_eq!(stats.candidates[RuleKind::FuseCbz.index()], 1);
        assert_eq!(lir.len(), before.len(), "observe-only must not rewrite");
    }

    #[test]
    fn flag_reader_after_branch_refuses_fusion() {
        // A SetCc past the branch still wants the *old* host flags; fusing
        // would clobber them with the re-issued compare's.  This gate is
        // only constructible at the LIR level — guest frontends never emit
        // it — which is exactly why it needs a synthetic test.
        let mut lir = cbz_site(Cond::Ne);
        let ret = lir.pop().unwrap();
        lir.push(setcc(Cond::Lt, 5));
        lir.push(LirInsn::Store {
            src: v(5),
            addr: LirMem::regfile(0),
            size: hvm::MemSize::U64,
        });
        lir.push(ret);
        let len = lir.len();
        let stats = fuse(&mut lir);
        assert_eq!(
            stats,
            IdiomStats::default(),
            "live flags must gate the site"
        );
        assert_eq!(lir.len(), len);
    }

    #[test]
    fn join_in_traced_span_refuses_fusion() {
        // A Label between the compare and the re-test could let another
        // path supply a different boolean; the span check refuses it.
        let mut lir = cbz_site(Cond::Ne);
        lir.insert(4, LirInsn::Label { id: 9 });
        let stats = fuse(&mut lir);
        assert_eq!(stats, IdiomStats::default());
    }

    #[test]
    fn redefined_operand_refuses_fusion() {
        // v0 is clobbered between the compare and the branch, so re-issuing
        // `Cmp v0, v1` at the branch would compare the wrong value.
        let mut lir = cbz_site(Cond::Ne);
        lir.insert(4, movi(0, 1234));
        let stats = fuse(&mut lir);
        assert_eq!(stats, IdiomStats::default());
    }
}
