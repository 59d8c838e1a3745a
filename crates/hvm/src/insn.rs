//! The HVM64 instruction set.
//!
//! These are the instructions the DBT back-ends emit.  The shapes follow
//! x86-64 closely enough that the paper's code examples (Figs. 10, 12, 13)
//! map one-to-one: a guest-register-file base pointer lives in [`Gpr::Rbp`],
//! the emulated guest program counter in [`Gpr::R15`], memory operands use
//! base + scaled-index + displacement addressing, and scalar / packed
//! floating-point work happens in [`Xmm`] registers.

use std::fmt;

/// General-purpose host registers (x86-64 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Gpr {
    /// Return / scratch register.
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    /// Host stack pointer (reserved by the execution engine).
    Rsp = 4,
    /// Guest register-file base pointer (reserved by both DBT back-ends).
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    /// Emulated guest program counter (reserved by both DBT back-ends).
    R15 = 15,
}

impl Gpr {
    /// All sixteen registers in encoding order.
    pub const ALL: [Gpr; 16] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsp,
        Gpr::Rbp,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// Registers available to the register allocator (everything except the
    /// reserved stack pointer, guest register file base and guest PC).
    pub const ALLOCATABLE: [Gpr; 13] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
    ];

    /// Converts an encoding index back to a register.
    pub fn from_index(i: u8) -> Option<Gpr> {
        Gpr::ALL.get(i as usize).copied()
    }

    /// Encoding index of the register.
    pub fn index(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        write!(f, "%{}", names[*self as usize])
    }
}

/// Vector (SSE-like) host registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xmm(pub u8);

impl Xmm {
    /// Number of vector registers.
    pub const COUNT: u8 = 16;
}

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%xmm{}", self.0)
    }
}

/// Width of a memory access or sub-register operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 8 bits.
    U8,
    /// 16 bits.
    U16,
    /// 32 bits.
    U32,
    /// 64 bits.
    U64,
    /// 128 bits (vector only).
    U128,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::U8 => 1,
            MemSize::U16 => 2,
            MemSize::U32 => 4,
            MemSize::U64 => 8,
            MemSize::U128 => 16,
        }
    }

    /// Mask selecting the low `bytes()` bytes of a 64-bit value.
    pub fn mask(self) -> u64 {
        match self {
            MemSize::U8 => 0xFF,
            MemSize::U16 => 0xFFFF,
            MemSize::U32 => 0xFFFF_FFFF,
            MemSize::U64 | MemSize::U128 => u64::MAX,
        }
    }
}

/// A memory operand: `disp + base + index * scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base register.
    pub base: Gpr,
    /// Optional scaled index register.
    pub index: Option<(Gpr, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// A base-plus-displacement reference.
    pub fn base_disp(base: Gpr, disp: i32) -> Self {
        MemRef {
            base,
            index: None,
            disp,
        }
    }

    /// A reference to `[base]`.
    pub fn base(base: Gpr) -> Self {
        Self::base_disp(base, 0)
    }

    /// A base + index*scale + disp reference.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> Self {
        MemRef {
            base,
            index: Some((index, scale)),
            disp,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some((idx, scale)) => write!(f, "{:#x}({},{},{})", self.disp, self.base, idx, scale),
            None => write!(f, "{:#x}({})", self.disp, self.base),
        }
    }
}

/// A register-or-immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Gpr),
    /// A 64-bit immediate.
    Imm(u64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "${v:#x}"),
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Signed multiply (low 64 bits).
    Mul,
    /// Unsigned multiply returning the high 64 bits.
    MulHiU,
    /// Signed multiply returning the high 64 bits.
    MulHiS,
    /// Unsigned divide.
    DivU,
    /// Signed divide.
    DivS,
    /// Unsigned remainder.
    RemU,
    /// Signed remainder.
    RemS,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Rotate right.
    Ror,
}

/// Condition codes for `Jcc`, `SetCc` and `CmovCc`, mirroring the x86 set the
/// back-ends need for AArch64 condition fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF).
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned lower (CF).
    Lt,
    /// Unsigned lower or equal.
    Le,
    /// Unsigned higher or same.
    Ge,
    /// Unsigned higher.
    Gt,
    /// Signed less than.
    SLt,
    /// Signed less or equal.
    SLe,
    /// Signed greater or equal.
    SGe,
    /// Signed greater.
    SGt,
    /// Negative (SF).
    Mi,
    /// Non-negative.
    Pl,
    /// Overflow set.
    Vs,
    /// Overflow clear.
    Vc,
}

impl Cond {
    /// The condition that is true exactly when `self` is false.
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Ge => Cond::Lt,
            Cond::Gt => Cond::Le,
            Cond::SLt => Cond::SGe,
            Cond::SLe => Cond::SGt,
            Cond::SGe => Cond::SLt,
            Cond::SGt => Cond::SLe,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
        }
    }
}

/// Scalar floating-point operations on vector registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Scalar double add (`addsd`).
    AddD,
    SubD,
    MulD,
    DivD,
    SqrtD,
    MinD,
    MaxD,
    /// Scalar single-precision variants.
    AddS,
    SubS,
    MulS,
    DivS,
    SqrtS,
    /// Fused multiply-add (`vfmadd`), dst = dst * src1 + src2 handled by the
    /// three-operand form in [`MachInsn::FpFma`].
    FmaD,
}

/// Packed (SIMD) integer / float operations, 128-bit lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// Packed 64-bit integer add.
    PAddQ,
    /// Packed 64-bit integer sub.
    PSubQ,
    /// Packed 32-bit integer add.
    PAddD,
    /// Packed 32-bit multiply (low).
    PMulD,
    /// Packed double-precision add.
    AddPd,
    /// Packed double-precision multiply.
    MulPd,
    /// Packed double-precision subtract.
    SubPd,
    /// Bitwise AND of the full 128 bits.
    PAnd,
    /// Bitwise OR of the full 128 bits.
    POr,
    /// Bitwise XOR of the full 128 bits.
    PXor,
    /// Broadcast the low 64 bits to both lanes.
    Dup64,
}

/// One HVM64 machine instruction.
///
/// Register operands here are *physical* registers; the DBT's low-level IR
/// uses the same opcodes with virtual registers and is lowered onto this type
/// by register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachInsn {
    /// No operation.
    Nop,
    /// `dst <- imm`.
    MovImm { dst: Gpr, imm: u64 },
    /// `dst <- src`.
    MovReg { dst: Gpr, src: Gpr },
    /// Zero-extending load from virtual memory.
    Load {
        dst: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Sign-extending load from virtual memory.
    LoadSx {
        dst: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Store to virtual memory.
    Store {
        src: Gpr,
        addr: MemRef,
        size: MemSize,
    },
    /// Store an immediate to virtual memory.
    StoreImm {
        imm: u64,
        addr: MemRef,
        size: MemSize,
    },
    /// Address computation without memory access.
    Lea { dst: Gpr, addr: MemRef },
    /// ALU operation `dst <- dst op src` (also sets flags for Add/Sub/And/Or/Xor).
    Alu { op: AluOp, dst: Gpr, src: Operand },
    /// Compare: sets flags from `a - b` without writing a register.
    Cmp { a: Gpr, b: Operand },
    /// Test: sets flags from `a & b`.
    Test { a: Gpr, b: Operand },
    /// Two's complement negate.
    Neg { dst: Gpr },
    /// Bitwise not.
    Not { dst: Gpr },
    /// Zero-extend the low `size` bits of `src` into `dst`.
    MovZx { dst: Gpr, src: Gpr, size: MemSize },
    /// Sign-extend the low `size` bits of `src` into `dst`.
    MovSx { dst: Gpr, src: Gpr, size: MemSize },
    /// Set `dst` to 1 if the condition holds, else 0.
    SetCc { cond: Cond, dst: Gpr },
    /// Conditional move.
    CmovCc { cond: Cond, dst: Gpr, src: Gpr },
    /// Unconditional relative jump (offset in instructions within the block).
    Jmp { target: i32 },
    /// Conditional relative jump.
    Jcc { cond: Cond, target: i32 },
    /// Call a registered runtime helper.  Arguments/results use the standard
    /// registers (`rdi`, `rsi`, `rdx`, `rcx` in; `rax` out).
    CallHelper { helper: u16 },
    /// Return from the translated block to the execution engine.
    Ret,
    /// Load into a vector register.
    LoadXmm {
        dst: Xmm,
        addr: MemRef,
        size: MemSize,
    },
    /// Store from a vector register.
    StoreXmm {
        src: Xmm,
        addr: MemRef,
        size: MemSize,
    },
    /// Move GPR to the low 64 bits of a vector register.
    MovGprToXmm { dst: Xmm, src: Gpr },
    /// Move the low 64 bits of a vector register to a GPR.
    MovXmmToGpr { dst: Gpr, src: Xmm },
    /// Scalar FP operation `dst <- dst op src`.
    Fp { op: FpOp, dst: Xmm, src: Xmm },
    /// Fused multiply-add `dst <- a * b + dst` (double precision).
    FpFma { dst: Xmm, a: Xmm, b: Xmm },
    /// Scalar double compare: sets integer flags (like `ucomisd`).
    FpCmp { a: Xmm, b: Xmm },
    /// Convert signed 64-bit integer in GPR to double in XMM.
    CvtI2D { dst: Xmm, src: Gpr },
    /// Convert double in XMM to signed 64-bit integer in GPR (round to nearest).
    CvtD2I { dst: Gpr, src: Xmm },
    /// Convert single to double.
    CvtS2D { dst: Xmm, src: Xmm },
    /// Convert double to single.
    CvtD2S { dst: Xmm, src: Xmm },
    /// Packed vector operation `dst <- dst op src`.
    Vec { op: VecOp, dst: Xmm, src: Xmm },
    /// Software interrupt (enters ring 0 via the IDT).
    Int { vector: u8 },
    /// Return from interrupt (ring 0 only).
    IRet,
    /// Fast system call into ring 0.
    Syscall,
    /// Return from a fast system call.
    Sysret,
    /// Write a byte/word to an I/O port from `src` (ring 0 only).
    Out { port: u16, src: Gpr },
    /// Read from an I/O port into `dst` (ring 0 only).
    In { dst: Gpr, port: u16 },
    /// Write CR3 (page-table base + PCID) from a register (ring 0 only).
    WriteCr3 { src: Gpr },
    /// Read CR3 into a register (ring 0 only).
    ReadCr3 { dst: Gpr },
    /// Flush the entire TLB, all PCIDs (ring 0 only).
    TlbFlushAll,
    /// Flush TLB entries for the current PCID only (ring 0 only).
    TlbFlushPcid,
    /// Invalidate a single virtual page (address in `addr`, ring 0 only).
    Invlpg { addr: Gpr },
    /// Halt the machine (ring 0 only) — used by the execution engine to stop.
    Hlt,
    /// Pseudo-instruction marking an intra-region constituent boundary:
    /// control passed from one stitched guest basic block to the next without
    /// returning to the dispatcher.  Costs [`crate::CostModel::region_transfer`]
    /// and bumps [`crate::PerfCounters::region_transfers`].
    TraceEdge,
    /// A region-internal backward transfer: sets the guest PC (`%r15`) to
    /// `pc` and jumps `target` instructions backward within the same
    /// translation — the loop-back edge of a looping region.  On real
    /// hardware this is a single taken branch (the guest PC is implicit in
    /// the branch target), so it costs [`crate::CostModel::backedge`] and
    /// bumps [`crate::PerfCounters::backedge_transfers`].  Before taking the
    /// jump the interpreter polls [`crate::Runtime::loop_exit_pending`]; a
    /// pending event (self-modifying code on a constituent page, a queued
    /// guest event) turns the transfer into a dispatcher exit with the PC
    /// already precise at the loop header.
    BackEdge {
        /// Guest virtual address of the loop header (the value `%r15` takes).
        pc: u64,
        /// Relative jump distance (negative: backward within the block).
        target: i32,
        /// Loop-exit discipline.  `false`: a pending-event poll (or the trip
        /// limit) returns straight to the dispatcher — every slot was pinned
        /// architecturally current by the optimiser, so nothing remains to
        /// do.  `true`: the region holds *promoted* loop-carried slots in
        /// host registers, and a loop exit must instead fall through to the
        /// reconcile block that follows this instruction (compensation
        /// stores materialising the promoted slots, then `Ret`).
        reconcile: bool,
        /// Guest loop iterations one transfer covers (1 for ordinary
        /// back-edges; >1 for a wide bulk-move trip, see `dbt::idiom`).
        /// The interpreter credits `weight` transfers per taken jump so the
        /// trip limit and iteration accounting stay exact.
        weight: u32,
    },
    /// Register-to-register vector move.  `U64` copies the low lane and
    /// zeroes the upper (the same write shape as a `U64` [`MachInsn::LoadXmm`]);
    /// `U128` copies both lanes.
    MovXmm { dst: Xmm, src: Xmm, size: MemSize },
}

impl MachInsn {
    /// True if the instruction unconditionally ends a straight-line run
    /// (the interpreter and encoder treat these as block terminators).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            MachInsn::Ret
                | MachInsn::Jmp { .. }
                | MachInsn::Hlt
                | MachInsn::IRet
                | MachInsn::Sysret
        )
    }

    /// True if the instruction may access guest-visible memory through the
    /// MMU (used by cost accounting and tests).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            MachInsn::Load { .. }
                | MachInsn::LoadSx { .. }
                | MachInsn::Store { .. }
                | MachInsn::StoreImm { .. }
                | MachInsn::LoadXmm { .. }
                | MachInsn::StoreXmm { .. }
        )
    }
}

impl fmt::Display for MachInsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachInsn::Nop => write!(f, "nop"),
            MachInsn::MovImm { dst, imm } => write!(f, "mov ${imm:#x}, {dst}"),
            MachInsn::MovReg { dst, src } => write!(f, "mov {src}, {dst}"),
            MachInsn::Load { dst, addr, size } => write!(f, "mov{:?} {addr}, {dst}", size),
            MachInsn::LoadSx { dst, addr, size } => write!(f, "movsx{:?} {addr}, {dst}", size),
            MachInsn::Store { src, addr, size } => write!(f, "mov{:?} {src}, {addr}", size),
            MachInsn::StoreImm { imm, addr, size } => write!(f, "mov{:?} ${imm:#x}, {addr}", size),
            MachInsn::Lea { dst, addr } => write!(f, "lea {addr}, {dst}"),
            MachInsn::Alu { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::Cmp { a, b } => write!(f, "cmp {b}, {a}"),
            MachInsn::Test { a, b } => write!(f, "test {b}, {a}"),
            MachInsn::Neg { dst } => write!(f, "neg {dst}"),
            MachInsn::Not { dst } => write!(f, "not {dst}"),
            MachInsn::MovZx { dst, src, size } => write!(f, "movzx{:?} {src}, {dst}", size),
            MachInsn::MovSx { dst, src, size } => write!(f, "movsx{:?} {src}, {dst}", size),
            MachInsn::SetCc { cond, dst } => write!(f, "set{cond:?} {dst}"),
            MachInsn::CmovCc { cond, dst, src } => write!(f, "cmov{cond:?} {src}, {dst}"),
            MachInsn::Jmp { target } => write!(f, "jmp {target:+}"),
            MachInsn::Jcc { cond, target } => write!(f, "j{cond:?} {target:+}"),
            MachInsn::CallHelper { helper } => write!(f, "call helper#{helper}"),
            MachInsn::Ret => write!(f, "ret"),
            MachInsn::LoadXmm { dst, addr, .. } => write!(f, "movq {addr}, {dst}"),
            MachInsn::StoreXmm { src, addr, .. } => write!(f, "movq {src}, {addr}"),
            MachInsn::MovGprToXmm { dst, src } => write!(f, "movq {src}, {dst}"),
            MachInsn::MovXmmToGpr { dst, src } => write!(f, "movq {src}, {dst}"),
            MachInsn::Fp { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::FpFma { dst, a, b } => write!(f, "vfmadd {a}, {b}, {dst}"),
            MachInsn::FpCmp { a, b } => write!(f, "ucomisd {b}, {a}"),
            MachInsn::CvtI2D { dst, src } => write!(f, "cvtsi2sd {src}, {dst}"),
            MachInsn::CvtD2I { dst, src } => write!(f, "cvtsd2si {src}, {dst}"),
            MachInsn::CvtS2D { dst, src } => write!(f, "cvtss2sd {src}, {dst}"),
            MachInsn::CvtD2S { dst, src } => write!(f, "cvtsd2ss {src}, {dst}"),
            MachInsn::Vec { op, dst, src } => write!(f, "{op:?} {src}, {dst}"),
            MachInsn::Int { vector } => write!(f, "int ${vector:#x}"),
            MachInsn::IRet => write!(f, "iret"),
            MachInsn::Syscall => write!(f, "syscall"),
            MachInsn::Sysret => write!(f, "sysret"),
            MachInsn::Out { port, src } => write!(f, "out {src}, ${port:#x}"),
            MachInsn::In { dst, port } => write!(f, "in ${port:#x}, {dst}"),
            MachInsn::WriteCr3 { src } => write!(f, "mov {src}, %cr3"),
            MachInsn::ReadCr3 { dst } => write!(f, "mov %cr3, {dst}"),
            MachInsn::TlbFlushAll => write!(f, "invtlb all"),
            MachInsn::TlbFlushPcid => write!(f, "invtlb pcid"),
            MachInsn::Invlpg { addr } => write!(f, "invlpg ({addr})"),
            MachInsn::Hlt => write!(f, "hlt"),
            MachInsn::TraceEdge => write!(f, "trace-edge"),
            MachInsn::BackEdge {
                pc,
                target,
                reconcile,
                weight,
            } => {
                let w = if *weight > 1 {
                    format!(" x{weight}")
                } else {
                    String::new()
                };
                if *reconcile {
                    write!(f, "back-edge.r {pc:#x}, {target}{w}")
                } else {
                    write!(f, "back-edge {pc:#x}, {target}{w}")
                }
            }
            MachInsn::MovXmm { dst, src, size } => match size {
                MemSize::U128 => write!(f, "movdqa {src}, {dst}"),
                _ => write!(f, "movq {src}, {dst}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_indices_roundtrip() {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(r.index() as usize, i);
            assert_eq!(Gpr::from_index(i as u8), Some(*r));
        }
        assert_eq!(Gpr::from_index(16), None);
    }

    #[test]
    fn allocatable_excludes_reserved() {
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::Rsp));
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::Rbp));
        assert!(!Gpr::ALLOCATABLE.contains(&Gpr::R15));
        assert_eq!(Gpr::ALLOCATABLE.len(), 13);
    }

    #[test]
    fn cond_inversion_is_involutive() {
        let all = [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Ge,
            Cond::Gt,
            Cond::SLt,
            Cond::SLe,
            Cond::SGe,
            Cond::SGt,
            Cond::Mi,
            Cond::Pl,
            Cond::Vs,
            Cond::Vc,
        ];
        for c in all {
            assert_eq!(c.invert().invert(), c);
            assert_ne!(c.invert(), c);
        }
    }

    #[test]
    fn mem_size_bytes_and_masks() {
        assert_eq!(MemSize::U8.bytes(), 1);
        assert_eq!(MemSize::U64.bytes(), 8);
        assert_eq!(MemSize::U128.bytes(), 16);
        assert_eq!(MemSize::U16.mask(), 0xFFFF);
        assert_eq!(MemSize::U32.mask(), 0xFFFF_FFFF);
    }

    #[test]
    fn terminators_and_memory_classification() {
        assert!(MachInsn::Ret.is_terminator());
        assert!(MachInsn::Jmp { target: 1 }.is_terminator());
        assert!(!MachInsn::Nop.is_terminator());
        assert!(MachInsn::Load {
            dst: Gpr::Rax,
            addr: MemRef::base(Gpr::Rbp),
            size: MemSize::U64
        }
        .touches_memory());
        assert!(!MachInsn::MovImm {
            dst: Gpr::Rax,
            imm: 0
        }
        .touches_memory());
    }

    #[test]
    fn display_formats_are_readable() {
        let insn = MachInsn::Load {
            dst: Gpr::Rax,
            addr: MemRef::base_disp(Gpr::Rbp, 0x100),
            size: MemSize::U64,
        };
        assert!(format!("{insn}").contains("rbp"));
        assert!(format!("{}", Gpr::R15).contains("r15"));
        assert!(format!("{}", Xmm(3)).contains("xmm3"));
    }
}
