//! The HVM64 machine: register state, MMU, interpreter and runtime hooks.
//!
//! The machine executes blocks of [`MachInsn`] produced by a DBT back-end.
//! All interaction with the outside world goes through a [`Runtime`]
//! implementation supplied by the hypervisor layer: helper calls, software
//! interrupts, port I/O and page-fault handling.  This mirrors the paper's
//! split between the generated code (running inside the host VM) and the
//! execution engine / hypervisor servicing its exits.

use crate::cost::CostModel;
use crate::insn::{AluOp, Cond, FpOp, Gpr, MachInsn, MemRef, MemSize, Operand, VecOp, Xmm};
use crate::mem::PhysMem;
use crate::paging::{self, WalkError, PAGE_SIZE};
use crate::perf::PerfCounters;
use crate::tlb::{Tlb, TlbEntry};

/// x86-style protection rings.  Captive runs guest system code in ring 0 and
/// guest user code in ring 3 of the host VM (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ring {
    /// Most privileged.
    Ring0 = 0,
    Ring1 = 1,
    Ring2 = 2,
    /// Least privileged (user mode).
    Ring3 = 3,
}

/// Arithmetic flags produced by ALU / compare instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagsReg {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

/// Why [`Machine::run_block`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The block executed `Ret`: return to the dispatcher.
    BlockEnd,
    /// A helper or `Hlt` requested that the whole machine stop.
    Halted,
    /// A helper requested an early return to the dispatcher.
    HelperExit,
    /// A memory access faulted and the runtime asked for it to be propagated
    /// (e.g. a genuine guest page fault).
    MemFault {
        /// Faulting virtual address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The per-run fuel limit was exhausted (runaway block).
    FuelExhausted,
    /// The block was malformed (jump out of range, bad operands, ...).
    Error(String),
}

/// Result returned by runtime helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperResult {
    /// Continue executing the block; the helper body consumed `cost` cycles.
    Continue {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
    /// Stop executing the block and return to the dispatcher.
    Exit {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
    /// Halt the machine entirely (e.g. guest powered off).
    Halt {
        /// Simulated cycles spent inside the helper.
        cost: u64,
    },
}

/// What to do after the runtime has seen a page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The runtime repaired the mapping (host PTE installed); retry the
    /// access.  `cost` is the handler's cycle cost.
    Retry {
        /// Simulated cycles spent in the fault handler.
        cost: u64,
    },
    /// The fault is guest-visible; abort the block and report it.
    Propagate {
        /// Simulated cycles spent in the fault handler.
        cost: u64,
    },
}

/// Hooks through which generated code reaches runtime services.
///
/// The hypervisor layer (Captive or the QEMU-style baseline) implements this
/// trait; the machine calls into it while interpreting.
pub trait Runtime {
    /// A `CallHelper` instruction was executed.  Arguments are in `rdi`,
    /// `rsi`, `rdx`, `rcx`; the result goes in `rax`.
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult;

    /// A software interrupt (`Int`) was executed (already in ring 0).
    fn interrupt(&mut self, vector: u8, machine: &mut Machine) -> HelperResult {
        let _ = (vector, machine);
        HelperResult::Continue { cost: 0 }
    }

    /// A fast system call (`Syscall`) was executed.
    fn syscall(&mut self, machine: &mut Machine) -> HelperResult {
        let _ = machine;
        HelperResult::Continue { cost: 0 }
    }

    /// An `Out` instruction wrote `value` to `port`.
    fn port_out(&mut self, port: u16, value: u64, machine: &mut Machine) -> HelperResult {
        let _ = (port, value, machine);
        HelperResult::Continue { cost: 0 }
    }

    /// An `In` instruction read from `port`; return the value.
    fn port_in(&mut self, port: u16, machine: &mut Machine) -> (u64, HelperResult) {
        let _ = (port, machine);
        (0, HelperResult::Continue { cost: 0 })
    }

    /// A memory access through the MMU faulted (missing mapping or
    /// permission violation).
    fn page_fault(&mut self, vaddr: u64, write: bool, machine: &mut Machine) -> FaultAction {
        let _ = (vaddr, write, machine);
        FaultAction::Propagate { cost: 0 }
    }

    /// Polled at every [`MachInsn::BackEdge`] before the loop-back jump is
    /// taken, with the machine's current simulated cycle count.  Returning
    /// `true` turns the transfer into a dispatcher exit (the guest PC is
    /// already precise at the loop header), which is how the hypervisor
    /// bounds the staleness of a looping translation: a self-modifying
    /// write to a constituent page, a queued guest event, or an expired
    /// [`crate::event::Timer`] deadline takes effect at the next iteration
    /// boundary instead of waiting for the loop to exit on its own.
    fn loop_exit_pending(&mut self, cycles: u64) -> bool {
        let _ = cycles;
        false
    }
}

/// A runtime that provides no services; useful for tests of pure code.
#[derive(Debug, Default)]
pub struct NullRuntime;

impl Runtime for NullRuntime {
    fn helper(&mut self, _id: u16, _machine: &mut Machine) -> HelperResult {
        HelperResult::Continue { cost: 0 }
    }
}

/// Configuration for a new machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Bytes of host physical memory.
    pub phys_mem: u64,
    /// Number of TLB entries.
    pub tlb_entries: usize,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_mem: 256 * 1024 * 1024,
            tlb_entries: 512,
            cost: CostModel::default(),
        }
    }
}

/// The complete architectural state of the host virtual machine.
pub struct Machine {
    /// General-purpose registers.
    pub gpr: [u64; 16],
    /// Vector registers (low, high 64-bit lanes).
    pub xmm: [[u64; 2]; 16],
    /// ALU flags.
    pub flags: FlagsReg,
    /// Current protection ring.
    pub ring: Ring,
    /// Ring to return to on `IRet` / `Sysret`.
    saved_ring: Ring,
    /// CR3: page-table root (bits 12+) and PCID (bits 0..12).
    pub cr3: u64,
    /// Whether paging is enabled (otherwise virtual == physical).
    pub paging: bool,
    /// Physical memory.
    pub mem: PhysMem,
    /// Hardware TLB.
    pub tlb: Tlb,
    /// Cost model in effect.
    pub cost: CostModel,
    /// Performance counters.
    pub perf: PerfCounters,
    /// Maximum instructions interpreted per `run_block` call.
    pub fuel_per_block: u64,
    /// Maximum [`MachInsn::BackEdge`] transfers taken per `run_block` call.
    /// A looping region otherwise runs its whole loop in one entry, which
    /// would starve the dispatcher's block budget and trip the fuel limit
    /// on long (or infinite) guest loops; at the cap the loop *yields* —
    /// the entry returns with the PC precise at the loop header and the
    /// dispatcher chains straight back in, so the cost is one chained
    /// transfer per `loop_trip_limit` iterations.
    pub loop_trip_limit: u64,
}

/// Alias used by helper implementations that want a shorter name.
pub type HelperCtx = Machine;

/// Internal signal describing a failed virtual memory access.
#[derive(Debug, Clone, Copy)]
struct MemFaultInfo {
    vaddr: u64,
    write: bool,
}

impl Machine {
    /// Creates a machine with the given configuration, paging disabled and
    /// all registers zeroed.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            gpr: [0; 16],
            xmm: [[0; 2]; 16],
            flags: FlagsReg::default(),
            ring: Ring::Ring0,
            saved_ring: Ring::Ring0,
            cr3: 0,
            paging: false,
            mem: PhysMem::new(config.phys_mem),
            tlb: Tlb::new(config.tlb_entries),
            cost: config.cost,
            perf: PerfCounters::default(),
            fuel_per_block: 10_000_000,
            loop_trip_limit: 4096,
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Gpr) -> u64 {
        self.gpr[r.index() as usize]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Gpr, v: u64) {
        self.gpr[r.index() as usize] = v;
    }

    /// Reads a vector register.
    pub fn xmm_reg(&self, x: Xmm) -> [u64; 2] {
        self.xmm[x.0 as usize]
    }

    /// Writes a vector register.
    pub fn set_xmm(&mut self, x: Xmm, v: [u64; 2]) {
        self.xmm[x.0 as usize] = v;
    }

    /// Enables paging with the given table root and PCID.
    pub fn enable_paging(&mut self, root: u64, pcid: u16) {
        self.cr3 = (root & !0xFFF) | pcid as u64;
        self.paging = true;
    }

    /// Disables paging (virtual addresses become physical addresses).
    pub fn disable_paging(&mut self) {
        self.paging = false;
    }

    /// Current PCID from CR3.
    pub fn pcid(&self) -> u16 {
        (self.cr3 & 0xFFF) as u16
    }

    /// Current page-table root from CR3.
    pub fn pt_root(&self) -> u64 {
        self.cr3 & !0xFFF
    }

    /// Switches CR3 (page-table root and PCID), flushing non-PCID-tagged
    /// entries as real hardware would when `flush` is true.
    pub fn write_cr3(&mut self, value: u64, flush: bool) {
        self.cr3 = value;
        self.perf.cr3_writes += 1;
        if flush {
            self.tlb.flush_all();
            self.perf.tlb_flushes += 1;
        }
    }

    /// Translates a virtual address for an access of the given kind,
    /// consulting and filling the TLB.  Does not invoke the runtime.
    pub fn translate(&mut self, vaddr: u64, write: bool, user: bool) -> Result<u64, WalkError> {
        if !self.paging {
            return Ok(vaddr);
        }
        let pcid = self.pcid();
        if let Some(entry) = self.tlb.lookup(vaddr, pcid) {
            if (!write || entry.flags.writable) && (!user || entry.flags.user) {
                self.perf.tlb_hits += 1;
                self.perf.cycles += self.cost.tlb_hit;
                return Ok(entry.frame | (vaddr & (PAGE_SIZE - 1)));
            }
            // Permission upgrade required: fall through to a fresh walk so a
            // runtime-managed PTE change is observed.
        }
        self.perf.tlb_misses += 1;
        let walk = paging::walk(&self.mem, self.pt_root(), vaddr)?;
        self.perf.cycles += self.cost.page_walk_per_level * walk.levels as u64;
        if write && !walk.flags.writable {
            return Err(WalkError::NotPresent { level: 1 });
        }
        if user && !walk.flags.user {
            return Err(WalkError::NotPresent { level: 1 });
        }
        self.tlb.insert(TlbEntry {
            vpn: vaddr / PAGE_SIZE,
            frame: walk.frame,
            flags: walk.flags,
            pcid,
        });
        Ok(walk.frame | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Reads `size` bytes from virtual memory (zero-extended to 64 bits).
    /// Fails with the faulting address if translation fails.
    pub fn read_virt(&mut self, vaddr: u64, size: MemSize) -> Result<u64, u64> {
        let user = self.ring == Ring::Ring3;
        let pa = self.translate(vaddr, false, user).map_err(|_| vaddr)?;
        self.perf.mem_accesses += 1;
        self.mem.read_uint(pa, size.bytes()).map_err(|_| vaddr)
    }

    /// Writes the low `size` bytes of `value` to virtual memory.
    pub fn write_virt(&mut self, vaddr: u64, value: u64, size: MemSize) -> Result<(), u64> {
        let user = self.ring == Ring::Ring3;
        let pa = self.translate(vaddr, true, user).map_err(|_| vaddr)?;
        self.perf.mem_accesses += 1;
        self.mem
            .write_uint(pa, value & size.mask(), size.bytes())
            .map_err(|_| vaddr)
    }

    /// Computes the effective address of a memory operand.
    pub fn effective_address(&self, m: &MemRef) -> u64 {
        let mut a = self.reg(m.base).wrapping_add(m.disp as i64 as u64);
        if let Some((idx, scale)) = m.index {
            a = a.wrapping_add(self.reg(idx).wrapping_mul(scale as u64));
        }
        a
    }

    fn operand_value(&self, o: &Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(*r),
            Operand::Imm(v) => *v,
        }
    }

    fn set_flags_logic(&mut self, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = false;
        self.flags.of = false;
    }

    fn set_flags_add(&mut self, a: u64, b: u64, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = result < a;
        self.flags.of = ((a ^ result) & (b ^ result)) >> 63 != 0;
    }

    fn set_flags_sub(&mut self, a: u64, b: u64, result: u64) {
        self.flags.zf = result == 0;
        self.flags.sf = (result as i64) < 0;
        self.flags.cf = a < b;
        self.flags.of = ((a ^ b) & (a ^ result)) >> 63 != 0;
    }

    /// Evaluates a condition against the current flags.
    pub fn cond(&self, c: Cond) -> bool {
        let f = self.flags;
        match c {
            Cond::Eq => f.zf,
            Cond::Ne => !f.zf,
            Cond::Lt => f.cf,
            Cond::Le => f.cf || f.zf,
            Cond::Ge => !f.cf,
            Cond::Gt => !f.cf && !f.zf,
            Cond::SLt => f.sf != f.of,
            Cond::SLe => f.zf || (f.sf != f.of),
            Cond::SGe => f.sf == f.of,
            Cond::SGt => !f.zf && (f.sf == f.of),
            Cond::Mi => f.sf,
            Cond::Pl => !f.sf,
            Cond::Vs => f.of,
            Cond::Vc => !f.of,
        }
    }

    fn alu(&mut self, op: AluOp, dst: u64, src: u64) -> u64 {
        match op {
            AluOp::Add => {
                let r = dst.wrapping_add(src);
                self.set_flags_add(dst, src, r);
                r
            }
            AluOp::Sub => {
                let r = dst.wrapping_sub(src);
                self.set_flags_sub(dst, src, r);
                r
            }
            AluOp::And => {
                let r = dst & src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Or => {
                let r = dst | src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Xor => {
                let r = dst ^ src;
                self.set_flags_logic(r);
                r
            }
            AluOp::Mul => dst.wrapping_mul(src),
            AluOp::MulHiU => ((dst as u128 * src as u128) >> 64) as u64,
            AluOp::MulHiS => (((dst as i64 as i128) * (src as i64 as i128)) >> 64) as u64,
            AluOp::DivU => dst.checked_div(src).unwrap_or(0),
            AluOp::DivS => {
                if src == 0 {
                    0
                } else {
                    ((dst as i64).wrapping_div(src as i64)) as u64
                }
            }
            AluOp::RemU => dst.checked_rem(src).unwrap_or(0),
            AluOp::RemS => {
                if src == 0 {
                    0
                } else {
                    ((dst as i64).wrapping_rem(src as i64)) as u64
                }
            }
            AluOp::Shl => dst.wrapping_shl((src & 63) as u32),
            AluOp::Shr => dst.wrapping_shr((src & 63) as u32),
            AluOp::Sar => ((dst as i64).wrapping_shr((src & 63) as u32)) as u64,
            AluOp::Ror => dst.rotate_right((src & 63) as u32),
        }
    }

    fn fp_scalar(&mut self, op: FpOp, dst: [u64; 2], src: [u64; 2]) -> [u64; 2] {
        let d = f64::from_bits(dst[0]);
        let s = f64::from_bits(src[0]);
        let low = match op {
            FpOp::AddD => (d + s).to_bits(),
            FpOp::SubD => (d - s).to_bits(),
            FpOp::MulD => (d * s).to_bits(),
            FpOp::DivD => (d / s).to_bits(),
            FpOp::SqrtD => {
                // Model the x86 SQRTSD corner case deterministically: the
                // square root of a negative (non-zero) operand is a
                // *negative* quiet NaN (Table 2 of the paper).
                if s < 0.0 {
                    0xFFF8_0000_0000_0000
                } else if s.is_nan() {
                    src[0] | (1 << 51)
                } else {
                    s.sqrt().to_bits()
                }
            }
            FpOp::MinD => {
                if s < d {
                    src[0]
                } else {
                    dst[0]
                }
            }
            FpOp::MaxD => {
                if s > d {
                    src[0]
                } else {
                    dst[0]
                }
            }
            FpOp::AddS | FpOp::SubS | FpOp::MulS | FpOp::DivS | FpOp::SqrtS => {
                let df = f32::from_bits(dst[0] as u32);
                let sf = f32::from_bits(src[0] as u32);
                let r = match op {
                    FpOp::AddS => df + sf,
                    FpOp::SubS => df - sf,
                    FpOp::MulS => df * sf,
                    FpOp::DivS => df / sf,
                    FpOp::SqrtS => {
                        if sf < 0.0 {
                            f32::from_bits(0xFFC0_0000)
                        } else {
                            sf.sqrt()
                        }
                    }
                    _ => unreachable!("host bug: outer match guarantees a single-precision op"),
                };
                return [(dst[0] & !0xFFFF_FFFF) | r.to_bits() as u64, dst[1]];
            }
            FpOp::FmaD => f64::mul_add(d, s, f64::from_bits(dst[0])).to_bits(),
        };
        [low, dst[1]]
    }

    fn vec_op(&mut self, op: VecOp, dst: [u64; 2], src: [u64; 2]) -> [u64; 2] {
        match op {
            VecOp::PAddQ => [dst[0].wrapping_add(src[0]), dst[1].wrapping_add(src[1])],
            VecOp::PSubQ => [dst[0].wrapping_sub(src[0]), dst[1].wrapping_sub(src[1])],
            VecOp::PAddD => {
                let lane = |d: u64, s: u64| {
                    let lo = (d as u32).wrapping_add(s as u32) as u64;
                    let hi = ((d >> 32) as u32).wrapping_add((s >> 32) as u32) as u64;
                    lo | (hi << 32)
                };
                [lane(dst[0], src[0]), lane(dst[1], src[1])]
            }
            VecOp::PMulD => {
                let lane = |d: u64, s: u64| {
                    let lo = (d as u32).wrapping_mul(s as u32) as u64;
                    let hi = ((d >> 32) as u32).wrapping_mul((s >> 32) as u32) as u64;
                    lo | (hi << 32)
                };
                [lane(dst[0], src[0]), lane(dst[1], src[1])]
            }
            VecOp::AddPd => [
                (f64::from_bits(dst[0]) + f64::from_bits(src[0])).to_bits(),
                (f64::from_bits(dst[1]) + f64::from_bits(src[1])).to_bits(),
            ],
            VecOp::SubPd => [
                (f64::from_bits(dst[0]) - f64::from_bits(src[0])).to_bits(),
                (f64::from_bits(dst[1]) - f64::from_bits(src[1])).to_bits(),
            ],
            VecOp::MulPd => [
                (f64::from_bits(dst[0]) * f64::from_bits(src[0])).to_bits(),
                (f64::from_bits(dst[1]) * f64::from_bits(src[1])).to_bits(),
            ],
            VecOp::PAnd => [dst[0] & src[0], dst[1] & src[1]],
            VecOp::POr => [dst[0] | src[0], dst[1] | src[1]],
            VecOp::PXor => [dst[0] ^ src[0], dst[1] ^ src[1]],
            VecOp::Dup64 => [src[0], src[0]],
        }
    }

    /// Performs a memory load for the interpreter, consulting the runtime on
    /// faults.
    fn do_load(
        &mut self,
        rt: &mut dyn Runtime,
        vaddr: u64,
        size: MemSize,
        wide: bool,
    ) -> Result<[u64; 2], Result<MemFaultInfo, ExitReason>> {
        let mut retried = false;
        loop {
            let user = self.ring == Ring::Ring3;
            match self.translate(vaddr, false, user) {
                Ok(pa) => {
                    self.perf.mem_accesses += 1;
                    if wide {
                        return self
                            .mem
                            .read_u128(pa)
                            .map_err(|e| Err(ExitReason::Error(e.to_string())));
                    }
                    return self
                        .mem
                        .read_uint(pa, size.bytes())
                        .map(|v| [v, 0])
                        .map_err(|e| Err(ExitReason::Error(e.to_string())));
                }
                Err(_) if !retried => {
                    retried = true;
                    self.perf.page_faults += 1;
                    match rt.page_fault(vaddr, false, self) {
                        FaultAction::Retry { cost } => {
                            self.perf.cycles += cost;
                            continue;
                        }
                        FaultAction::Propagate { cost } => {
                            self.perf.cycles += cost;
                            return Err(Ok(MemFaultInfo {
                                vaddr,
                                write: false,
                            }));
                        }
                    }
                }
                // The runtime claimed the retry would succeed but the
                // mapping still faults (e.g. a hostile guest unmapped the
                // page from its own handler).  Degrade to a guest-visible
                // data abort instead of killing the engine.
                Err(_) => {
                    return Err(Ok(MemFaultInfo {
                        vaddr,
                        write: false,
                    }))
                }
            }
        }
    }

    /// Performs a memory store for the interpreter, consulting the runtime on
    /// faults.
    fn do_store(
        &mut self,
        rt: &mut dyn Runtime,
        vaddr: u64,
        value: [u64; 2],
        size: MemSize,
        wide: bool,
    ) -> Result<(), Result<MemFaultInfo, ExitReason>> {
        let mut retried = false;
        loop {
            let user = self.ring == Ring::Ring3;
            match self.translate(vaddr, true, user) {
                Ok(pa) => {
                    self.perf.mem_accesses += 1;
                    let res = if wide {
                        self.mem.write_u128(pa, value)
                    } else {
                        self.mem
                            .write_uint(pa, value[0] & size.mask(), size.bytes())
                    };
                    return res.map_err(|e| Err(ExitReason::Error(e.to_string())));
                }
                Err(_) if !retried => {
                    retried = true;
                    self.perf.page_faults += 1;
                    match rt.page_fault(vaddr, true, self) {
                        FaultAction::Retry { cost } => {
                            self.perf.cycles += cost;
                            continue;
                        }
                        FaultAction::Propagate { cost } => {
                            self.perf.cycles += cost;
                            return Err(Ok(MemFaultInfo { vaddr, write: true }));
                        }
                    }
                }
                // Mapping still faults after a runtime-promised retry; see
                // `do_load` — degrade to a guest data abort, never a host
                // engine error.
                Err(_) => return Err(Ok(MemFaultInfo { vaddr, write: true })),
            }
        }
    }

    /// Executes one translated block entered through the dispatcher.  `code`
    /// is the block's instruction sequence; jumps are relative indices within
    /// the block.
    pub fn run_block(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        self.perf.cycles += self.cost.dispatch;
        self.run_block_body(code, rt)
    }

    /// Executes one translated block entered through a patched direct chain
    /// link: charges the (near-zero) chain cost instead of the dispatch cost
    /// and counts the entry as chained.
    pub fn run_block_chained(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        self.perf.cycles += self.cost.chain;
        self.perf.chained_entries += 1;
        self.run_block_body(code, rt)
    }

    fn run_block_body(&mut self, code: &[MachInsn], rt: &mut dyn Runtime) -> ExitReason {
        self.perf.blocks_entered += 1;
        let mut pc: i64 = 0;
        let mut fuel = self.fuel_per_block;
        let mut backedges_taken = 0u64;
        loop {
            if fuel == 0 {
                return ExitReason::FuelExhausted;
            }
            fuel -= 1;
            let Some(insn) = code.get(pc as usize) else {
                // Running off the end of a block behaves like a return.
                return ExitReason::BlockEnd;
            };
            let insn = *insn;
            self.perf.insns += 1;
            self.perf.cycles += self.cost.insn_cost(&insn);
            pc += 1;
            match insn {
                MachInsn::Nop => {}
                MachInsn::MovImm { dst, imm } => self.set_reg(dst, imm),
                MachInsn::MovReg { dst, src } => self.set_reg(dst, self.reg(src)),
                MachInsn::Load { dst, addr, size } => {
                    let va = self.effective_address(&addr);
                    match self.do_load(rt, va, size, false) {
                        Ok(v) => self.set_reg(dst, v[0]),
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::LoadSx { dst, addr, size } => {
                    let va = self.effective_address(&addr);
                    match self.do_load(rt, va, size, false) {
                        Ok(v) => {
                            let bits = size.bytes() * 8;
                            let val = v[0];
                            let sext = if bits == 64 {
                                val
                            } else {
                                let shift = 64 - bits;
                                (((val << shift) as i64) >> shift) as u64
                            };
                            self.set_reg(dst, sext);
                        }
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::Store { src, addr, size } => {
                    let va = self.effective_address(&addr);
                    let v = self.reg(src);
                    match self.do_store(rt, va, [v, 0], size, false) {
                        Ok(()) => {}
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::StoreImm { imm, addr, size } => {
                    let va = self.effective_address(&addr);
                    match self.do_store(rt, va, [imm, 0], size, false) {
                        Ok(()) => {}
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::Lea { dst, addr } => {
                    let va = self.effective_address(&addr);
                    self.set_reg(dst, va);
                }
                MachInsn::Alu { op, dst, src } => {
                    let a = self.reg(dst);
                    let b = self.operand_value(&src);
                    let r = self.alu(op, a, b);
                    self.set_reg(dst, r);
                }
                MachInsn::Cmp { a, b } => {
                    let av = self.reg(a);
                    let bv = self.operand_value(&b);
                    let r = av.wrapping_sub(bv);
                    self.set_flags_sub(av, bv, r);
                }
                MachInsn::Test { a, b } => {
                    let r = self.reg(a) & self.operand_value(&b);
                    self.set_flags_logic(r);
                }
                MachInsn::Neg { dst } => {
                    let v = self.reg(dst).wrapping_neg();
                    self.set_reg(dst, v);
                }
                MachInsn::Not { dst } => {
                    let v = !self.reg(dst);
                    self.set_reg(dst, v);
                }
                MachInsn::MovZx { dst, src, size } => {
                    self.set_reg(dst, self.reg(src) & size.mask());
                }
                MachInsn::MovSx { dst, src, size } => {
                    let bits = size.bytes() * 8;
                    let val = self.reg(src) & size.mask();
                    let shift = 64 - bits;
                    let sext = (((val << shift) as i64) >> shift) as u64;
                    self.set_reg(dst, sext);
                }
                MachInsn::SetCc { cond, dst } => {
                    let v = self.cond(cond) as u64;
                    self.set_reg(dst, v);
                }
                MachInsn::CmovCc { cond, dst, src } => {
                    if self.cond(cond) {
                        self.set_reg(dst, self.reg(src));
                    }
                }
                MachInsn::Jmp { target } => {
                    pc = pc - 1 + target as i64;
                    if pc < 0 || pc as usize > code.len() {
                        return ExitReason::Error(format!("jump out of range to {pc}"));
                    }
                }
                MachInsn::Jcc { cond, target } => {
                    if self.cond(cond) {
                        pc = pc - 1 + target as i64;
                        if pc < 0 || pc as usize > code.len() {
                            return ExitReason::Error(format!("jump out of range to {pc}"));
                        }
                    }
                }
                MachInsn::CallHelper { helper } => {
                    self.perf.helper_calls += 1;
                    match rt.helper(helper, self) {
                        HelperResult::Continue { cost } => self.perf.cycles += cost,
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::Ret => return ExitReason::BlockEnd,
                MachInsn::LoadXmm { dst, addr, size } => {
                    let va = self.effective_address(&addr);
                    let wide = size == MemSize::U128;
                    match self.do_load(rt, va, size, wide) {
                        Ok(v) => {
                            if wide {
                                self.set_xmm(dst, v);
                            } else {
                                self.set_xmm(dst, [v[0], 0]);
                            }
                        }
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::StoreXmm { src, addr, size } => {
                    let va = self.effective_address(&addr);
                    let wide = size == MemSize::U128;
                    let v = self.xmm_reg(src);
                    match self.do_store(rt, va, v, size, wide) {
                        Ok(()) => {}
                        Err(Ok(f)) => {
                            return ExitReason::MemFault {
                                vaddr: f.vaddr,
                                write: f.write,
                            }
                        }
                        Err(Err(e)) => return e,
                    }
                }
                MachInsn::MovGprToXmm { dst, src } => {
                    let v = self.reg(src);
                    self.set_xmm(dst, [v, 0]);
                }
                MachInsn::MovXmm { dst, src, size } => {
                    let v = self.xmm_reg(src);
                    match size {
                        MemSize::U128 => self.set_xmm(dst, v),
                        // Low-lane move zeroes the upper lane, mirroring a
                        // U64 LoadXmm.
                        _ => self.set_xmm(dst, [v[0], 0]),
                    }
                }
                MachInsn::MovXmmToGpr { dst, src } => {
                    let v = self.xmm_reg(src)[0];
                    self.set_reg(dst, v);
                }
                MachInsn::Fp { op, dst, src } => {
                    let d = self.xmm_reg(dst);
                    let s = self.xmm_reg(src);
                    let r = self.fp_scalar(op, d, s);
                    self.set_xmm(dst, r);
                }
                MachInsn::FpFma { dst, a, b } => {
                    let acc = f64::from_bits(self.xmm_reg(dst)[0]);
                    let av = f64::from_bits(self.xmm_reg(a)[0]);
                    let bv = f64::from_bits(self.xmm_reg(b)[0]);
                    let hi = self.xmm_reg(dst)[1];
                    self.set_xmm(dst, [f64::mul_add(av, bv, acc).to_bits(), hi]);
                }
                MachInsn::FpCmp { a, b } => {
                    let x = f64::from_bits(self.xmm_reg(a)[0]);
                    let y = f64::from_bits(self.xmm_reg(b)[0]);
                    // ucomisd semantics: ZF/CF encode the outcome, OF/SF cleared.
                    self.flags.of = false;
                    self.flags.sf = false;
                    if x.is_nan() || y.is_nan() {
                        self.flags.zf = true;
                        self.flags.cf = true;
                    } else if x < y {
                        self.flags.zf = false;
                        self.flags.cf = true;
                    } else if x > y {
                        self.flags.zf = false;
                        self.flags.cf = false;
                    } else {
                        self.flags.zf = true;
                        self.flags.cf = false;
                    }
                }
                MachInsn::CvtI2D { dst, src } => {
                    let v = self.reg(src) as i64 as f64;
                    let hi = self.xmm_reg(dst)[1];
                    self.set_xmm(dst, [v.to_bits(), hi]);
                }
                MachInsn::CvtD2I { dst, src } => {
                    let v = f64::from_bits(self.xmm_reg(src)[0]);
                    let r = if v.is_nan() {
                        0
                    } else if v >= i64::MAX as f64 {
                        i64::MAX
                    } else if v <= i64::MIN as f64 {
                        i64::MIN
                    } else {
                        v.round_ties_even() as i64
                    };
                    self.set_reg(dst, r as u64);
                }
                MachInsn::CvtS2D { dst, src } => {
                    let v = f32::from_bits(self.xmm_reg(src)[0] as u32) as f64;
                    let hi = self.xmm_reg(dst)[1];
                    self.set_xmm(dst, [v.to_bits(), hi]);
                }
                MachInsn::CvtD2S { dst, src } => {
                    let v = f64::from_bits(self.xmm_reg(src)[0]) as f32;
                    let hi = self.xmm_reg(dst)[1];
                    self.set_xmm(dst, [v.to_bits() as u64, hi]);
                }
                MachInsn::Vec { op, dst, src } => {
                    let d = self.xmm_reg(dst);
                    let s = self.xmm_reg(src);
                    let r = self.vec_op(op, d, s);
                    self.set_xmm(dst, r);
                }
                MachInsn::Int { vector } => {
                    self.perf.interrupts += 1;
                    self.saved_ring = self.ring;
                    self.ring = Ring::Ring0;
                    match rt.interrupt(vector, self) {
                        HelperResult::Continue { cost } => {
                            self.perf.cycles += cost;
                            self.ring = self.saved_ring;
                        }
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            self.ring = self.saved_ring;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::IRet => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("iret outside ring 0".into());
                    }
                    self.ring = self.saved_ring;
                }
                MachInsn::Syscall => {
                    self.perf.syscalls += 1;
                    self.saved_ring = self.ring;
                    self.ring = Ring::Ring0;
                    match rt.syscall(self) {
                        HelperResult::Continue { cost } => {
                            self.perf.cycles += cost;
                            self.ring = self.saved_ring;
                        }
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            self.ring = self.saved_ring;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::Sysret => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("sysret outside ring 0".into());
                    }
                    self.ring = self.saved_ring;
                }
                MachInsn::Out { port, src } => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("out instruction outside ring 0".into());
                    }
                    self.perf.port_ios += 1;
                    let v = self.reg(src);
                    match rt.port_out(port, v, self) {
                        HelperResult::Continue { cost } => self.perf.cycles += cost,
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::In { dst, port } => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("in instruction outside ring 0".into());
                    }
                    self.perf.port_ios += 1;
                    let (v, res) = rt.port_in(port, self);
                    self.set_reg(dst, v);
                    match res {
                        HelperResult::Continue { cost } => self.perf.cycles += cost,
                        HelperResult::Exit { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::HelperExit;
                        }
                        HelperResult::Halt { cost } => {
                            self.perf.cycles += cost;
                            return ExitReason::Halted;
                        }
                    }
                }
                MachInsn::WriteCr3 { src } => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("cr3 write outside ring 0".into());
                    }
                    let v = self.reg(src);
                    // PCID-style CR3 write: keep TLB entries (they are tagged).
                    self.write_cr3(v, false);
                }
                MachInsn::ReadCr3 { dst } => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("cr3 read outside ring 0".into());
                    }
                    self.set_reg(dst, self.cr3);
                }
                MachInsn::TlbFlushAll => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("TLB flush outside ring 0".into());
                    }
                    self.perf.tlb_flushes += 1;
                    self.tlb.flush_all();
                }
                MachInsn::TlbFlushPcid => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("TLB flush outside ring 0".into());
                    }
                    self.perf.tlb_flushes += 1;
                    let pcid = self.pcid();
                    self.tlb.flush_pcid(pcid);
                }
                MachInsn::Invlpg { addr } => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("invlpg outside ring 0".into());
                    }
                    self.perf.tlb_flushes += 1;
                    let va = self.reg(addr);
                    self.tlb.flush_page(va);
                }
                MachInsn::Hlt => {
                    if self.ring != Ring::Ring0 {
                        return ExitReason::Error("hlt outside ring 0".into());
                    }
                    return ExitReason::Halted;
                }
                MachInsn::TraceEdge => {
                    self.perf.region_transfers += 1;
                }
                MachInsn::BackEdge {
                    pc: header,
                    target,
                    reconcile,
                    weight,
                } => {
                    // The PC update is folded into the transfer: state is
                    // precise at the loop header whether the jump is taken or
                    // the pending-event poll exits to the dispatcher.
                    self.set_reg(Gpr::R15, header);
                    if rt.loop_exit_pending(self.perf.cycles)
                        || backedges_taken >= self.loop_trip_limit
                    {
                        if !reconcile {
                            return ExitReason::BlockEnd;
                        }
                        // Promoted region: fall through into the reconcile
                        // block (compensation stores + Ret) so the promoted
                        // slots are materialised before the dispatcher sees
                        // the register file.
                    } else {
                        // A wide bulk-move trip covers `weight` guest
                        // iterations: credit them all so the trip limit and
                        // the engine's per-trip guest-instruction accounting
                        // stay exact.
                        backedges_taken += weight as u64;
                        self.perf.backedge_transfers += weight as u64;
                        pc = pc - 1 + target as i64;
                        if pc < 0 || pc as usize > code.len() {
                            return ExitReason::Error(format!("back-edge out of range to {pc}"));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_page, FrameAlloc, PageFlags};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            phys_mem: 8 * 1024 * 1024,
            ..Default::default()
        })
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 40,
            },
            MachInsn::Alu {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Operand::Imm(2),
            },
            MachInsn::Cmp {
                a: Gpr::Rax,
                b: Operand::Imm(42),
            },
            MachInsn::SetCc {
                cond: Cond::Eq,
                dst: Gpr::Rbx,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 42);
        assert_eq!(m.reg(Gpr::Rbx), 1);
        assert_eq!(m.perf.insns, 5);
        assert!(m.perf.cycles > 0);
    }

    #[test]
    fn flat_memory_access_without_paging() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x2000,
            },
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 0xDEAD_BEEF,
            },
            MachInsn::Store {
                src: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Load {
                dst: Gpr::Rbx,
                addr: MemRef::base_disp(Gpr::Rsi, 0),
                size: MemSize::U32,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rbx), 0xDEAD_BEEF);
        assert_eq!(m.mem.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn loops_with_conditional_jumps() {
        let mut m = machine();
        let mut rt = NullRuntime;
        // Sum 1..=10 in rax using rcx as the counter.
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rax,
                imm: 0,
            },
            MachInsn::MovImm {
                dst: Gpr::Rcx,
                imm: 10,
            },
            // loop:
            MachInsn::Alu {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            MachInsn::Alu {
                op: AluOp::Sub,
                dst: Gpr::Rcx,
                src: Operand::Imm(1),
            },
            MachInsn::Jcc {
                cond: Cond::Ne,
                target: -2,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 55);
    }

    #[test]
    fn paging_translates_and_counts_tlb() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        assert!(map_page(
            &mut m.mem,
            root,
            0x4000_0000,
            0x3000,
            PageFlags::kernel_rw(),
            &mut alloc
        ));
        m.enable_paging(root, 0);
        m.mem.write_u64(0x3008, 0x1234).unwrap();

        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x4000_0008,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Load {
                dst: Gpr::Rbx,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(m.reg(Gpr::Rax), 0x1234);
        assert_eq!(m.perf.tlb_misses, 1, "first access walks");
        assert_eq!(m.perf.tlb_hits, 1, "second access hits the TLB");
    }

    #[test]
    fn unmapped_access_propagates_fault() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        m.enable_paging(root, 0);
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x7777_0000,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(
            m.run_block(&code, &mut rt),
            ExitReason::MemFault {
                vaddr: 0x7777_0000,
                write: false
            }
        );
        assert_eq!(m.perf.page_faults, 1);
    }

    #[test]
    fn user_mode_cannot_touch_kernel_pages() {
        let mut m = machine();
        let mut rt = NullRuntime;
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        assert!(map_page(
            &mut m.mem,
            root,
            0x5000,
            0x6000,
            PageFlags::kernel_rw(),
            &mut alloc
        ));
        m.enable_paging(root, 0);
        m.ring = Ring::Ring3;
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x5000,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert!(matches!(
            m.run_block(&code, &mut rt),
            ExitReason::MemFault { .. }
        ));
    }

    #[test]
    fn privileged_instructions_fault_in_ring3() {
        let mut m = machine();
        let mut rt = NullRuntime;
        m.ring = Ring::Ring3;
        let code = [MachInsn::TlbFlushAll, MachInsn::Ret];
        assert!(matches!(m.run_block(&code, &mut rt), ExitReason::Error(_)));
        let code = [MachInsn::Hlt];
        assert!(matches!(m.run_block(&code, &mut rt), ExitReason::Error(_)));
    }

    #[test]
    fn fp_and_vector_ops() {
        let mut m = machine();
        let mut rt = NullRuntime;
        m.set_xmm(Xmm(0), [2.0f64.to_bits(), 0]);
        m.set_xmm(Xmm(1), [3.5f64.to_bits(), 0]);
        m.set_xmm(Xmm(2), [1.0f64.to_bits(), 10.0f64.to_bits()]);
        m.set_xmm(Xmm(3), [4.0f64.to_bits(), 0.5f64.to_bits()]);
        let code = [
            MachInsn::Fp {
                op: FpOp::MulD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::Vec {
                op: VecOp::AddPd,
                dst: Xmm(2),
                src: Xmm(3),
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(0))[0]), 7.0);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(2))[0]), 5.0);
        assert_eq!(f64::from_bits(m.xmm_reg(Xmm(2))[1]), 10.5);
    }

    #[test]
    fn sqrt_of_negative_matches_x86_sign_behaviour() {
        let mut m = machine();
        let mut rt = NullRuntime;
        m.set_xmm(Xmm(1), [(-0.5f64).to_bits(), 0]);
        let code = [
            MachInsn::Fp {
                op: FpOp::SqrtD,
                dst: Xmm(0),
                src: Xmm(1),
            },
            MachInsn::Ret,
        ];
        m.run_block(&code, &mut rt);
        let bits = m.xmm_reg(Xmm(0))[0];
        assert!(f64::from_bits(bits).is_nan());
        assert_eq!(
            bits >> 63,
            1,
            "host (x86-style) sqrt returns a negative NaN"
        );
    }

    #[test]
    fn helper_calls_reach_the_runtime() {
        struct CountingRt {
            calls: u32,
        }
        impl Runtime for CountingRt {
            fn helper(&mut self, id: u16, m: &mut Machine) -> HelperResult {
                self.calls += 1;
                let arg = m.reg(Gpr::Rdi);
                m.set_reg(Gpr::Rax, arg * 2 + id as u64);
                HelperResult::Continue { cost: 100 }
            }
        }
        let mut m = machine();
        let mut rt = CountingRt { calls: 0 };
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rdi,
                imm: 21,
            },
            MachInsn::CallHelper { helper: 7 },
            MachInsn::Ret,
        ];
        let before = m.perf.cycles;
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(rt.calls, 1);
        assert_eq!(m.reg(Gpr::Rax), 49);
        assert!(m.perf.cycles - before >= 100 + m.cost.helper_call);
    }

    #[test]
    fn interrupt_switches_to_ring0_and_back() {
        struct RingCheckRt {
            observed: Option<Ring>,
        }
        impl Runtime for RingCheckRt {
            fn helper(&mut self, _id: u16, _m: &mut Machine) -> HelperResult {
                HelperResult::Continue { cost: 0 }
            }
            fn interrupt(&mut self, _v: u8, m: &mut Machine) -> HelperResult {
                self.observed = Some(m.ring);
                HelperResult::Continue { cost: 50 }
            }
        }
        let mut m = machine();
        m.ring = Ring::Ring3;
        let mut rt = RingCheckRt { observed: None };
        let code = [MachInsn::Int { vector: 0x80 }, MachInsn::Ret];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(rt.observed, Some(Ring::Ring0));
        assert_eq!(m.ring, Ring::Ring3, "ring restored after the interrupt");
    }

    #[test]
    fn fuel_limit_stops_runaway_blocks() {
        let mut m = machine();
        m.fuel_per_block = 100;
        let mut rt = NullRuntime;
        let code = [MachInsn::Jmp { target: 0 }];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::FuelExhausted);
    }

    #[test]
    fn fault_handler_can_repair_and_retry() {
        struct FixerRt {
            root: u64,
            alloc: FrameAlloc,
            fixed: u32,
        }
        impl Runtime for FixerRt {
            fn helper(&mut self, _id: u16, _m: &mut Machine) -> HelperResult {
                HelperResult::Continue { cost: 0 }
            }
            fn page_fault(&mut self, vaddr: u64, _write: bool, m: &mut Machine) -> FaultAction {
                self.fixed += 1;
                let page = vaddr & !(PAGE_SIZE - 1);
                map_page(
                    &mut m.mem,
                    self.root,
                    page,
                    0x3000,
                    PageFlags::kernel_rw(),
                    &mut self.alloc,
                );
                FaultAction::Retry { cost: 500 }
            }
        }
        let mut m = machine();
        let mut alloc = FrameAlloc::new(0x100000, 0x200000);
        let root = alloc.alloc(&mut m.mem).unwrap();
        m.enable_paging(root, 0);
        m.mem.write_u64(0x3010, 77).unwrap();
        let mut rt = FixerRt {
            root,
            alloc,
            fixed: 0,
        };
        let code = [
            MachInsn::MovImm {
                dst: Gpr::Rsi,
                imm: 0x9000_0010,
            },
            MachInsn::Load {
                dst: Gpr::Rax,
                addr: MemRef::base(Gpr::Rsi),
                size: MemSize::U64,
            },
            MachInsn::Ret,
        ];
        assert_eq!(m.run_block(&code, &mut rt), ExitReason::BlockEnd);
        assert_eq!(rt.fixed, 1, "handler ran once");
        assert_eq!(m.reg(Gpr::Rax), 77, "access succeeded after repair");
    }
}
