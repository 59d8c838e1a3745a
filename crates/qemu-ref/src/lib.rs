//! QEMU/TCG-style baseline system-level DBT.
//!
//! This crate reproduces the design decisions the paper attributes QEMU's
//! performance characteristics to, over the same guest model and host
//! machine as Captive, so the two systems differ only in the ways the paper
//! compares them:
//!
//! * it runs as a "user process": host paging is left off and every guest
//!   memory access goes through a **software MMU** helper that looks up a
//!   software TLB and falls back to a guest page-table walk (Section 2.7.2);
//! * guest floating-point instructions call **softfloat helpers** instead of
//!   host FP instructions (Section 2.5);
//! * translations are cached by guest **virtual** address and the whole cache
//!   is invalidated whenever the guest changes its translation state
//!   (Section 2.6);
//! * vector instructions are implemented with helper calls rather than host
//!   SIMD;
//! * optionally (`qemu_chaining`), translated blocks chain to direct
//!   successors **within the same guest page**, as real QEMU/TCG does —
//!   cross-page links are never patched, because a virtually-indexed cache
//!   can only trust a stitched transfer while the fetch stays on the page
//!   the translation was made for.  This tightens the baseline so reported
//!   Captive speedups are not inflated by a chain-less strawman;
//! * optionally (`goto_tb`, implies nothing about `qemu_chaining` — enable
//!   both), the same-page restriction is lifted and direct branches link
//!   across pages, like TCG's `goto_tb` between translation blocks.  The
//!   epoch-stamped links still die with every full-cache flush, so the
//!   stitching stays architecturally invisible; this is the *strongest*
//!   honest baseline, used by the figures harness so promoted-loop speedups
//!   are not measured against a hobbled dispatcher.

use captive::layout;
use captive::runtime::{GuestEvent, SVC_EXIT, SVC_PUTCHAR};
use dbt::emitter::ValueType;
use dbt::{
    BlockExit, CacheIndex, ChainLinks, CodeCache, Emitter, EntryMode, GuestIsa, Phase, PhaseTimers,
    Region, RegionKey, RegionProfile,
};
use guest_aarch64::gen::helpers;
use guest_aarch64::isa::{AccessSize, FpKind, Insn};
use guest_aarch64::{esr_class, mmu, v_off, x_off, Aarch64Isa, SysReg};
use hvm::{
    EventSources, ExitReason, FaultAction, Gpr, HelperResult, Machine, MachineConfig, MemSize,
    Runtime, VirtioBlk,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Helper ids specific to the QEMU-style runtime.
pub mod qhelpers {
    /// Softmmu load: args (vaddr, size in bytes, sign-extend flag).
    pub const MMU_READ: u16 = 40;
    /// Softmmu store: args (vaddr, value, size in bytes).
    pub const MMU_WRITE: u16 = 41;
    /// Softfloat binary op: args (op, a, b) where op selects add/sub/mul/div.
    pub const SOFT_FP: u16 = 42;
    /// Softfloat square root: arg (a).
    pub const SOFT_SQRT: u16 = 43;
    /// Vector helper (packed f64 add/mul element by element through memory).
    pub const VEC_OP: u16 = 44;
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// Guest halted (exit hypercall or HLT).
    GuestHalted {
        /// Exit code.
        code: u64,
    },
    /// The block budget was exhausted.
    BudgetExhausted,
    /// Execution-engine error.
    Error(String),
}

/// The run-statistics record, shared with Captive so both engines report
/// the same counters by the same names.
pub use captive::RunStats;

/// The QEMU-style runtime: software TLB, softfloat state, console.
pub struct QemuRuntime {
    regfile_phys: u64,
    #[allow(dead_code)]
    guest_ram: u64,
    /// Software TLB: guest virtual page -> (guest physical page, writable, user).
    soft_tlb: HashMap<u64, (u64, bool, bool)>,
    /// Set when the guest changed translation state; the dispatcher must
    /// flush the (virtually-indexed) code cache.
    pub flush_requested: bool,
    /// Console output.
    pub uart_output: Vec<u8>,
    /// Exit code from the exit hypercall.
    pub exit_code: Option<u64>,
    pending: Option<GuestEvent>,
    fp_env: softfloat::FpEnv,
    /// Software TLB statistics.
    pub soft_tlb_hits: u64,
    /// Software TLB misses (guest page walks).
    pub soft_tlb_misses: u64,
    /// Deterministic guest event sources (timer + interrupt latch),
    /// identical in behaviour to Captive's so cross-engine runs observe the
    /// same events.
    pub events: EventSources,
    /// Optional virtio-mmio block device (same model Captive attaches, so
    /// cross-engine runs observe identical DMA and completion behaviour).
    pub virtio: Option<VirtioBlk>,
    /// Full flushes forced by device DMA (sampled into
    /// [`RunStats::external_invalidations`]).
    pub external_invalidations: u64,
}

impl QemuRuntime {
    fn new(guest_ram: u64) -> Self {
        QemuRuntime {
            regfile_phys: layout::REGFILE_PHYS,
            guest_ram,
            soft_tlb: HashMap::new(),
            flush_requested: false,
            uart_output: Vec::new(),
            exit_code: None,
            pending: None,
            fp_env: softfloat::FpEnv::arm(),
            soft_tlb_hits: 0,
            soft_tlb_misses: 0,
            events: EventSources::default(),
            virtio: None,
            external_invalidations: 0,
        }
    }

    /// Retires due virtio completions.  Any DMA the device performed landed
    /// behind the translator's back; a virtually-indexed cache has no
    /// per-physical-page index to invalidate through, so the honest QEMU
    /// response is the same one translation-state changes get: request a
    /// full flush.  Returns `true` when at least one completion retired.
    pub fn poll_virtio(&mut self, machine: &mut Machine) -> bool {
        let Some(dev) = self.virtio.as_mut() else {
            return false;
        };
        if !dev.poll(
            &mut machine.mem,
            machine.perf.cycles,
            &mut self.events.latch,
        ) {
            return false;
        }
        if !dev.take_touched_pages().is_empty() {
            self.flush_requested = true;
            self.external_invalidations += 1;
        }
        true
    }

    /// True when the attached device has a completion ready to retire at
    /// `cycles` (polled from the chained dispatch loop so device latency is
    /// bounded by one block, mirroring Captive's back-edge poll).
    pub fn virtio_due(&self, cycles: u64) -> bool {
        self.virtio
            .as_ref()
            .is_some_and(|d| d.due(cycles, &self.events.latch))
    }

    fn read_gregfile(&self, machine: &Machine, offset: i32) -> u64 {
        machine
            .mem
            .read_u64(self.regfile_phys + offset as u64)
            .unwrap_or(0)
    }

    fn write_gregfile(&self, machine: &mut Machine, offset: i32, value: u64) {
        let _ = machine
            .mem
            .write_u64(self.regfile_phys + offset as u64, value);
    }

    fn mmu_enabled(&self, machine: &Machine) -> bool {
        self.read_gregfile(machine, guest_aarch64::SCTLR_OFF) & 1 != 0
    }

    /// Software translation of a guest virtual address, maintaining the
    /// software TLB (the QEMU fast-path/slow-path structure).
    fn soft_translate(
        &mut self,
        machine: &Machine,
        va: u64,
        write: bool,
    ) -> Result<(u64, u64), GuestEvent> {
        if !self.mmu_enabled(machine) {
            if va >= self.guest_ram {
                return Err(GuestEvent::DataAbort { vaddr: va, write });
            }
            // Even with the guest MMU off, QEMU funnels accesses through its
            // software TLB; a miss takes the slow path that refills it.
            let vpn = va >> 12;
            if self.soft_tlb.contains_key(&vpn) {
                self.soft_tlb_hits += 1;
                return Ok((va, 30));
            }
            self.soft_tlb_misses += 1;
            self.soft_tlb.insert(vpn, (va & !0xFFF, true, true));
            return Ok((va, 350));
        }
        let vpn = va >> 12;
        if let Some(&(frame, writable, _user)) = self.soft_tlb.get(&vpn) {
            if !write || writable {
                self.soft_tlb_hits += 1;
                return Ok((frame | (va & 0xFFF), 30));
            }
        }
        self.soft_tlb_misses += 1;
        let ttbr0 = self.read_gregfile(machine, guest_aarch64::TTBR0_OFF);
        let guest_ram = self.guest_ram;
        let walk = mmu::walk_guest(
            |a| {
                if a + 8 > guest_ram {
                    None
                } else {
                    machine.mem.read_u64(layout::GUEST_PHYS_BASE + a).ok()
                }
            },
            ttbr0,
            va,
        )
        .map_err(|_| GuestEvent::DataAbort { vaddr: va, write })?;
        if write && !walk.flags.writable {
            return Err(GuestEvent::DataAbort { vaddr: va, write });
        }
        self.soft_tlb
            .insert(vpn, (walk.frame, walk.flags.writable, walk.flags.user));
        // Slow path: a full guest page-table walk in software (several
        // dependent memory accesses plus permission evaluation).
        Ok((walk.frame | (va & 0xFFF), 420))
    }

    fn take_exception(
        &mut self,
        machine: &mut Machine,
        class: u64,
        iss: u64,
        ret: u64,
        far: Option<u64>,
    ) {
        // Exception entry masks asynchronous events (the PSTATE.I analogue)
        // until the handler's `eret`, mirroring Captive: a pending IRQ must
        // never preempt a handler mid-flight and clobber ELR/ESR under it.
        self.events.set_masked(true);
        let el = self.read_gregfile(machine, guest_aarch64::CURRENT_EL_OFF);
        let nzcv = self.read_gregfile(machine, guest_aarch64::NZCV_OFF);
        self.write_gregfile(
            machine,
            guest_aarch64::ESR_OFF,
            (class << 26) | (iss & 0xFFFF),
        );
        if let Some(f) = far {
            self.write_gregfile(machine, guest_aarch64::FAR_OFF, f);
        }
        self.write_gregfile(machine, guest_aarch64::ELR_OFF, ret);
        // Same SPSR layout as Captive: interrupted NZCV in bits 31..28, EL
        // in bit 0, so a handler may clobber flags at any preemption point.
        self.write_gregfile(
            machine,
            guest_aarch64::SPSR_OFF,
            ((nzcv & 0xF) << 28) | (el & 1),
        );
        self.write_gregfile(machine, guest_aarch64::CURRENT_EL_OFF, 1);
        let vbar = self.read_gregfile(machine, guest_aarch64::VBAR_OFF);
        if vbar == 0 {
            // No vector installed: fatal guest error (see Captive's runtime).
            self.exit_code = Some(0xDEAD);
        }
        machine.set_reg(Gpr::R15, vbar);
    }
}

impl Runtime for QemuRuntime {
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult {
        match id {
            qhelpers::MMU_READ => {
                let va = machine.reg(Gpr::Rdi);
                let size = machine.reg(Gpr::Rsi);
                match self.soft_translate(machine, va, false) {
                    Ok((pa, cost)) => {
                        let v = machine
                            .mem
                            .read_uint(layout::GUEST_PHYS_BASE + pa, size.clamp(1, 8))
                            .unwrap_or(0);
                        machine.set_reg(Gpr::Rax, v);
                        HelperResult::Continue { cost }
                    }
                    Err(ev) => {
                        self.pending = Some(ev);
                        HelperResult::Exit { cost: 200 }
                    }
                }
            }
            qhelpers::MMU_WRITE => {
                let va = machine.reg(Gpr::Rdi);
                let value = machine.reg(Gpr::Rsi);
                let size = machine.reg(Gpr::Rdx);
                match self.soft_translate(machine, va, true) {
                    Ok((pa, cost)) => {
                        let _ = machine.mem.write_uint(
                            layout::GUEST_PHYS_BASE + pa,
                            value,
                            size.clamp(1, 8),
                        );
                        HelperResult::Continue { cost }
                    }
                    Err(ev) => {
                        self.pending = Some(ev);
                        HelperResult::Exit { cost: 200 }
                    }
                }
            }
            qhelpers::SOFT_FP => {
                let op = machine.reg(Gpr::Rdi);
                let a = machine.reg(Gpr::Rsi);
                let b = machine.reg(Gpr::Rdx);
                let r = match op {
                    0 => softfloat::f64_add(a, b, &mut self.fp_env),
                    1 => softfloat::f64_sub(a, b, &mut self.fp_env),
                    2 => softfloat::f64_mul(a, b, &mut self.fp_env),
                    _ => softfloat::f64_div(a, b, &mut self.fp_env),
                };
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue { cost: 110 }
            }
            qhelpers::SOFT_SQRT => {
                let a = machine.reg(Gpr::Rdi);
                let r = softfloat::f64_sqrt_arm(a, &mut self.fp_env);
                machine.set_reg(Gpr::Rax, r);
                HelperResult::Continue { cost: 160 }
            }
            qhelpers::VEC_OP => {
                // args: (op, vd offset, vn offset, vm offset) — element-wise
                // double-precision op performed lane by lane in the helper.
                let op = machine.reg(Gpr::Rdi);
                let vd = machine.reg(Gpr::Rsi);
                let vn = machine.reg(Gpr::Rdx);
                let vm = machine.reg(Gpr::Rcx);
                for lane in 0..2u64 {
                    let a = machine
                        .mem
                        .read_u64(self.regfile_phys + vn + lane * 8)
                        .unwrap_or(0);
                    let b = machine
                        .mem
                        .read_u64(self.regfile_phys + vm + lane * 8)
                        .unwrap_or(0);
                    let r = if op == 0 {
                        softfloat::f64_add(a, b, &mut self.fp_env)
                    } else {
                        softfloat::f64_mul(a, b, &mut self.fp_env)
                    };
                    let _ = machine.mem.write_u64(self.regfile_phys + vd + lane * 8, r);
                }
                HelperResult::Continue { cost: 260 }
            }
            helpers::TAKE_EXCEPTION => {
                let class = machine.reg(Gpr::Rdi);
                let iss = machine.reg(Gpr::Rsi);
                let ret_pc = machine.reg(Gpr::Rdx);
                if class == esr_class::SVC && iss == SVC_PUTCHAR as u64 {
                    let ch = self.read_gregfile(machine, x_off(0)) as u8;
                    self.uart_output.push(ch);
                    machine.set_reg(Gpr::R15, ret_pc);
                    return HelperResult::Exit { cost: 150 };
                }
                if class == esr_class::SVC && iss == SVC_EXIT as u64 {
                    self.exit_code = Some(self.read_gregfile(machine, x_off(0)));
                    return HelperResult::Halt { cost: 50 };
                }
                self.take_exception(machine, class, iss, ret_pc, None);
                HelperResult::Exit { cost: 350 }
            }
            helpers::TLBI => {
                self.soft_tlb.clear();
                self.flush_requested = true;
                HelperResult::Continue { cost: 300 }
            }
            helpers::MSR_NOTIFY => {
                let id = machine.reg(Gpr::Rdi) as u32;
                match SysReg::from_id(id) {
                    Some(SysReg::Ttbr0) | Some(SysReg::Sctlr) => {
                        self.soft_tlb.clear();
                        self.flush_requested = true;
                    }
                    Some(SysReg::CntTval) => {
                        let delta = self.read_gregfile(machine, guest_aarch64::CNT_TVAL_OFF);
                        // Saturate: a guest programming a near-u64::MAX delta
                        // must disarm-at-infinity, not wrap to the past.
                        self.events
                            .timer
                            .arm_oneshot(machine.perf.cycles.saturating_add(delta));
                    }
                    Some(SysReg::CntCtl) => {
                        let period = self.read_gregfile(machine, guest_aarch64::CNT_CTL_OFF);
                        if period == 0 {
                            self.events.timer.cancel();
                        } else {
                            self.events
                                .timer
                                .arm_periodic(machine.perf.cycles.saturating_add(period), period);
                        }
                    }
                    Some(SysReg::VblkNotify) => {
                        if let Some(dev) = self.virtio.as_mut() {
                            let now = machine.perf.cycles;
                            dev.kick(&mut machine.mem, now);
                        }
                    }
                    _ => {}
                }
                HelperResult::Continue { cost: 200 }
            }
            helpers::FCMP => {
                let a = f64::from_bits(machine.reg(Gpr::Rdi));
                let b = f64::from_bits(machine.reg(Gpr::Rsi));
                let nzcv: u64 = if a.is_nan() || b.is_nan() {
                    0b0011
                } else if a < b {
                    0b1000
                } else if a == b {
                    0b0110
                } else {
                    0b0010
                };
                machine.set_reg(Gpr::Rax, nzcv);
                HelperResult::Continue { cost: 60 }
            }
            helpers::ERET => {
                let elr = self.read_gregfile(machine, guest_aarch64::ELR_OFF);
                let spsr = self.read_gregfile(machine, guest_aarch64::SPSR_OFF);
                self.write_gregfile(machine, guest_aarch64::CURRENT_EL_OFF, spsr & 1);
                self.write_gregfile(machine, guest_aarch64::NZCV_OFF, (spsr >> 28) & 0xF);
                self.events.set_masked(false);
                machine.set_reg(Gpr::R15, elr);
                HelperResult::Exit { cost: 300 }
            }
            helpers::HLT => {
                self.exit_code.get_or_insert(0);
                HelperResult::Halt { cost: 20 }
            }
            _ => HelperResult::Continue { cost: 10 },
        }
    }

    fn page_fault(&mut self, _vaddr: u64, _write: bool, _machine: &mut Machine) -> FaultAction {
        // Host paging is off for the QEMU-style baseline, so no host faults
        // should occur; propagate defensively if one does.
        FaultAction::Propagate { cost: 100 }
    }
}

/// The QEMU-style baseline system emulator.
pub struct QemuRef {
    /// Host machine (paging disabled — the "user process" configuration).
    pub machine: Machine,
    /// Runtime services.
    pub runtime: QemuRuntime,
    /// Virtually-indexed code cache.
    pub cache: CodeCache,
    /// JIT phase timers.
    pub timers: PhaseTimers,
    isa: Aarch64Isa,
    guest_ram: u64,
    max_block_insns: usize,
    stats: RunStats,
    per_region: HashMap<RegionKey, RegionProfile>,
    /// Record per-block cycles.
    pub per_block_stats: bool,
    /// Chain direct successors within a guest page (real QEMU's policy).
    pub qemu_chaining: bool,
    /// Lift the same-page restriction on chaining (TCG `goto_tb` analogue):
    /// direct branches link across pages too.  Only meaningful with
    /// `qemu_chaining` enabled.
    pub goto_tb: bool,
}

impl QemuRef {
    /// Creates the baseline emulator with same-page chaining configured
    /// explicitly.
    pub fn with_chaining(guest_ram: u64, qemu_chaining: bool) -> Self {
        let mut q = Self::new(guest_ram);
        q.qemu_chaining = qemu_chaining;
        q
    }

    /// Creates the strongest honest baseline: same-page chaining plus the
    /// `goto_tb` cross-page linking analogue.
    pub fn with_goto_tb(guest_ram: u64) -> Self {
        let mut q = Self::with_chaining(guest_ram, true);
        q.goto_tb = true;
        q
    }

    /// Creates the baseline emulator with the given guest RAM size.
    pub fn new(guest_ram: u64) -> Self {
        let mut machine = Machine::new(MachineConfig::default());
        // The register file is addressed physically (flat memory).
        machine.set_reg(Gpr::Rbp, layout::REGFILE_PHYS);
        let runtime = QemuRuntime::new(guest_ram);
        let mut q = QemuRef {
            machine,
            runtime,
            cache: CodeCache::new(CacheIndex::GuestVirtual),
            timers: PhaseTimers::default(),
            isa: Aarch64Isa,
            guest_ram,
            max_block_insns: 64,
            stats: RunStats::default(),
            per_region: HashMap::new(),
            per_block_stats: false,
            qemu_chaining: false,
            goto_tb: false,
        };
        // Boot in EL1.
        q.machine
            .mem
            .write_u64(
                layout::REGFILE_PHYS + guest_aarch64::CURRENT_EL_OFF as u64,
                1,
            )
            .expect("register file inside RAM");
        q
    }

    /// Attaches a virtio-mmio block device (identical model to Captive's,
    /// so cross-engine runs stay byte-identical under injected faults).
    pub fn attach_virtio(&mut self, cfg: hvm::VirtioBlkConfig) {
        let dev = VirtioBlk::new(cfg, layout::GUEST_PHYS_BASE, self.guest_ram);
        dev.init_mmio(&mut self.machine.mem)
            .expect("virtio MMIO window must lie inside guest RAM");
        self.runtime.virtio = Some(dev);
    }

    /// Loads a guest program at a guest physical address.
    pub fn load_program(&mut self, guest_phys: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let _ = self.machine.mem.write_uint(
                layout::GUEST_PHYS_BASE + guest_phys + i as u64 * 4,
                *w as u64,
                4,
            );
        }
    }

    /// Writes guest physical memory.
    pub fn write_guest_phys(&mut self, guest_phys: u64, value: u64, size: u64) {
        let _ = self
            .machine
            .mem
            .write_uint(layout::GUEST_PHYS_BASE + guest_phys, value, size);
    }

    /// Sets the guest entry point.
    pub fn set_entry(&mut self, pc: u64) {
        self.machine.set_reg(Gpr::R15, pc);
    }

    /// Reads a guest general-purpose register.
    pub fn guest_reg(&mut self, index: u32) -> u64 {
        self.machine
            .mem
            .read_u64(layout::REGFILE_PHYS + x_off(index) as u64)
            .unwrap_or(0)
    }

    /// Reads the guest's NZCV flags nibble (cross-engine equivalence tests).
    pub fn guest_nzcv(&mut self) -> u64 {
        self.machine
            .mem
            .read_u64(layout::REGFILE_PHYS + guest_aarch64::NZCV_OFF as u64)
            .unwrap_or(0)
    }

    /// FNV-1a digest of `len` bytes of guest physical memory starting at
    /// `start` (byte-exact final-state comparison for the chaos harness).
    pub fn guest_mem_digest(&self, start: u64, len: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in start..start.saturating_add(len) {
            let b = self
                .machine
                .mem
                .read_uint(layout::GUEST_PHYS_BASE + a, 1)
                .unwrap_or(0) as u8;
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Console output.
    pub fn console(&self) -> &[u8] {
        &self.runtime.uart_output
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats.clone();
        s.cycles = self.machine.perf.cycles;
        s.host_insns = self.machine.perf.insns;
        s.code_bytes = self.cache.total_encoded_bytes() as u64;
        // Every block not entered through a chain link went through the
        // dispatcher.
        s.slow_dispatches = s.blocks - s.chained_transfers;
        s.opt_dce_insns = self.timers.opt_dce_insns;
        s.lower_bailouts = self.timers.lower_bailouts;
        s.sample_virtio(
            self.runtime.virtio.as_ref(),
            self.runtime.external_invalidations,
        );
        s
    }

    /// Per-region profiles, keyed by the *executed* region (same
    /// [`RegionProfile`] shape as Captive's, so code-quality comparisons
    /// read one structure), with cycles attributed per [`EntryMode`].
    pub fn region_profiles(&self) -> &HashMap<RegionKey, RegionProfile> {
        &self.per_region
    }

    fn fetch_pa(&mut self, va: u64) -> Result<u64, GuestEvent> {
        self.runtime
            .soft_translate(&self.machine, va, false)
            .map(|(pa, _)| pa)
            .map_err(|_| GuestEvent::InstrAbort { vaddr: va })
    }

    /// Runs the guest for at most `max_blocks` executed blocks.
    ///
    /// With `qemu_chaining` enabled the dispatcher has an inner loop that
    /// follows patched successor links between blocks on the same guest
    /// page; links are stamped with the cache epoch, so the full-cache
    /// invalidation that virtual indexing forces on any translation-state
    /// change retires them automatically (there is no context generation in
    /// the QEMU-style design — the flush *is* the generation bump).
    pub fn run(&mut self, max_blocks: u64) -> RunExit {
        let mut budget = max_blocks;
        // A block whose same-page direct exit was taken with the successor
        // link still unresolved; patched once the slow path resolves it.
        let mut patch_from: Option<(Arc<Region>, usize)> = None;
        while budget > 0 {
            if let Some(code) = self.runtime.exit_code {
                return RunExit::GuestHalted { code };
            }
            // Retire due device completions before the flush check so a DMA
            // write that landed on translated code is flushed on this very
            // iteration, not the next.
            self.runtime.poll_virtio(&mut self.machine);
            if self.runtime.flush_requested {
                // Virtual indexing forces a full cache flush on guest
                // translation-state changes.
                self.cache.invalidate_all();
                self.runtime.flush_requested = false;
                patch_from = None;
            }
            let pc = self.machine.reg(Gpr::R15);
            // Deterministic event sources fire at block boundaries (and at
            // back-edge exits of looping translations): the guest PC is
            // architecturally precise here.
            if let Some(line) = self.runtime.events.take(self.machine.perf.cycles) {
                patch_from = None;
                budget -= 1;
                self.deliver(GuestEvent::Irq { line }, pc);
                continue;
            }
            let pa = match self.fetch_pa(pc) {
                Ok(pa) => pa,
                Err(ev) => {
                    patch_from = None;
                    budget -= 1;
                    let pc_now = self.machine.reg(Gpr::R15);
                    self.deliver(ev, pc_now);
                    continue;
                }
            };
            let key = RegionKey { phys: pa, virt: pc };
            let mut block = match self.cache.get(key, 0) {
                Some(b) => b,
                None => {
                    self.stats.translations += 1;
                    let b = self.translate(pc, pa);
                    self.cache.insert(b)
                }
            };
            if let Some((prev, slot)) = patch_from.take() {
                if self.qemu_chaining && block.guest_virt == pc {
                    prev.set_link(slot, 0, self.cache.epoch(), &block);
                    self.stats.chain_patches += 1;
                }
            }
            let mut chained = false;
            loop {
                let before = self.machine.perf.cycles;
                let code = Arc::clone(&block.code);
                let exit = if chained {
                    self.machine.run_block_chained(&code, &mut self.runtime)
                } else {
                    self.machine.run_block(&code, &mut self.runtime)
                };
                let spent = self.machine.perf.cycles - before;
                self.stats.blocks += 1;
                self.stats.guest_insns += block.guest_insns as u64;
                if self.per_block_stats {
                    let p = self.per_region.entry(block.key()).or_default();
                    p.guest_insns = block.guest_insns as u64;
                    p.constituents = block.constituents as u64;
                    let mode = if chained {
                        EntryMode::Chained
                    } else {
                        EntryMode::Dispatched
                    };
                    p.record(mode, spent);
                }
                budget -= 1;
                match exit {
                    ExitReason::BlockEnd | ExitReason::HelperExit => {
                        if let Some(ev) = self.runtime.pending.take() {
                            let pc_now = self.machine.reg(Gpr::R15);
                            self.deliver(ev, pc_now);
                            break;
                        }
                        // A TLBI/MSR helper may have requested the flush that
                        // virtual indexing demands: take the slow path so the
                        // cache is emptied before the next lookup.
                        if exit == ExitReason::HelperExit
                            || self.runtime.flush_requested
                            || !self.qemu_chaining
                            || budget == 0
                            || self.runtime.events.due(self.machine.perf.cycles)
                            || self.runtime.virtio_due(self.machine.perf.cycles)
                        {
                            break;
                        }
                        let next_pc = self.machine.reg(Gpr::R15);
                        // Real QEMU only chains within the guest page the
                        // translation was made for; the `goto_tb` knob lifts
                        // the restriction for direct branches.
                        let cross_page = (next_pc & !0xFFF) != (block.guest_virt & !0xFFF);
                        if cross_page && !self.goto_tb {
                            break;
                        }
                        let Some(slot) = block.chain_slot(next_pc) else {
                            break;
                        };
                        if let Some(next) = block.follow_link(slot, 0, self.cache.epoch()) {
                            self.stats.chained_transfers += 1;
                            if cross_page {
                                self.stats.goto_tb_transfers += 1;
                            }
                            block = next;
                            chained = true;
                            continue;
                        }
                        patch_from = Some((Arc::clone(&block), slot));
                        break;
                    }
                    ExitReason::Halted => {
                        return RunExit::GuestHalted {
                            code: self.runtime.exit_code.unwrap_or(0),
                        }
                    }
                    ExitReason::MemFault { vaddr, write } => {
                        let pc_now = self.machine.reg(Gpr::R15);
                        self.deliver(GuestEvent::DataAbort { vaddr, write }, pc_now);
                        break;
                    }
                    ExitReason::FuelExhausted => {
                        return RunExit::Error("translated block did not terminate".into())
                    }
                    ExitReason::Error(e) => return RunExit::Error(e),
                }
            }
        }
        RunExit::BudgetExhausted
    }

    fn deliver(&mut self, ev: GuestEvent, pc: u64) {
        match ev {
            GuestEvent::Halt { code } => {
                self.runtime.exit_code = Some(code);
                return;
            }
            GuestEvent::DataAbort { vaddr, write } => {
                self.runtime.take_exception(
                    &mut self.machine,
                    esr_class::DATA_ABORT,
                    write as u64,
                    pc,
                    Some(vaddr),
                );
            }
            GuestEvent::InstrAbort { vaddr } => {
                self.runtime.take_exception(
                    &mut self.machine,
                    esr_class::INSTR_ABORT,
                    0,
                    pc,
                    Some(vaddr),
                );
            }
            GuestEvent::Irq { line } => {
                self.stats.irqs_delivered += 1;
                if line == hvm::TIMER_LINE {
                    self.stats.timer_irqs += 1;
                }
                self.runtime.take_exception(
                    &mut self.machine,
                    esr_class::IRQ,
                    line as u64,
                    pc,
                    None,
                );
            }
        }
        self.stats.guest_exceptions += 1;
    }

    /// Translates one block in the TCG style: memory accesses and FP go
    /// through helpers, everything else reuses the generator functions.
    fn translate(&mut self, pc: u64, pa: u64) -> Region {
        let mut e = Emitter::new();
        let mut guest_insns = 0usize;
        let mut va = pc;
        loop {
            if guest_insns > 0 && (va & !0xFFF) != (pc & !0xFFF) {
                break;
            }
            let pa_i = if guest_insns == 0 {
                pa
            } else {
                match self.runtime.soft_translate(&self.machine, va, false) {
                    Ok((p, _)) => p,
                    Err(_) => break,
                }
            };
            let word = self
                .machine
                .mem
                .read_uint(layout::GUEST_PHYS_BASE + pa_i, 4)
                .unwrap_or(0) as u32;
            let decoded = self
                .timers
                .time(Phase::Decode, || self.isa.decode(word, va));
            let end = match decoded {
                None => {
                    self.timers.time(Phase::Translate, || {
                        let class = e.const_u64(esr_class::UNDEFINED);
                        let iss = e.const_u64(0);
                        let ret = e.const_u64(va);
                        e.call_helper(helpers::TAKE_EXCEPTION, &[class, iss, ret]);
                        e.set_end_of_block();
                    });
                    true
                }
                Some(d) => self.timers.time(Phase::Translate, || {
                    let end = qemu_generate(&d, &mut e, &self.isa);
                    if !end {
                        e.inc_pc(4);
                    }
                    end
                }),
            };
            guest_insns += 1;
            va += 4;
            if end || guest_insns >= self.max_block_insns {
                break;
            }
        }
        // The baseline records terminator metadata too (it is free at
        // translation time) but its dispatcher never follows chain links.
        let exit = e.exit_hint().unwrap_or(BlockExit::Fallthrough { next: va });
        let lir = e.finish();
        let lir_count = lir.len();
        // The baseline deliberately skips the `dbt::opt` phase (TCG-style
        // translation quality); it still benefits from the allocator's
        // iterative dead-code marking, which is part of the shared pipeline.
        let t = match dbt::finish_translation(&mut self.timers, lir, false, false, None) {
            Ok(t) => t,
            Err(_) => {
                // Same degradation as Captive: discard the defective
                // translation and raise a guest UNDEF at the entry instead
                // of executing corrupt host code.
                self.timers.lower_bailouts += 1;
                return self.undef_fallback(pc, pa);
            }
        };
        self.timers.blocks += 1;
        self.timers.guest_insns += guest_insns as u64;
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
            promoted: Vec::new(),
            idiom_candidates: [0; dbt::RULE_COUNT],
        }
    }

    /// The degraded translation used when lowering bails out: a
    /// one-instruction block raising a guest UNDEF exception at `pc`.  The
    /// stub uses no virtual registers, so its own lowering cannot fail.
    fn undef_fallback(&mut self, pc: u64, pa: u64) -> Region {
        let mut e = Emitter::new();
        let class = e.const_u64(esr_class::UNDEFINED);
        let iss = e.const_u64(0);
        let ret = e.const_u64(pc);
        e.call_helper(helpers::TAKE_EXCEPTION, &[class, iss, ret]);
        e.set_end_of_block();
        let lir = e.finish();
        let lir_count = lir.len();
        let t = dbt::finish_translation(&mut self.timers, lir, false, false, None)
            .expect("host bug: the UNDEF stub lowers without virtual registers");
        self.timers.blocks += 1;
        self.timers.guest_insns += 1;
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
}

/// TCG-style per-instruction emission: memory and FP through helpers; other
/// instructions fall back to the shared generator functions.
fn qemu_generate(d: &guest_aarch64::gen::Decoded, e: &mut Emitter, isa: &Aarch64Isa) -> bool {
    let load_via_helper =
        |e: &mut Emitter, rn: u32, off_node: dbt::NodeId, size: AccessSize| -> dbt::NodeId {
            let base = e.load_register(x_off(rn), ValueType::U64);
            let addr = e.add(base, off_node);
            let sz = e.const_u64(size.bytes());
            e.call_helper(qhelpers::MMU_READ, &[addr, sz])
        };
    let store_via_helper =
        |e: &mut Emitter, rn: u32, off_node: dbt::NodeId, value: dbt::NodeId, size: AccessSize| {
            let base = e.load_register(x_off(rn), ValueType::U64);
            let addr = e.add(base, off_node);
            let sz = e.const_u64(size.bytes());
            e.call_helper(qhelpers::MMU_WRITE, &[addr, value, sz]);
        };
    match d.insn {
        Insn::Load {
            rt,
            rn,
            imm,
            size,
            sext,
        } => {
            let off = e.const_u64(imm as u64);
            let v = load_via_helper(e, rn, off, size);
            let v = if sext { e.sext(v, ValueType::U32) } else { v };
            if rt != 31 {
                e.store_register(x_off(rt), v);
            }
            false
        }
        Insn::Store { rt, rn, imm, size } => {
            let off = e.const_u64(imm as u64);
            let v = if rt == 31 {
                e.const_u64(0)
            } else {
                e.load_register(x_off(rt), ValueType::U64)
            };
            store_via_helper(e, rn, off, v, size);
            false
        }
        Insn::LoadReg { rt, rn, rm } => {
            let off = e.load_register(x_off(rm), ValueType::U64);
            let v = load_via_helper(e, rn, off, AccessSize::Double);
            if rt != 31 {
                e.store_register(x_off(rt), v);
            }
            false
        }
        Insn::StoreReg { rt, rn, rm } => {
            let off = e.load_register(x_off(rm), ValueType::U64);
            let v = e.load_register(x_off(rt), ValueType::U64);
            store_via_helper(e, rn, off, v, AccessSize::Double);
            false
        }
        Insn::Ldp { rt, rt2, rn, imm } => {
            let off1 = e.const_u64(imm as i64 as u64);
            let v1 = load_via_helper(e, rn, off1, AccessSize::Double);
            e.store_register(x_off(rt), v1);
            let off2 = e.const_u64((imm + 8) as i64 as u64);
            let v2 = load_via_helper(e, rn, off2, AccessSize::Double);
            e.store_register(x_off(rt2), v2);
            false
        }
        Insn::Stp { rt, rt2, rn, imm } => {
            let v1 = e.load_register(x_off(rt), ValueType::U64);
            let off1 = e.const_u64(imm as i64 as u64);
            store_via_helper(e, rn, off1, v1, AccessSize::Double);
            let v2 = e.load_register(x_off(rt2), ValueType::U64);
            let off2 = e.const_u64((imm + 8) as i64 as u64);
            store_via_helper(e, rn, off2, v2, AccessSize::Double);
            false
        }
        Insn::LoadFp { vt, rn, imm, size } => {
            let off = e.const_u64(imm as u64);
            let v = load_via_helper(e, rn, off, AccessSize::Double);
            e.store_register(v_off(vt), v);
            if size == AccessSize::Quad {
                let off2 = e.const_u64(imm as u64 + 8);
                let v2 = load_via_helper(e, rn, off2, AccessSize::Double);
                e.store_register_sized(v_off(vt) + 8, v2, MemSize::U64);
            } else {
                let zero = e.const_u64(0);
                e.store_register_sized(v_off(vt) + 8, zero, MemSize::U64);
            }
            false
        }
        Insn::StoreFp { vt, rn, imm, size } => {
            let v = e.load_register(v_off(vt), ValueType::U64);
            let off = e.const_u64(imm as u64);
            store_via_helper(e, rn, off, v, AccessSize::Double);
            if size == AccessSize::Quad {
                let v2 = e.load_register(v_off(vt) + 8, ValueType::U64);
                let off2 = e.const_u64(imm as u64 + 8);
                store_via_helper(e, rn, off2, v2, AccessSize::Double);
            }
            false
        }
        Insn::FpReg { kind, vd, vn, vm } => {
            let op = e.const_u64(match kind {
                FpKind::Add => 0,
                FpKind::Sub => 1,
                FpKind::Mul => 2,
                FpKind::Div => 3,
            });
            let a = e.load_register(v_off(vn), ValueType::U64);
            let b = e.load_register(v_off(vm), ValueType::U64);
            let r = e.call_helper(qhelpers::SOFT_FP, &[op, a, b]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::Fsqrt { vd, vn } => {
            let a = e.load_register(v_off(vn), ValueType::U64);
            let r = e.call_helper(qhelpers::SOFT_SQRT, &[a]);
            e.store_register(v_off(vd), r);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::Fmadd { vd, vn, vm, va } => {
            let two = e.const_u64(2);
            let a = e.load_register(v_off(vn), ValueType::U64);
            let b = e.load_register(v_off(vm), ValueType::U64);
            let prod = e.call_helper(qhelpers::SOFT_FP, &[two, a, b]);
            let zero_op = e.const_u64(0);
            let c = e.load_register(v_off(va), ValueType::U64);
            let sum = e.call_helper(qhelpers::SOFT_FP, &[zero_op, prod, c]);
            e.store_register(v_off(vd), sum);
            let zero = e.const_u64(0);
            e.store_register_sized(v_off(vd) + 8, zero, MemSize::U64);
            false
        }
        Insn::VAdd2D { vd, vn, vm } | Insn::VMul2D { vd, vn, vm } => {
            let op = e.const_u64(if matches!(d.insn, Insn::VAdd2D { .. }) {
                0
            } else {
                1
            });
            let vd_off = e.const_u64(v_off(vd) as u64);
            let vn_off = e.const_u64(v_off(vn) as u64);
            let vm_off = e.const_u64(v_off(vm) as u64);
            e.call_helper(qhelpers::VEC_OP, &[op, vd_off, vn_off, vm_off]);
            false
        }
        _ => isa.generate(d, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::asm;

    fn boot(words: &[u32]) -> (QemuRef, RunExit) {
        let mut q = QemuRef::new(32 * 1024 * 1024);
        q.load_program(0x1000, words);
        q.set_entry(0x1000);
        let exit = q.run(200_000);
        (q, exit)
    }

    #[test]
    fn runs_arithmetic_and_loops() {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 100, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (mut q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(0), 5050);
    }

    #[test]
    fn memory_goes_through_softmmu_helpers() {
        let mut a = asm::Assembler::new();
        a.mov_imm64(1, 0x10000);
        a.mov_imm64(2, 0xABCD);
        a.push(asm::str(2, 1, 8));
        a.push(asm::ldr(3, 1, 8));
        a.push(asm::hlt());
        let (mut q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(3), 0xABCD);
        assert!(
            q.machine.perf.helper_calls >= 2,
            "loads and stores call the softmmu helper"
        );
        assert_eq!(q.machine.perf.page_faults, 0, "no host paging involved");
    }

    #[test]
    fn fp_goes_through_softfloat_helpers() {
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0x78)); // 1.5
        a.push(asm::fmul(1, 0, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (mut q, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(f64::from_bits(q.guest_reg(0)), 2.25);
        assert!(q.machine.perf.helper_calls >= 1, "softfloat helper used");
    }

    #[test]
    fn same_page_chaining_is_faster_and_architecturally_invisible() {
        // A same-page multi-block loop: the chained baseline must produce
        // identical guest state, and the whole cycle gap must be the counted
        // chained transfers' saved dispatch cost.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 2000, 0));
        a.label("loop");
        a.b_to("body");
        a.label("body");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let words = a.finish();

        let run = |chaining: bool| {
            let mut q = QemuRef::with_chaining(32 * 1024 * 1024, chaining);
            q.load_program(0x1000, &words);
            q.set_entry(0x1000);
            assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
            q
        };
        let mut on = run(true);
        let mut off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert_eq!(soff.chained_transfers, 0);
        assert!(
            son.chained_transfers > 3000,
            "same-page direct branches must chain: {}",
            son.chained_transfers
        );
        assert!(son.chain_patches >= 1);
        assert!(son.cycles < soff.cycles);
        let per_transfer = on.machine.cost.dispatch - on.machine.cost.chain;
        assert_eq!(
            soff.cycles - son.cycles,
            son.chained_transfers * per_transfer,
            "the gap is exactly the saved dispatch cost"
        );
    }

    #[test]
    fn cross_page_direct_branches_never_chain() {
        // The loop bounces between two guest pages through direct branches;
        // real QEMU (and this baseline) must not chain across the page.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(1, 500, 0)); // 0x1000
                                         // loop head at 0x1004 branches to 0x2000.
        main.push(asm::b(0x2000 - 0x1004));
        let mut far = asm::Assembler::new();
        far.push(asm::subi(1, 1, 1)); // 0x2000
        far.push(asm::cbnz(1, 0x1004 - 0x2004)); // back to the loop head
        far.push(asm::hlt());

        let mut q = QemuRef::with_chaining(32 * 1024 * 1024, true);
        q.load_program(0x1000, &main.finish());
        q.load_program(0x2000, &far.finish());
        q.set_entry(0x1000);
        assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(1), 0);
        let s = q.stats();
        // Every loop transfer crosses a page, so nothing may chain.  (The
        // one same-page edge — the final cbnz fallthrough onto the hlt — is
        // allowed to *patch*, but executes only once, so it never follows.)
        assert_eq!(
            s.chained_transfers, 0,
            "cross-page transfers must take the dispatcher"
        );
    }

    #[test]
    fn goto_tb_chains_across_pages_and_stays_invisible() {
        // Same cross-page loop as above: with the `goto_tb` knob the direct
        // branches must link across the page, save exactly the dispatch
        // cost, and leave guest state untouched.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(0, 0, 0)); // 0x1000
        main.push(asm::movz(1, 500, 0));
        // loop head at 0x1008 branches to 0x2000.
        main.push(asm::b(0x2000 - 0x1008));
        let mut far = asm::Assembler::new();
        far.push(asm::add(0, 0, 1)); // 0x2000
        far.push(asm::subi(1, 1, 1));
        far.push(asm::cbnz(1, 0x1008 - 0x2008)); // back to the loop head
        far.push(asm::hlt());
        let main_words = main.finish();
        let far_words = far.finish();

        let run = |goto_tb: bool| {
            let mut q = QemuRef::with_chaining(32 * 1024 * 1024, true);
            q.goto_tb = goto_tb;
            q.load_program(0x1000, &main_words);
            q.load_program(0x2000, &far_words);
            q.set_entry(0x1000);
            assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
            q
        };
        let mut on = run(true);
        let mut off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert_eq!(soff.goto_tb_transfers, 0);
        assert!(
            son.goto_tb_transfers > 500,
            "direct branches must chain across pages: {}",
            son.goto_tb_transfers
        );
        let per_transfer = on.machine.cost.dispatch - on.machine.cost.chain;
        assert_eq!(
            soff.cycles - son.cycles,
            (son.chained_transfers - soff.chained_transfers) * per_transfer,
            "the gap is exactly the saved dispatch cost"
        );
    }

    #[test]
    fn chaining_survives_cache_flushes() {
        // TLBI inside the loop forces the full-cache invalidation of the
        // virtually-indexed design; epoch-stamped links must die with it and
        // execution must stay correct.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 50, 0));
        a.label("loop");
        a.b_to("body");
        a.label("body");
        a.push(asm::addi(0, 0, 1));
        a.push(asm::tlbi());
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let mut q = QemuRef::with_chaining(32 * 1024 * 1024, true);
        q.load_program(0x1000, &a.finish());
        q.set_entry(0x1000);
        assert_eq!(q.run(200_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(q.guest_reg(0), 50);
        assert!(
            q.cache.stats().invalidated_full > 0,
            "TLBI must flush the virtually-indexed cache"
        );
    }

    #[test]
    fn results_match_captive_on_the_same_program() {
        // A hot loop over memory: x2 accumulates loads of what x0 stores.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 7, 0));
        a.push(asm::movz(1, 1000, 0));
        a.push(asm::movz(2, 0, 0));
        a.mov_imm64(3, 0x20000);
        a.label("loop");
        a.push(asm::str(0, 3, 0));
        a.push(asm::ldr(4, 3, 0));
        a.push(asm::add(2, 2, 4));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let words = a.finish();

        let (mut q, qe) = boot(&words);
        let mut c = captive::Captive::new(captive::CaptiveConfig::default());
        c.load_program(0x1000, &words);
        c.set_entry(0x1000);
        let ce = c.run(100_000);
        assert_eq!(qe, RunExit::GuestHalted { code: 0 });
        assert_eq!(ce, captive::RunExit::GuestHalted { code: 0 });
        for r in 0..5 {
            assert_eq!(q.guest_reg(r), c.guest_reg(r), "x{r} diverged");
        }
        // On a hot memory loop Captive's direct host loads beat the softmmu
        // helper path once the one-off demand-mapping cost is amortised.
        assert!(
            c.stats().cycles < q.stats().cycles,
            "captive {} vs qemu {}",
            c.stats().cycles,
            q.stats().cycles
        );
    }
}
