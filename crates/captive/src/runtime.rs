//! Runtime services of the Captive unikernel: helper calls, host page-fault
//! handling (the accelerated virtual memory system), guest exception
//! delivery, and minimal device emulation (hypervisor console).

use crate::itlb::{DataTlb, FetchTlb};
use crate::layout;
use crate::FpMode;
use guest_aarch64::gen::helpers;
use guest_aarch64::{esr_class, mmu, SysReg};
use hvm::paging::{self, FrameAlloc, PageFlags};
use hvm::{EventSources, FaultAction, Gpr, HelperResult, Machine, Ring, Runtime, VirtioBlk};
use std::collections::HashSet;

/// Cycle cost of taking a data-side host fault and evaluating guest
/// permissions (ring transition, ESR decode, bookkeeping).
const DFAULT_BASE: u64 = 300;
/// Cycle cost of a software-assisted guest page-table walk (several
/// dependent guest memory reads) — charged only on real data-gTLB misses.
const DWALK_COST: u64 = 600;
/// Cycle cost of installing the host PTE mirroring a resolved guest mapping.
const DMAP_COST: u64 = 200;

/// SVC immediate used as the hypervisor console hypercall (putchar of X0).
pub const SVC_PUTCHAR: u32 = 0xFF0;
/// SVC immediate used as the hypervisor exit hypercall (exit code in X0).
pub const SVC_EXIT: u32 = 0xFF1;

/// Softfloat helper ids used when [`FpMode::Software`] is selected.
pub mod sf_helpers {
    pub const ADD: u16 = 20;
    pub const SUB: u16 = 21;
    pub const MUL: u16 = 22;
    pub const DIV: u16 = 23;
    pub const SQRT: u16 = 24;
}

/// A guest-visible event the dispatcher must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestEvent {
    /// Data abort at a guest virtual address.
    DataAbort {
        /// Faulting address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// Instruction fetch abort.
    InstrAbort {
        /// Faulting address.
        vaddr: u64,
    },
    /// The guest asked to stop.
    Halt {
        /// Exit code.
        code: u64,
    },
    /// Asynchronous interrupt from an event source (timer or latch).
    Irq {
        /// Interrupt line, delivered in the ESR ISS field.
        line: u32,
    },
}

/// The unikernel runtime: owns host page tables, devices and helper state.
pub struct CaptiveRuntime {
    /// Host physical address of the guest register file.
    pub regfile_phys: u64,
    /// Root of the host page tables Captive owns.
    pub host_pt_root: u64,
    /// Frame allocator for host page tables.
    frame_alloc: FrameAlloc,
    /// Allocator position right after boot: everything above it holds
    /// lower-half (guest) page-table subtrees, reclaimed wholesale on guest
    /// TLB flushes.
    pt_boot_mark: u64,
    /// Guest RAM size.
    pub guest_ram: u64,
    /// FP implementation mode.
    pub fp_mode: FpMode,
    /// Console output captured from the guest.
    pub uart_output: Vec<u8>,
    /// Exit code set by the exit hypercall.
    pub exit_code: Option<u64>,
    /// Guest physical pages that contain translated code (for self-modifying
    /// code detection via write protection).
    code_pages: HashSet<u64>,
    /// Code pages that were written and whose translations must be dropped.
    smc_dirty: Vec<u64>,
    pending: Option<GuestEvent>,
    fp_env: softfloat::FpEnv,
    /// Bumped whenever guest translation state may have changed (TLBI,
    /// `TTBR0`/`SCTLR` writes).  Stamped into fetch-TLB entries and chain
    /// links; a mismatch silently retires them.
    context_generation: u64,
    /// Fetch-side instruction TLB (VPN→PFN for instruction fetches).
    pub fetch_tlb: FetchTlb,
    /// Data-side guest TLB: caches guest walk results for the host
    /// page-fault handler, flushed (via the generation stamp) on
    /// TLBI/TTBR0/SCTLR like the fetch TLB.
    pub data_tlb: DataTlb,
    /// Deterministic guest event sources (programmable timer + interrupt
    /// latch), polled at back-edges and block boundaries.
    pub events: EventSources,
    /// Attached virtio-blk device, if any.  Kicked from `MSR_NOTIFY`,
    /// retired from the dispatcher via [`CaptiveRuntime::poll_virtio`].
    pub virtio: Option<VirtioBlk>,
    /// DMA completion stores that landed on pages holding live translations
    /// (each one forced a `CodeCache::invalidate_phys_page`).
    pub external_invalidations: u64,
}

impl CaptiveRuntime {
    /// Builds the runtime and the initial host page tables (Captive area
    /// only: register file and spill page), then enables host paging.
    pub fn new(machine: &mut Machine, guest_ram: u64, fp_mode: FpMode) -> Self {
        let mut frame_alloc = FrameAlloc::new(layout::HOST_PT_POOL_START, layout::HOST_PT_POOL_END);
        let root = frame_alloc
            .alloc(&mut machine.mem)
            .expect("host page-table pool");
        // Captive area: register file and spill page, accessible from the
        // ring the guest code runs in.
        assert!(paging::map_page(
            &mut machine.mem,
            root,
            layout::REGFILE_VA,
            layout::REGFILE_PHYS,
            PageFlags::user_rw(),
            &mut frame_alloc,
        ));
        assert!(paging::map_page(
            &mut machine.mem,
            root,
            layout::REGFILE_VA - 4096,
            layout::SPILL_PHYS,
            PageFlags::user_rw(),
            &mut frame_alloc,
        ));
        machine.enable_paging(root, 0);
        let pt_boot_mark = frame_alloc.mark();
        CaptiveRuntime {
            regfile_phys: layout::REGFILE_PHYS,
            host_pt_root: root,
            frame_alloc,
            pt_boot_mark,
            guest_ram,
            fp_mode,
            uart_output: Vec::new(),
            exit_code: None,
            code_pages: HashSet::new(),
            smc_dirty: Vec::new(),
            pending: None,
            fp_env: softfloat::FpEnv::arm(),
            context_generation: 0,
            fetch_tlb: FetchTlb::new(),
            data_tlb: DataTlb::new(),
            events: EventSources::default(),
            virtio: None,
            external_invalidations: 0,
        }
    }

    /// Retires due virtio completions: DMA lands in guest memory through the
    /// external-store path, and any touched page holding translated code is
    /// queued for invalidation exactly like a trapped self-modifying store —
    /// except no write-protection fault announces it, so this *must* run
    /// before translated code is re-entered.  Returns true when anything
    /// retired (the dispatcher then drains `take_smc_dirty`).
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
        for page in dev.take_touched_pages() {
            if self.code_pages.remove(&page) {
                self.smc_dirty.push(page);
                self.external_invalidations += 1;
            }
        }
        true
    }

    /// True when the attached device's queue head may retire at `cycles` —
    /// the dispatcher and every looping region's back-edge must yield so
    /// the completion is not starved by chained translated code.
    pub fn virtio_due(&self, cycles: u64) -> bool {
        self.virtio
            .as_ref()
            .is_some_and(|d| d.due(cycles, &self.events.latch))
    }

    /// Current translation-context generation.
    pub fn context_generation(&self) -> u64 {
        self.context_generation
    }

    /// Guest physical pages currently holding translated code (the page set
    /// a tier-1 formation snapshot is seeded from).
    pub fn code_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.code_pages.iter().copied()
    }

    /// Current guest `TTBR0` (the translation root a formation snapshot
    /// must walk with).
    pub fn guest_ttbr0(&self, machine: &Machine) -> u64 {
        self.read_gregfile(machine, guest_aarch64::TTBR0_OFF)
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

    /// Reads guest physical memory (bounds-checked against guest RAM; the
    /// checked add keeps addresses near `u64::MAX` from wrapping past the
    /// bound).
    pub fn read_guest_phys(&self, machine: &Machine, gpa: u64) -> Option<u64> {
        match gpa.checked_add(8) {
            Some(end) if end <= self.guest_ram => {}
            _ => return None,
        }
        machine.mem.read_u64(layout::GUEST_PHYS_BASE + gpa).ok()
    }

    /// Whether the guest MMU is enabled (SCTLR bit 0).
    pub fn guest_mmu_enabled(&self, machine: &Machine) -> bool {
        self.read_gregfile(machine, guest_aarch64::SCTLR_OFF) & 1 != 0
    }

    /// Translates an instruction-fetch guest virtual address to a guest
    /// physical address using the guest's translation state.
    pub fn guest_va_to_pa(&self, machine: &Machine, va: u64) -> Result<u64, GuestEvent> {
        if !self.guest_mmu_enabled(machine) {
            if va < self.guest_ram {
                return Ok(va);
            }
            return Err(GuestEvent::InstrAbort { vaddr: va });
        }
        let ttbr0 = self.read_gregfile(machine, guest_aarch64::TTBR0_OFF);
        let walk = mmu::walk_guest(|a| self.read_guest_phys(machine, a), ttbr0, va)
            .map_err(|_| GuestEvent::InstrAbort { vaddr: va })?;
        Ok(walk.frame | (va & 0xFFF))
    }

    /// Translates an instruction-fetch virtual address through the fetch
    /// TLB, falling back to the guest page-table walker (charged at the
    /// hardware walk cost) on a miss.
    pub fn fetch_va_to_pa(&mut self, machine: &mut Machine, va: u64) -> Result<u64, GuestEvent> {
        let ctx_gen = self.context_generation;
        if let Some(pa) = self.fetch_tlb.lookup(va, ctx_gen) {
            return Ok(pa);
        }
        let mmu_on = self.guest_mmu_enabled(machine);
        let pa = self.guest_va_to_pa(machine, va)?;
        if mmu_on {
            machine.perf.cycles += machine.cost.page_walk_per_level * mmu::GUEST_LEVELS as u64;
        }
        self.fetch_tlb.insert(va, pa, ctx_gen);
        Ok(pa)
    }

    /// Records that a guest physical page now contains translated code and
    /// write-protects its identity mapping so self-modifying writes fault.
    pub fn note_code_page(&mut self, machine: &mut Machine, guest_phys_page: u64) {
        if self.code_pages.insert(guest_phys_page) {
            // While the guest MMU is off the page is identity mapped; revoke
            // write permission so a later store to it traps for invalidation.
            if paging::write_protect_page(&mut machine.mem, self.host_pt_root, guest_phys_page) {
                machine.tlb.flush_page(guest_phys_page);
            }
        }
    }

    /// Returns and clears the list of code pages invalidated by guest writes.
    pub fn take_smc_dirty(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.smc_dirty)
    }

    /// Returns a pending guest event, if any.
    pub fn take_pending_event(&mut self) -> Option<GuestEvent> {
        self.pending.take()
    }

    /// Delivers a synchronous guest exception: updates ESR/FAR/ELR/SPSR,
    /// switches to EL1 and redirects the guest PC to the vector base.
    pub fn deliver_exception(&mut self, machine: &mut Machine, event: GuestEvent, pc: u64) {
        let (class, iss, far) = match event {
            GuestEvent::DataAbort { vaddr, write } => {
                (esr_class::DATA_ABORT, write as u64, Some(vaddr))
            }
            GuestEvent::InstrAbort { vaddr } => (esr_class::INSTR_ABORT, 0, Some(vaddr)),
            GuestEvent::Halt { code } => {
                self.exit_code = Some(code);
                return;
            }
            GuestEvent::Irq { line } => (esr_class::IRQ, line as u64, None),
        };
        self.take_exception(machine, class, iss, pc, far);
    }

    fn take_exception(
        &mut self,
        machine: &mut Machine,
        class: u64,
        iss: u64,
        return_pc: u64,
        far: Option<u64>,
    ) {
        // Exception entry masks asynchronous events (the PSTATE.I analogue)
        // until the handler's `eret`: a pending IRQ must never preempt a
        // handler mid-flight and clobber ELR/ESR under it.
        self.events.set_masked(true);
        let el = self.read_gregfile(machine, guest_aarch64::CURRENT_EL_OFF);
        let nzcv = self.read_gregfile(machine, guest_aarch64::NZCV_OFF);
        self.write_gregfile(
            machine,
            guest_aarch64::ESR_OFF,
            (class << 26) | (iss & 0xFFFF),
        );
        if let Some(far) = far {
            self.write_gregfile(machine, guest_aarch64::FAR_OFF, far);
        }
        self.write_gregfile(machine, guest_aarch64::ELR_OFF, return_pc);
        // SPSR saves the interrupted context's flags alongside the EL so a
        // handler arriving at an arbitrary preemption point (e.g. a timer
        // IRQ mid-loop) may clobber NZCV freely; `eret` restores both.
        self.write_gregfile(
            machine,
            guest_aarch64::SPSR_OFF,
            ((nzcv & 0xF) << 28) | (el & 1),
        );
        self.write_gregfile(machine, guest_aarch64::CURRENT_EL_OFF, 1);
        let vbar = self.read_gregfile(machine, guest_aarch64::VBAR_OFF);
        if vbar == 0 {
            // No vector installed: the guest cannot handle this exception.
            // Treat it as a fatal guest error rather than spinning through
            // the zero page.
            self.exit_code = Some(0xDEAD);
        }
        machine.set_reg(Gpr::R15, vbar);
        machine.ring = Ring::Ring0;
    }

    /// Tears down the lower-half (guest) mappings and flushes the host TLB —
    /// the intercepted-TLB-flush mechanism of Section 2.7.4.  Also retires
    /// every fetch-TLB entry and chain link by bumping the context
    /// generation: the guest's VA→PA mapping can no longer be trusted.
    fn teardown_guest_mappings(&mut self, machine: &mut Machine) {
        paging::clear_top_level_entries(
            &mut machine.mem,
            self.host_pt_root,
            layout::LOWER_HALF_PML4_ENTRIES,
        );
        // The cleared entries orphan every lower-half page-table subtree;
        // reclaim their frames so repeated guest TLB flushes cannot exhaust
        // the pool.  This is safe because every post-boot allocation belongs
        // to a lower-half subtree: `page_fault` rejects faults at or above
        // LOWER_HALF_LIMIT before mapping, so the only upper-half tables
        // (register file + spill page, PML4 entry 256) were built at boot,
        // below the mark.
        self.frame_alloc.reset_to(self.pt_boot_mark);
        machine.tlb.flush_all();
        machine.perf.tlb_flushes += 1;
        self.context_generation += 1;
    }

    fn softfloat_binop(&mut self, machine: &mut Machine, op: u16) -> HelperResult {
        let a = machine.reg(Gpr::Rdi);
        let b = machine.reg(Gpr::Rsi);
        let r = match op {
            sf_helpers::ADD => softfloat::f64_add(a, b, &mut self.fp_env),
            sf_helpers::SUB => softfloat::f64_sub(a, b, &mut self.fp_env),
            sf_helpers::MUL => softfloat::f64_mul(a, b, &mut self.fp_env),
            sf_helpers::DIV => softfloat::f64_div(a, b, &mut self.fp_env),
            sf_helpers::SQRT => softfloat::f64_sqrt_arm(a, &mut self.fp_env),
            _ => 0,
        };
        machine.set_reg(Gpr::Rax, r);
        // The softfloat body costs roughly this many cycles on top of the
        // call overhead already charged by the machine.
        HelperResult::Continue { cost: 90 }
    }
}

impl Runtime for CaptiveRuntime {
    fn helper(&mut self, id: u16, machine: &mut Machine) -> HelperResult {
        match id {
            helpers::TAKE_EXCEPTION => {
                let class = machine.reg(Gpr::Rdi);
                let iss = machine.reg(Gpr::Rsi);
                let ret_pc = machine.reg(Gpr::Rdx);
                if class == esr_class::SVC && iss == SVC_PUTCHAR as u64 {
                    let ch = self.read_gregfile(machine, guest_aarch64::x_off(0)) as u8;
                    self.uart_output.push(ch);
                    machine.set_reg(Gpr::R15, ret_pc);
                    return HelperResult::Exit { cost: 120 };
                }
                if class == esr_class::SVC && iss == SVC_EXIT as u64 {
                    let code = self.read_gregfile(machine, guest_aarch64::x_off(0));
                    self.exit_code = Some(code);
                    return HelperResult::Halt { cost: 50 };
                }
                self.take_exception(machine, class, iss, ret_pc, None);
                HelperResult::Exit { cost: 300 }
            }
            helpers::TLBI => {
                self.teardown_guest_mappings(machine);
                HelperResult::Continue { cost: 450 }
            }
            helpers::MSR_NOTIFY => {
                let id = machine.reg(Gpr::Rdi) as u32;
                match SysReg::from_id(id) {
                    Some(SysReg::Ttbr0) | Some(SysReg::Sctlr) => {
                        self.teardown_guest_mappings(machine);
                    }
                    // Guest-programmable timer: the MSR already stored the
                    // value into the register-file slot; read it back and
                    // (re)arm against the deterministic cycle counter.
                    Some(SysReg::CntTval) => {
                        let delta = self.read_gregfile(machine, guest_aarch64::CNT_TVAL_OFF);
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
                    // Queue notification: consume newly-published
                    // available-ring entries at this precise program point.
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
                // Arm FCMP NZCV: unordered 0011, less 1000, equal 0110, greater 0010.
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
                HelperResult::Continue { cost: 20 }
            }
            helpers::ERET => {
                let elr = self.read_gregfile(machine, guest_aarch64::ELR_OFF);
                let spsr = self.read_gregfile(machine, guest_aarch64::SPSR_OFF);
                self.write_gregfile(machine, guest_aarch64::CURRENT_EL_OFF, spsr & 1);
                self.write_gregfile(machine, guest_aarch64::NZCV_OFF, (spsr >> 28) & 0xF);
                // Returning from the handler re-enables IRQ delivery.
                self.events.set_masked(false);
                machine.set_reg(Gpr::R15, elr);
                HelperResult::Exit { cost: 260 }
            }
            helpers::HLT => {
                self.exit_code.get_or_insert(0);
                HelperResult::Halt { cost: 20 }
            }
            sf_helpers::ADD..=sf_helpers::SQRT => self.softfloat_binop(machine, id),
            _ => HelperResult::Continue { cost: 10 },
        }
    }

    /// A looping region polls this at every back-edge: a self-modifying
    /// write to a code page, a queued guest event, a due event-source
    /// deadline or a requested exit turn the loop-back into a dispatcher
    /// exit with the PC precise at the loop header, so invalidation and
    /// delivery latency is bounded by one iteration instead of the loop's
    /// (unbounded) trip count.
    fn loop_exit_pending(&mut self, cycles: u64) -> bool {
        !self.smc_dirty.is_empty()
            || self.pending.is_some()
            || self.exit_code.is_some()
            || self.events.due(cycles)
            || self.virtio_due(cycles)
    }

    fn page_fault(&mut self, vaddr: u64, write: bool, machine: &mut Machine) -> FaultAction {
        if vaddr >= layout::LOWER_HALF_LIMIT {
            // Faults in the Captive area are fatal configuration errors; the
            // guest should never see them.
            return FaultAction::Propagate { cost: 100 };
        }
        let page = vaddr & !0xFFF;
        if !self.guest_mmu_enabled(machine) {
            // Guest MMU off: guest virtual == guest physical; identity-map on
            // demand into the lower half.
            if vaddr >= self.guest_ram {
                return FaultAction::Propagate { cost: 200 };
            }
            let is_code = self.code_pages.contains(&page);
            if write && is_code {
                // Self-modifying code: drop translations for the page and
                // remap it writable.
                self.code_pages.remove(&page);
                self.smc_dirty.push(page);
            }
            let flags = if is_code && !write {
                PageFlags {
                    present: true,
                    writable: false,
                    user: true,
                }
            } else {
                PageFlags::user_rw()
            };
            let ok = paging::map_page(
                &mut machine.mem,
                self.host_pt_root,
                page,
                layout::GUEST_PHYS_BASE + page,
                flags,
                &mut self.frame_alloc,
            );
            machine.tlb.flush_page(vaddr);
            if ok {
                FaultAction::Retry { cost: 350 }
            } else {
                FaultAction::Propagate { cost: 350 }
            }
        } else {
            // Guest MMU on: resolve the guest translation — through the
            // data-side gTLB when a current-generation entry covers the page,
            // walking the guest page tables (and caching the result) only on
            // a real miss — then mirror it into the host page tables
            // (Section 2.7.3).  The walk portion of the handler cost is
            // charged only when a walk actually happened.
            let ctx_gen = self.context_generation;
            let (gpage, g_writable, g_user, walk_cost) = match self.data_tlb.lookup(vaddr, ctx_gen)
            {
                Some(e) => (e.page_pa, e.writable, e.user, 0),
                None => {
                    let ttbr0 = self.read_gregfile(machine, guest_aarch64::TTBR0_OFF);
                    let guest_ram = self.guest_ram;
                    let base = layout::GUEST_PHYS_BASE;
                    let walk = {
                        let mem = &machine.mem;
                        mmu::walk_guest(
                            |a| match a.checked_add(8) {
                                Some(end) if end <= guest_ram => mem.read_u64(base + a).ok(),
                                _ => None,
                            },
                            ttbr0,
                            vaddr,
                        )
                    };
                    match walk {
                        Ok(w) => {
                            self.data_tlb.insert(
                                vaddr,
                                w.frame,
                                w.flags.writable,
                                w.flags.user,
                                ctx_gen,
                            );
                            (w.frame & !0xFFF, w.flags.writable, w.flags.user, DWALK_COST)
                        }
                        Err(_) => {
                            return FaultAction::Propagate {
                                cost: DFAULT_BASE + DWALK_COST,
                            }
                        }
                    }
                }
            };
            let user_access = machine.ring == Ring::Ring3;
            if (write && !g_writable) || (user_access && !g_user) {
                return FaultAction::Propagate {
                    cost: DFAULT_BASE + walk_cost,
                };
            }
            let is_code = self.code_pages.contains(&gpage);
            if write && is_code {
                self.code_pages.remove(&gpage);
                self.smc_dirty.push(gpage);
            }
            let flags = PageFlags {
                present: true,
                writable: g_writable && (write || !is_code),
                user: g_user,
            };
            let ok = paging::map_page(
                &mut machine.mem,
                self.host_pt_root,
                page,
                layout::GUEST_PHYS_BASE + gpage,
                flags,
                &mut self.frame_alloc,
            );
            machine.tlb.flush_page(vaddr);
            let cost = DFAULT_BASE + DMAP_COST + walk_cost;
            if ok {
                FaultAction::Retry { cost }
            } else {
                FaultAction::Propagate { cost }
            }
        }
    }
}
