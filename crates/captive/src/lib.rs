//! Captive: the retargetable system-level DBT hypervisor.
//!
//! This crate ties the substrates together into the system the paper
//! describes: a KVM-style hypervisor ([`Captive`]) that owns a bare-metal
//! host virtual machine (`hvm`), runs the DBT execution engine inside it,
//! translates guest (ARMv8-lite) basic blocks through the shared `dbt`
//! pipeline using the guest model's generator functions, and exploits the
//! host machine's system features directly:
//!
//! * guest virtual memory is mapped on demand into the lower half of the
//!   host virtual address space by handling host page faults and walking the
//!   *guest* page tables (Section 2.7.3);
//! * guest TLB flushes are intercepted and implemented by clearing the
//!   low-half top-level host page-table entries (Section 2.7.4);
//! * translated code is cached by guest *physical* address and only
//!   invalidated when self-modifying code is detected via write protection
//!   (Section 2.6);
//! * translated-to-translated control transfers are **chained** (Sections
//!   2.6–2.7): blocks ending in direct branches carry lazily patched
//!   successor links, and the dispatcher's inner loop follows them without a
//!   page walk, cache lookup, or exception-level read — see the *Block
//!   chaining* section below;
//! * guest FP/SIMD instructions map to host FP/SIMD instructions with inline
//!   bit-accuracy fix-ups, or optionally to softfloat helper calls for the
//!   ablation of Section 3.6.2;
//! * the guest's exception level is tracked and guest user code runs in host
//!   ring 3, guest system code in ring 0 (Fig. 2).
//!
//! # Block chaining
//!
//! The dispatcher ([`Captive::run`]) has a two-level structure:
//!
//! * The **slow path** resolves the guest PC to a physical address (through
//!   the fetch-side iTLB in [`itlb`], falling back to a guest page-table
//!   walk), looks the block up in the physically-indexed [`CodeCache`]
//!   (translating on a miss), and reads the guest's exception level to pick
//!   the host protection ring.
//! * The **inner chained loop** then executes blocks back-to-back: when a
//!   block exits at a direct branch whose successor link is already patched
//!   and still valid, control transfers straight to the successor's code —
//!   no page walk, no cache lookup, no EL read — and only the near-zero
//!   [`hvm::CostModel::chain`] cost is charged instead of the dispatcher's
//!   [`hvm::CostModel::dispatch`] cost.
//!
//! **Link structure.** Each [`dbt::Region`] records terminator
//! metadata ([`dbt::BlockExit`]) at translation time and carries two lazily
//! patched successor slots (taken/sequential target and conditional
//! fallthrough).  The first time an exit reaches a direct target whose link
//! is unresolved, the dispatcher falls back to the slow path once and
//! patches the link with the block it resolved.
//!
//! **Generation scheme.** A link stores the *context generation* (owned by
//! [`runtime::CaptiveRuntime`], bumped on guest `TLBI` and `TTBR0`/`SCTLR`
//! writes) and the code cache's *invalidation epoch* (bumped whenever
//! blocks are discarded).  Links are followed only while both stamps match,
//! and they hold [`std::sync::Weak`] references, so invalidation never
//! scans predecessor blocks: dropping a block kills links *into* it, and
//! the epoch stamp kills links *from* blocks the dispatcher still holds
//! (including self-loops).
//!
//! **Invalidation rules.** Self-modifying code invalidates the written
//! physical page's translations (and bumps the epoch); `TLBI` and
//! translation-state `MSR`s bump the context generation (retiring iTLB
//! entries and links wholesale); exception delivery and `ERET` always leave
//! the chained loop through the slow path, which re-reads the exception
//! level, so chained execution never runs in a stale host ring.

pub mod itlb;
pub mod layout;
pub mod runtime;
pub mod stats;
pub mod tier;
pub mod translator;

use dbt::{
    fnv1a, pack_knobs, CacheIndex, CodeCache, EntryMode, PhaseTimers, Region, RegionKey,
    RegionProfile, ReuseCache, ReuseKey, ReuseTemplate, RuleKind, RuleTable, TierTimers,
    RULE_COUNT,
};
use guest_aarch64::Aarch64Isa;
use hvm::{ExitReason, Gpr, Machine, MachineConfig, Ring};
use runtime::{CaptiveRuntime, GuestEvent};
pub use stats::RunStats;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tier::{FormationRequest, FormationResult, FormationSnapshot, TierService, WorkerOutcome};
use translator::translate_block;

/// How guest floating-point instructions are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FpMode {
    /// Map guest FP to host FP instructions with inline fix-ups (Captive's
    /// contribution).
    #[default]
    Hardware,
    /// Call softfloat helpers for every FP operation (the QEMU approach,
    /// used for the Section 3.6.2 ablation).
    Software,
}

/// Hypervisor configuration.
#[derive(Debug, Clone)]
pub struct CaptiveConfig {
    /// Guest RAM size in bytes.
    pub guest_ram: u64,
    /// Guest FP implementation strategy.
    pub fp_mode: FpMode,
    /// Enable direct block chaining (patched successor links let hot paths
    /// bypass the dispatcher entirely).
    pub chaining: bool,
    /// Enable profile-guided formation of multi-constituent regions over hot
    /// chain paths (requires `chaining`, which provides the link-heat
    /// profile).
    pub form_regions: bool,
    /// Enable the block-scoped LIR optimiser (`dbt::opt`): store-to-load
    /// forwarding through register-file slots, copy propagation, and dead
    /// regfile-store elimination, with the allocator's iterative DCE
    /// sweeping the value chains feeding eliminated stores.
    pub opt: bool,
    /// Enable the guest-idiom rewrite layer (`dbt::idiom`, requires `opt`):
    /// NZCV-free compare+branch fusion, address-mode folding and bulk-move
    /// rewriting, applied under the engine's [`dbt::RuleTable`] (the full
    /// built-in table unless [`Captive::set_idiom_rules`] installs a mined
    /// one).  The table's content hash joins the reuse key, so engines with
    /// different tables never share templates.
    pub idioms: bool,
    /// Chain-link transfer count at which the link's target becomes a
    /// region trace head.
    pub region_threshold: u64,
    /// Guest-instruction cap on one region trace.  Within it a hot loop
    /// (single- or multi-block body) closes its back-edge inside the region
    /// and iterates entirely in translated code — zero chain transfers and
    /// zero dispatcher entries per trip, side-exit stubs with precise PC on
    /// every cold leg and on loop exit.
    pub region_max_insns: usize,
    /// Copies of a hot loop body stitched into one region before the
    /// back-edge closes (2–4 amortises the loop-back overhead; 0 or 1
    /// disables peeling).
    pub unroll_loops: usize,
    /// Loop-carried register promotion (requires `opt`): in a looping
    /// region the hottest register-file slots live in host registers across
    /// the back-edge, invariant loads are hoisted to the unit entry, and
    /// every exit path reconciles the promoted slots — in-code compensation
    /// stores before each dispatcher return, and fault-time materialisation
    /// from [`dbt::Region::promoted`] — so the guest always observes a
    /// precise register file.
    pub promote: bool,
    /// Maximum guest instructions per translated block.
    pub max_block_insns: usize,
    /// Host machine configuration.
    pub machine: MachineConfig,
    /// Record per-block execution cycles (needed for the Fig. 21 experiment;
    /// adds bookkeeping overhead).
    pub per_block_stats: bool,
    /// Code-cache capacity in encoded bytes (`None` = unbounded).  When the
    /// bound is hit the cache evicts clock-style; a churn-heavy guest
    /// degrades to re-translation, never to unbounded growth.
    pub cache_capacity_bytes: Option<usize>,
    /// Code-cache capacity in resident regions (`None` = unbounded).
    pub cache_capacity_regions: Option<usize>,
    /// Where region formation runs.  Every region is formed the same way —
    /// against an immutable snapshot, settled through one install gate (see
    /// [`tier`]) — and this only chooses *when* the snapshot is taken.  When
    /// `true` a hot head's request is published at half the formation
    /// threshold and formed behind tier-0 execution, so the run thread only
    /// collects the result at the threshold.  When `false` each formation
    /// captures its snapshot at the threshold and runs inline on the run
    /// thread: the synchronous-JIT baseline whose wall-clock the tiered
    /// engine is compared against.
    pub tiered: bool,
    /// Tier-1 worker threads for published requests (only consulted when
    /// `tiered` is on).  `0` selects *pump mode*: requests queue and are
    /// processed inline at the drain point — single-threaded, fully
    /// deterministic interleaving with the default publish-at-half-threshold
    /// schedule, used by the SMC-race tests and the ablation entry points.
    pub tier_workers: usize,
    /// Content-keyed translation-reuse cache shared with other engine
    /// instances (the N-guests-one-image story).  `None` gives this
    /// instance a private cache.  Only consulted when `tiered` is on.
    pub reuse_cache: Option<Arc<ReuseCache>>,
    /// Attach a virtio-blk DMA device ([`hvm::virtio`]) with this
    /// configuration.  `None` (the default) runs with no device and zero
    /// dispatcher overhead.
    pub virtio: Option<hvm::VirtioBlkConfig>,
}

impl Default for CaptiveConfig {
    fn default() -> Self {
        CaptiveConfig {
            guest_ram: 32 * 1024 * 1024,
            fp_mode: FpMode::Hardware,
            chaining: true,
            form_regions: true,
            opt: true,
            idioms: true,
            region_threshold: 16,
            region_max_insns: 256,
            unroll_loops: 4,
            promote: true,
            max_block_insns: 64,
            machine: MachineConfig::default(),
            per_block_stats: false,
            cache_capacity_bytes: None,
            cache_capacity_regions: None,
            tiered: true,
            tier_workers: 2,
            reuse_cache: None,
            virtio: None,
        }
    }
}

/// Why [`Captive::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// The guest executed `HLT` or the exit hypercall.
    GuestHalted {
        /// Exit code passed by the guest (0 if halted without one).
        code: u64,
    },
    /// The block budget given to `run` was exhausted.
    BudgetExhausted,
    /// Something went wrong in the execution engine.
    Error(String),
}

/// The hypervisor.
pub struct Captive {
    /// The simulated host virtual machine.
    pub machine: Machine,
    /// Runtime services (helpers, fault handling, devices).
    pub runtime: CaptiveRuntime,
    /// Translated-code cache (guest-physical indexed).
    pub cache: CodeCache,
    /// JIT phase timers.
    pub timers: PhaseTimers,
    isa: Aarch64Isa,
    config: CaptiveConfig,
    stats: RunStats,
    /// Per-region execution profiles, keyed by region (Fig. 21): cycles and
    /// executions attributed per [`EntryMode`] by [`RegionProfile::record`].
    per_region: HashMap<RegionKey, RegionProfile>,
    /// Context generation the cache was last swept under; stale
    /// multi-constituent regions are evicted the first time the dispatcher
    /// runs after a generation bump.
    swept_region_gen: u64,
    /// Region-formation backoff state per trace head: a failed formation
    /// doubles the link heat required before the next attempt instead of
    /// retrying on every hot transfer, and repeated failures quarantine the
    /// head permanently.
    quarantine: HashMap<RegionKey, FormationBackoff>,
    /// The region-formation service (`None` when regions are disabled): it
    /// forms inline on the run thread, and in tiered mode also runs
    /// published requests on its workers (or pump queue).
    tier: Option<TierService>,
    /// Trace heads with a formation request in flight, mapped to the
    /// sequence number of the live request; results carrying any other
    /// sequence are superseded and dropped.
    inflight: HashMap<RegionKey, u64>,
    /// Results drained from the service while waiting for a *different*
    /// key, parked until their own key reaches the install point.
    parked_results: HashMap<RegionKey, FormationResult>,
    /// Next formation-request sequence number.
    next_seq: u64,
    /// Content-keyed translation reuse (tiered mode only): shared across
    /// instances when the config supplies one, private otherwise.
    reuse: Option<Arc<ReuseCache>>,
    /// The guest-idiom rule table every translation applies when
    /// `config.idioms` is on.  Shared by `Arc` with background formation
    /// workers so inline and queued formations apply the *same* table;
    /// its content hash joins the reuse key (see [`Captive::reuse_key_for`]).
    idiom_rules: Arc<RuleTable>,
    /// Tier-level wall-clock accounting (run-thread stall vs worker time).
    tier_timers: TierTimers,
    /// Construction time, the zero point for time-to-first-region-install.
    launch: Instant,
}

/// What the content-keyed reuse cache knows about a head at its install
/// point.
enum ReuseOutcome {
    /// A validated template was found: install this instantiation (boxed:
    /// the other variants are a fraction of `Region`'s size).
    Hit(Box<Region>),
    /// A validated refusal was found: this exact content is already known
    /// to form nothing, so skip the worker round-trip.
    Refusal,
    /// Nothing usable is published for the key.
    Miss,
}

/// What settling one formation answer leaves for the caller to do.
enum Settled {
    /// The region passed the install gate: install it (boxed: the other
    /// variants are a fraction of `Region`'s size).
    Install(Box<Region>),
    /// The snapshot lacked pages; they were captured into this request,
    /// which must run again.
    Refill(FormationRequest),
    /// Nothing to install: the trace closed too short, the region was
    /// stale, or the formation panicked.
    Nothing,
}

/// Retry-backoff record for a trace head whose region formation failed.
#[derive(Debug, Clone, Copy)]
struct FormationBackoff {
    /// Consecutive failed formation attempts.
    failures: u32,
    /// Link heat at which the next attempt may run.
    next_retry_heat: u64,
    /// Set after [`QUARANTINE_AFTER`] failures: never attempt again.
    quarantined: bool,
}

/// Failed formation attempts after which a trace head is quarantined.
const QUARANTINE_AFTER: u32 = 4;

impl Captive {
    /// Creates a hypervisor with a fresh host VM and boots the "unikernel":
    /// host page tables for the Captive area are built and paging is enabled.
    pub fn new(config: CaptiveConfig) -> Self {
        let mut machine = Machine::new(config.machine.clone());
        let mut runtime = CaptiveRuntime::new(&mut machine, config.guest_ram, config.fp_mode);
        if let Some(vcfg) = &config.virtio {
            let dev = hvm::VirtioBlk::new(vcfg.clone(), layout::GUEST_PHYS_BASE, config.guest_ram);
            dev.init_mmio(&mut machine.mem)
                .expect("virtio MMIO window must lie inside guest RAM");
            runtime.virtio = Some(dev);
        }
        // The register-file base pointer lives in %rbp for the whole run.
        machine.set_reg(Gpr::Rbp, layout::REGFILE_VA);
        // Bare-metal guests boot in EL1 (kernel mode).
        machine
            .mem
            .write_u64(
                runtime.regfile_phys + guest_aarch64::CURRENT_EL_OFF as u64,
                1,
            )
            .expect("register file is inside host RAM");
        let cache = CodeCache::new(CacheIndex::GuestPhysical);
        cache.set_capacity(config.cache_capacity_bytes, config.cache_capacity_regions);
        let tiered = config.tiered && config.form_regions;
        let tier = config
            .form_regions
            .then(|| TierService::new(if tiered { config.tier_workers } else { 0 }));
        let reuse = tiered.then(|| {
            config
                .reuse_cache
                .clone()
                .unwrap_or_else(|| Arc::new(ReuseCache::new()))
        });
        Captive {
            machine,
            runtime,
            cache,
            timers: PhaseTimers::default(),
            isa: Aarch64Isa,
            config,
            stats: RunStats::default(),
            per_region: HashMap::new(),
            swept_region_gen: 0,
            quarantine: HashMap::new(),
            tier,
            inflight: HashMap::new(),
            parked_results: HashMap::new(),
            next_seq: 0,
            reuse,
            idiom_rules: Arc::new(RuleTable::full()),
            tier_timers: TierTimers::default(),
            launch: Instant::now(),
        }
    }

    /// Installs a guest-idiom rule table (e.g. one mined by
    /// [`Captive::mine_idiom_rules`] from a profiling run).  Takes effect
    /// for every later translation; already-cached code is unaffected.  The
    /// table's hash changes the content-reuse key, so translations made
    /// under different tables never alias in a shared [`ReuseCache`].
    pub fn set_idiom_rules(&mut self, table: RuleTable) {
        self.idiom_rules = Arc::new(table);
    }

    /// The engine's current guest-idiom rule table.
    pub fn idiom_rules(&self) -> &RuleTable {
        &self.idiom_rules
    }

    /// Loads a guest program (little-endian instruction words) at a guest
    /// physical address.
    pub fn load_program(&mut self, guest_phys: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_guest_phys(guest_phys + i as u64 * 4, *w as u64, 4);
        }
    }

    /// Writes bytes into guest physical memory.
    pub fn write_guest_phys(&mut self, guest_phys: u64, value: u64, size: u64) {
        let host = layout::GUEST_PHYS_BASE + guest_phys;
        self.machine
            .mem
            .write_uint(host, value, size)
            .expect("guest physical write within RAM");
    }

    /// Reads from guest physical memory.
    pub fn read_guest_phys(&mut self, guest_phys: u64, size: u64) -> u64 {
        let host = layout::GUEST_PHYS_BASE + guest_phys;
        self.machine.mem.read_uint(host, size).unwrap_or(0)
    }

    /// Sets the guest entry point (and starts in EL1 with the MMU off).
    pub fn set_entry(&mut self, guest_pc: u64) {
        self.machine.set_reg(Gpr::R15, guest_pc);
        self.machine.ring = Ring::Ring0;
    }

    /// Reads a guest general-purpose register from the register file.
    pub fn guest_reg(&mut self, index: u32) -> u64 {
        let addr = self.runtime.regfile_phys + guest_aarch64::x_off(index) as u64;
        self.machine.mem.read_u64(addr).unwrap_or(0)
    }

    /// Writes a guest general-purpose register.
    pub fn set_guest_reg(&mut self, index: u32, value: u64) {
        let addr = self.runtime.regfile_phys + guest_aarch64::x_off(index) as u64;
        self.machine
            .mem
            .write_u64(addr, value)
            .expect("regfile write");
    }

    /// Reads the guest's NZCV flags nibble from the register file (used by
    /// the cross-engine equivalence tests: the optimiser must preserve the
    /// architectural flags, not just the general registers).
    pub fn guest_nzcv(&mut self) -> u64 {
        let addr = self.runtime.regfile_phys + guest_aarch64::NZCV_OFF as u64;
        self.machine.mem.read_u64(addr).unwrap_or(0)
    }

    /// Console output accumulated from the guest (hypervisor UART).
    pub fn console(&self) -> &[u8] {
        &self.runtime.uart_output
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats.clone();
        s.cycles = self.machine.perf.cycles;
        s.host_insns = self.machine.perf.insns;
        s.code_bytes = self.cache.total_encoded_bytes() as u64;
        s.itlb_hits = self.runtime.fetch_tlb.hits;
        s.itlb_misses = self.runtime.fetch_tlb.misses;
        s.dtlb_hits = self.runtime.data_tlb.hits;
        s.dtlb_misses = self.runtime.data_tlb.misses;
        s.region_transfers = self.machine.perf.region_transfers;
        s.backedge_transfers = self.machine.perf.backedge_transfers;
        let cs = self.cache.stats();
        s.regions_evicted = cs.evicted_stale_regions;
        s.opt_dead_stores = self.timers.opt_dead_stores;
        s.opt_forwarded_loads = self.timers.opt_forwarded_loads;
        s.opt_partial_forwarded = self.timers.opt_partial_forwarded;
        s.opt_copies_folded = self.timers.opt_copies_folded;
        s.opt_dce_insns = self.timers.opt_dce_insns;
        s.opt_promoted_slots = self.timers.opt_promoted_slots;
        s.opt_hoisted_loads = self.timers.opt_hoisted_loads;
        s.opt_fp_forwarded = self.timers.opt_fp_forwarded;
        s.opt_idioms_fused = self.timers.opt_idioms_fused;
        s.idiom_hits = self.timers.idiom_hits;
        s.idiom_candidates = self.timers.idiom_candidates;
        s.lower_bailouts = self.timers.lower_bailouts;
        s.elided_dyn_insns = self.machine.perf.elided_insns;
        s.irqs_delivered = self.runtime.events.delivered;
        s.timer_irqs = self.runtime.events.timer_delivered;
        s.capacity_evictions = cs.capacity_evictions;
        s.bytes_live = cs.bytes_live;
        s.regions_live = cs.regions_live;
        s.jit_wall_ns = self.tier_timers.run_thread_stall.as_nanos() as u64;
        s.tier_worker_wall_ns = self.tier_timers.worker_wall.as_nanos() as u64;
        s.first_region_install_ns = self
            .tier_timers
            .first_install
            .map_or(0, |d| d.as_nanos() as u64);
        s.sample_virtio(
            self.runtime.virtio.as_ref(),
            self.runtime.external_invalidations,
        );
        s
    }

    /// Tier-level wall-clock accounting (run-thread stall vs worker time).
    pub fn tier_timers(&self) -> TierTimers {
        self.tier_timers
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

    /// Per-region execution profiles (region key → per-entry-mode record).
    pub fn region_profiles(&self) -> &HashMap<RegionKey, RegionProfile> {
        &self.per_region
    }

    /// Mines a guest-idiom [`RuleTable`] from this run's hot-region
    /// profiles: each rule is ranked by its dynamic candidate count —
    /// Σ over profiled regions of (static candidate sites in the region ×
    /// the region's recorded executions) — and rules that never matched a
    /// candidate anywhere are pruned (disabled), so a guest that exhibits
    /// no instance of an idiom ships a table that never looks for it.
    ///
    /// Needs `per_block_stats` for non-zero dynamic weights; without
    /// profiles the static candidate counters from the translation timers
    /// still seed the ranking, so pruning remains meaningful.
    ///
    /// The bulk-move rewrite consumes the *output* of the zero-test fusion
    /// rule (its loop-exit matcher expects a fused `Cmp/Jcc` pair), so a
    /// mined table that keeps `bulk.memset` also keeps `fuse.cbz`.
    pub fn mine_idiom_rules(&self) -> RuleTable {
        let gen = self.runtime.context_generation();
        let mut weights = [0u64; RULE_COUNT];
        // Dynamic ranking: candidates weighted by how often the region ran.
        for (key, profile) in &self.per_region {
            let Some(region) = self.cache.get(*key, gen) else {
                continue;
            };
            let execs = profile.total_executions();
            for (w, &c) in weights.iter_mut().zip(region.idiom_candidates.iter()) {
                *w += c as u64 * execs;
            }
        }
        // Static fallback: every candidate the translator ever saw counts
        // once, so a rule with real sites survives even if its regions were
        // evicted or never profiled.
        for (w, &c) in weights.iter_mut().zip(self.timers.idiom_candidates.iter()) {
            *w += c;
        }
        let mut table = RuleTable::full();
        for kind in RuleKind::ALL {
            table.set_weight(kind, weights[kind.index()]);
            if weights[kind.index()] == 0 {
                table.set_enabled(kind, false);
            }
        }
        if table.enabled(RuleKind::BulkMemset) && !table.enabled(RuleKind::FuseCbz) {
            table.set_enabled(RuleKind::FuseCbz, true);
        }
        table
    }

    /// Translates the guest virtual address of an *instruction fetch* to a
    /// guest physical address through the fetch-side iTLB, or reports the
    /// fault to deliver.
    fn fetch_translate(&mut self, va: u64) -> Result<u64, GuestEvent> {
        self.runtime.fetch_va_to_pa(&mut self.machine, va)
    }

    /// Runs the guest until it halts or `max_blocks` blocks have been
    /// executed (chained transfers count against the budget too).
    ///
    /// The outer loop is the dispatcher slow path; the inner loop executes
    /// chained blocks back-to-back without re-entering it (see the crate
    /// docs for the link and invalidation rules).
    pub fn run(&mut self, max_blocks: u64) -> RunExit {
        let mut budget = max_blocks;
        // A region whose direct exit was taken but whose successor link was
        // still unresolved; the slow path patches it once the successor is
        // known.
        let mut patch_from: Option<(Arc<Region>, usize)> = None;
        while budget > 0 {
            if let Some(code) = self.runtime.exit_code {
                return RunExit::GuestHalted { code };
            }
            // Due device completions retire here, before event delivery and
            // before any translated code runs: the DMA lands through the
            // external-store path and every touched page holding live
            // translations is invalidated — the device's completion IRQ (if
            // any) is then taken below with the data already visible.
            if self.runtime.poll_virtio(&mut self.machine) {
                for page in self.runtime.take_smc_dirty() {
                    self.cache.invalidate_phys_page(page);
                }
            }
            let pc = self.machine.reg(Gpr::R15);
            // Deterministic event sources deliver here (and at back-edge
            // preemption points that funnel back here): the guest PC is
            // architecturally precise, so ELR is exact even when a timer
            // expired mid-loop inside a region.
            if let Some(line) = self.runtime.events.take(self.machine.perf.cycles) {
                patch_from = None;
                budget -= 1;
                self.deliver_event(GuestEvent::Irq { line }, pc);
                continue;
            }
            // Resolve the entry's guest physical address (cache key).
            let pa = match self.fetch_translate(pc) {
                Ok(pa) => pa,
                Err(event) => {
                    patch_from = None;
                    budget -= 1;
                    self.deliver_event(event, pc);
                    continue;
                }
            };
            let gen = self.runtime.context_generation();
            // First dispatch after a context-generation bump: sweep the
            // cache, evicting every stale-generation multi-constituent
            // region (they can never be dispatched again and would otherwise
            // linger until replaced — unbounded on TLBI-heavy guests).
            if self.config.form_regions && gen != self.swept_region_gen {
                self.cache.evict_stale_regions(gen);
                self.swept_region_gen = gen;
            }
            // One uniform lookup: the region at (entry phys, entry virt) is
            // whatever the best current translation for this entry is — a
            // plain block or a formed trace, with the generation gate applied
            // inside the cache.  Virtual aliases of the same physical entry
            // resolve to distinct regions by construction of the key.
            let key = RegionKey { phys: pa, virt: pc };
            let block = match self.cache.get(key, gen) {
                Some(r) => r,
                None => {
                    self.stats.translations += 1;
                    // Tier-0 translation is synchronous by design (the guest
                    // needs this code *now*); its wall-clock is what the
                    // run thread visibly stalls on.
                    let t0 = Instant::now();
                    let idioms = self.config.idioms.then(|| Arc::clone(&self.idiom_rules));
                    let region = translate_block(
                        &self.isa,
                        &mut self.machine,
                        &mut self.timers,
                        pc,
                        pa,
                        self.config.max_block_insns,
                        self.config.fp_mode,
                        self.config.opt,
                        self.config.promote,
                        idioms.as_deref(),
                    );
                    self.tier_timers.run_thread_stall += t0.elapsed();
                    self.runtime.note_code_page(&mut self.machine, pa & !0xFFF);
                    self.cache.insert(region)
                }
            };
            self.stats.slow_dispatches += 1;
            // Patch the predecessor's successor link now that the target is
            // resolved.  The region key pins the virtual entry, so the link
            // can only short-circuit the exact virtual address it was
            // recorded for — no alias guard needed.
            if let Some((prev, slot)) = patch_from.take() {
                if self.config.chaining {
                    prev.set_link(
                        slot,
                        self.runtime.context_generation(),
                        self.cache.epoch(),
                        &block,
                    );
                    self.stats.chain_patches += 1;
                }
            }
            let mut block = block;
            // Track the guest's exception level in the host protection ring
            // (guest user code runs in ring 3, guest system code in ring 0).
            // The ring stays cached across chained transfers: only blocks
            // with indirect exits (exceptions, ERET, sysreg writes) can
            // change the EL, and those always return to this slow path.
            let el = self
                .machine
                .mem
                .read_u64(self.runtime.regfile_phys + guest_aarch64::CURRENT_EL_OFF as u64)
                .unwrap_or(1);
            self.machine.ring = if el == 0 { Ring::Ring3 } else { Ring::Ring0 };

            let mut chained = false;
            loop {
                let before = self.machine.perf.cycles;
                let backedges_before = self.machine.perf.backedge_transfers;
                let code = Arc::clone(&block.code);
                let exit = if chained {
                    self.machine.run_block_chained(&code, &mut self.runtime)
                } else {
                    self.machine.run_block(&code, &mut self.runtime)
                };
                let spent = self.machine.perf.cycles - before;
                // Loop trips that stayed inside the region during this entry
                // (each back-edge taken re-executed the looping portion).
                let trips = self.machine.perf.backedge_transfers - backedges_before;
                // Invalidate translations for any code pages the guest wrote
                // (bumps the cache epoch, so stale chain links die with them).
                for page in self.runtime.take_smc_dirty() {
                    self.cache.invalidate_phys_page(page);
                }
                self.stats.blocks += 1;
                self.stats.guest_insns +=
                    block.guest_insns as u64 + trips * block.loop_guest_insns as u64;
                // Dynamic instructions-saved accounting: every entry into the
                // region benefits from the LIR instructions eliminated at
                // translation time, and every internal loop trip additionally
                // benefits from the looping portion's share.
                self.machine.perf.elided_insns +=
                    block.elided_insns as u64 + trips * block.loop_elided_insns as u64;
                if block.is_multi() {
                    self.stats.region_entries += 1;
                }
                if self.config.per_block_stats {
                    // One attribution rule for every region shape: cycles and
                    // executions are recorded under the entry mode, and the
                    // region's own key/length/constituents disambiguate what
                    // was entered (a formed trace replaces the plain region
                    // at its key, so the profile follows the translation the
                    // dispatcher actually ran).
                    let p = self.per_region.entry(block.key()).or_default();
                    p.guest_insns = block.guest_insns as u64;
                    p.constituents = block.constituents as u64;
                    p.backedge_trips += trips;
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
                        if let Some(event) = self.runtime.take_pending_event() {
                            match event {
                                GuestEvent::Halt { code } => return RunExit::GuestHalted { code },
                                other => {
                                    let pc_now = self.machine.reg(Gpr::R15);
                                    self.deliver_event(other, pc_now);
                                    break;
                                }
                            }
                        }
                        // Helper exits (exception taken, ERET, sysreg write)
                        // may have changed the EL or translation context:
                        // always re-dispatch through the slow path.
                        if exit == ExitReason::HelperExit {
                            break;
                        }
                        if !self.config.chaining || budget == 0 {
                            break;
                        }
                        // A due event source leaves the chained loop so the
                        // slow path can deliver the IRQ with a precise PC.
                        if self.runtime.events.due(self.machine.perf.cycles) {
                            break;
                        }
                        // A due device completion also leaves: retirement
                        // happens only at the dispatcher top, and a
                        // self-chaining loop would otherwise starve it.
                        if self.runtime.virtio_due(self.machine.perf.cycles) {
                            break;
                        }
                        let next_pc = self.machine.reg(Gpr::R15);
                        let Some(slot) = block.chain_slot(next_pc) else {
                            break;
                        };
                        if let Some(next) = block.follow_link(
                            slot,
                            self.runtime.context_generation(),
                            self.cache.epoch(),
                        ) {
                            // Chained transfer: straight into the successor's
                            // code, skipping page resolution, cache lookup
                            // and EL read.  With region formation enabled the
                            // transfer also feeds the link-heat profile and
                            // may widen the target into a multi-constituent
                            // region.
                            self.stats.chained_transfers += 1;
                            block = if self.config.form_regions {
                                self.maybe_form_region(&block, slot, next)
                            } else {
                                next
                            };
                            chained = true;
                            continue;
                        }
                        // Direct exit with an unresolved (or retired) link:
                        // take the slow path once and patch it there.
                        patch_from = Some((Arc::clone(&block), slot));
                        break;
                    }
                    ExitReason::Halted => {
                        let code = self.runtime.exit_code.unwrap_or(0);
                        return RunExit::GuestHalted { code };
                    }
                    ExitReason::MemFault { vaddr, write } => {
                        // A genuine guest data abort: deliver it to the
                        // guest.  The machine's guest PC still addresses the
                        // faulting instruction, so ELR is exact even when
                        // the fault happened deep in a chain.
                        //
                        // If the region carries loop-promoted slots, their
                        // authoritative values sit in host registers at the
                        // fault point (the in-code compensation stores only
                        // run on dispatcher returns): materialise them so the
                        // abort handler observes a precise register file.
                        for &(off, gpr) in block.promoted.iter() {
                            let value = self.machine.reg(gpr);
                            self.machine
                                .mem
                                .write_u64(self.runtime.regfile_phys + off as u64, value)
                                .expect("register file is inside host RAM");
                        }
                        let fault_pc = self.machine.reg(Gpr::R15);
                        self.deliver_event(GuestEvent::DataAbort { vaddr, write }, fault_pc);
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

    /// Profiles a chained transfer into `next` and, when its link heat
    /// crosses the hot threshold, obtains a multi-constituent region for the
    /// chained path starting at `next` and installs it.  Returns the
    /// translation to execute: the (possibly just-formed) region, otherwise
    /// `next` unchanged.
    ///
    /// Every formation runs against a snapshot and is settled by
    /// [`Captive::settle`].  **Tiered mode** splits the work across two
    /// points so formation runs hidden behind execution: at *half* the
    /// threshold a fresh head's request (snapshot + frozen profile) is
    /// published to the background service; at the threshold — the same
    /// guest-progress point where `tiered: false` forms — the region is
    /// obtained from the content-keyed reuse cache, else from the in-flight
    /// worker result (revalidated against live memory, discarded if stale),
    /// else formed inline against a snapshot taken now, the always-correct
    /// fallback.
    fn maybe_form_region(
        &mut self,
        prev: &Arc<Region>,
        slot: usize,
        next: Arc<Region>,
    ) -> Arc<Region> {
        if next.gated() {
            return next;
        }
        let heat = prev.heat_up(slot);
        let gen = self.runtime.context_generation();
        // Another predecessor may already have widened this entry: the
        // dispatcher-held `next` then outlives its replaced cache slot, and
        // the link just needs re-pointing (a stat-free peek — this is the
        // former's own bookkeeping, not a dispatch lookup).
        if let Some(r) = self.cache.peek(next.key()) {
            if r.gated() {
                if r.ctx_gen == gen {
                    prev.set_link(slot, gen, self.cache.epoch(), &r);
                    return r;
                }
                return next;
            }
        }
        let key = next.key();
        // Tier-1 publish point: a fresh head halfway to the threshold gets
        // its request snapshotted and queued.  Heads already in flight are
        // not re-published, and heads with a failure history retry inline
        // (their traces close too short either way).
        if self.config.tiered
            && heat == self.publish_point()
            && !self.inflight.contains_key(&key)
            && !self.quarantine.contains_key(&key)
        {
            // A template (or recorded refusal) already published for this
            // key makes a worker round-trip pointless: the install point
            // will hit the reuse cache — or skip formation — directly.
            let covered = self
                .reuse
                .as_ref()
                .is_some_and(|r| r.covers(self.reuse_key_for(key)));
            if !covered {
                self.publish_formation(key);
            }
        }
        // Formation trigger with retry backoff: a head with no failure
        // history fires exactly at the configured threshold; a failed head
        // waits for its (doubled) retry heat; a quarantined head never
        // fires again.
        match self.quarantine.get(&key) {
            Some(q) if q.quarantined => return next,
            Some(q) => {
                if heat < q.next_retry_heat {
                    return next;
                }
            }
            None => {
                if heat != self.config.region_threshold {
                    return next;
                }
            }
        }
        if self.config.tiered {
            match self.obtain_reuse(key, gen) {
                ReuseOutcome::Hit(region) => {
                    return self.install_formed(*region, prev, slot, gen);
                }
                // A validated refusal: a worker (possibly in a prior run
                // sharing the cache) already proved this content forms
                // nothing, so fall straight through to the inline attempt
                // — which will refuse identically — without waiting on the
                // worker queue.
                ReuseOutcome::Refusal => {}
                ReuseOutcome::Miss => {
                    if self.inflight.contains_key(&key) {
                        if let Some(region) = self.obtain_async(key, gen) {
                            return self.install_formed(region, prev, slot, gen);
                        }
                        if self.is_quarantined(key) {
                            return next;
                        }
                    }
                }
            }
        }
        let t0 = Instant::now();
        let formed = self.form_inline(key, gen);
        self.tier_timers.run_thread_stall += t0.elapsed();
        match formed {
            Some(region) => self.install_formed(region, prev, slot, gen),
            None => {
                // Nothing worth keeping came out (one-constituent trace, or
                // the translation bailed out).  Record the failure and back
                // off: the next attempt requires twice the heat, and
                // repeated failures quarantine the head for good.  A head
                // whose formation panicked is already quarantined.
                if !self.is_quarantined(key) {
                    self.record_formation_failure(key, heat);
                }
                next
            }
        }
    }

    /// Link heat at which a fresh head's tier-1 request is published:
    /// halfway to the formation threshold, so the worker has the other half
    /// of the warm-up to finish before the install point.
    fn publish_point(&self) -> u64 {
        (self.config.region_threshold / 2).max(1)
    }

    /// Installs a formed (or reused) region: write-protects its pages,
    /// publishes it for content-keyed reuse, inserts it at its key and
    /// re-points the triggering chain link.  Shared by the inline, queued
    /// and reuse paths so the bookkeeping cannot diverge.
    fn install_formed(
        &mut self,
        region: Region,
        prev: &Arc<Region>,
        slot: usize,
        gen: u64,
    ) -> Arc<Region> {
        self.quarantine.remove(&region.key());
        // Write-protect every constituent page so self-modifying code on any
        // of them invalidates the region.
        for page in &region.pages {
            self.runtime.note_code_page(&mut self.machine, *page);
        }
        if region.unroll > 1 {
            self.stats.regions_unrolled += 1;
        }
        if region.back_edges > 0 {
            self.stats.loop_regions_formed += 1;
        }
        if let Some(reuse) = &self.reuse {
            // Publish under the *live* page hashes: the install gate just
            // validated them equal to the formation snapshot's.
            let hashes: Vec<(u64, u64)> = region
                .pages
                .iter()
                .map(|&page| (page, self.live_page_hash(page)))
                .collect();
            reuse.publish(
                self.reuse_key_for(region.key()),
                ReuseTemplate::from_region(&region, &hashes),
            );
        }
        let region = self.cache.insert(region);
        self.stats.regions_formed += 1;
        self.tier_timers.record_install(self.launch.elapsed());
        prev.set_link(slot, gen, self.cache.epoch(), &region);
        region
    }

    /// Records a failed formation attempt for `key` at link heat `heat` and
    /// applies the doubling backoff / quarantine policy.
    fn record_formation_failure(&mut self, key: RegionKey, heat: u64) {
        self.stats.formation_failures += 1;
        let q = self.quarantine.entry(key).or_insert(FormationBackoff {
            failures: 0,
            next_retry_heat: 0,
            quarantined: false,
        });
        q.failures += 1;
        q.next_retry_heat = heat.saturating_mul(2).max(1);
        if q.failures >= QUARANTINE_AFTER && !q.quarantined {
            q.quarantined = true;
            self.stats.regions_quarantined += 1;
        }
    }

    /// Whether `key` is permanently quarantined.
    fn is_quarantined(&self, key: RegionKey) -> bool {
        self.quarantine.get(&key).is_some_and(|q| q.quarantined)
    }

    /// Records a failed formation for `key` and quarantines it at once: its
    /// formation panicked (see [`WorkerOutcome::Panicked`]).
    fn quarantine_head(&mut self, key: RegionKey) {
        self.record_formation_failure(key, 0);
        let q = self
            .quarantine
            .get_mut(&key)
            .expect("failure just recorded");
        if !q.quarantined {
            q.quarantined = true;
            self.stats.regions_quarantined += 1;
        }
    }

    /// Captures a formation snapshot of the current translation state: the
    /// bytes of every known code page, the MMU/translation registers, and
    /// the frozen branch-heat profile.
    fn capture_snapshot(&self) -> FormationSnapshot {
        FormationSnapshot {
            ctx_gen: self.runtime.context_generation(),
            mmu_enabled: self.runtime.guest_mmu_enabled(&self.machine),
            ttbr0: self.runtime.guest_ttbr0(&self.machine),
            guest_ram: self.config.guest_ram,
            pages: self
                .runtime
                .code_pages()
                .map(|page| (page, self.read_live_page(page)))
                .collect(),
            heats: self.cache.branch_profiles(),
        }
    }

    /// Builds a formation request for `key` against a snapshot captured now
    /// (sequence 0: the caller numbers it if it is queued).
    fn formation_request(&mut self, key: RegionKey) -> FormationRequest {
        let t0 = Instant::now();
        let snapshot = self.capture_snapshot();
        self.tier_timers.snapshot_build += t0.elapsed();
        FormationRequest {
            seq: 0,
            key,
            snapshot,
            max_insns: self.config.region_max_insns,
            unroll: self.config.unroll_loops,
            fp_mode: self.config.fp_mode,
            run_opt: self.config.opt,
            promote: self.config.promote,
            idioms: self.config.idioms.then(|| Arc::clone(&self.idiom_rules)),
        }
    }

    /// Queues `request` for `key` under a fresh sequence number and
    /// registers it in flight.
    fn submit_formation(&mut self, key: RegionKey, mut request: FormationRequest) {
        request.seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(key, request.seq);
        self.tier
            .as_mut()
            .expect("formation service")
            .submit(request);
    }

    /// Publishes a tier-1 formation request for `key` and registers it
    /// in flight.
    fn publish_formation(&mut self, key: RegionKey) {
        let t0 = Instant::now();
        let request = self.formation_request(key);
        // Only the snapshot capture counts as run-thread translation stall:
        // the channel hand-off below wakes a sleeping worker, and the host
        // scheduler frequently deschedules the sender at that wake point —
        // hundreds of microseconds of scheduling artefact against a
        // single-digit-microsecond capture, none of it translation work.
        self.tier_timers.run_thread_stall += t0.elapsed();
        self.submit_formation(key, request);
        self.stats.tier1_requests += 1;
    }

    /// Forms the region at `key` inline on the run thread: a snapshot taken
    /// now, the same contained formation a worker runs, and the same
    /// settlement — refilling missing pages and re-running until the trace
    /// completes.  `None` when nothing is installable.
    fn form_inline(&mut self, key: RegionKey, gen: u64) -> Option<Region> {
        let mut request = self.formation_request(key);
        loop {
            let result = self
                .tier
                .as_ref()
                .expect("formation service")
                .form_inline(request);
            match self.settle(key, gen, result.outcome, false) {
                Settled::Install(region) => return Some(*region),
                Settled::Refill(refilled) => request = refilled,
                Settled::Nothing => return None,
            }
        }
    }

    /// Looks `key` up in the content-keyed reuse cache, revalidating every
    /// constituent page hash against live memory.  A hit (and a validated
    /// refusal) supersedes any in-flight formation request for the key.
    fn obtain_reuse(&mut self, key: RegionKey, gen: u64) -> ReuseOutcome {
        let Some(reuse) = self.reuse.as_ref().map(Arc::clone) else {
            return ReuseOutcome::Miss;
        };
        let t0 = Instant::now();
        let reuse_key = self.reuse_key_for(key);
        let hit = reuse.lookup(reuse_key, |page, hash| self.live_page_hash(page) == hash);
        let outcome = match hit {
            Some(template) => {
                self.stats.reuse_hits += 1;
                self.inflight.remove(&key);
                ReuseOutcome::Hit(Box::new(template.instantiate(key.phys, key.virt, gen)))
            }
            None if reuse
                .known_refusal(reuse_key, |page, hash| self.live_page_hash(page) == hash) =>
            {
                self.inflight.remove(&key);
                ReuseOutcome::Refusal
            }
            None => {
                self.stats.reuse_misses += 1;
                ReuseOutcome::Miss
            }
        };
        self.tier_timers.run_thread_stall += t0.elapsed();
        outcome
    }

    /// Waits for the in-flight tier-1 result for `key`, settles it, and
    /// returns the region to install.  `None` means the worker's answer
    /// cannot be used — the trace closed too short, the region went stale
    /// between snapshot and install, the formation panicked, or the service
    /// is gone — and the caller falls back to inline formation unless the
    /// head was quarantined.
    fn obtain_async(&mut self, key: RegionKey, gen: u64) -> Option<Region> {
        loop {
            let expected = self.inflight.get(&key).copied()?;
            let result = match self.parked_results.remove(&key) {
                Some(r) => r,
                None => {
                    let t0 = Instant::now();
                    let received = self.tier.as_mut().expect("formation service").recv();
                    self.tier_timers.run_thread_stall += t0.elapsed();
                    match received {
                        Some(r) => r,
                        None => {
                            // Pump queue empty, or every worker died: there
                            // is nothing to wait for.
                            self.inflight.remove(&key);
                            return None;
                        }
                    }
                }
            };
            if result.key == key && result.seq == expected {
                self.inflight.remove(&key);
                let t0 = Instant::now();
                match self.settle(key, gen, result.outcome, true) {
                    Settled::Install(region) => {
                        self.stats.regions_installed_async += 1;
                        return Some(*region);
                    }
                    Settled::Refill(request) => {
                        // Resubmit under a fresh sequence number; the install
                        // gate revalidates everything at the end regardless.
                        self.submit_formation(key, request);
                        self.tier_timers.run_thread_stall += t0.elapsed();
                    }
                    Settled::Nothing => return None,
                }
            } else if self.inflight.get(&result.key) == Some(&result.seq) {
                // A live result for a different key: park it until that key
                // reaches its own install point.
                self.parked_results.insert(result.key, result);
            }
            // Superseded or abandoned results are dropped on the floor —
            // their timers too, so no counter depends on worker scheduling.
        }
    }

    /// Settles one formation answer for `key` — the single place every
    /// formation, queued or inline, ends up.  `queued` says whether a
    /// worker (or the pump queue) ran it, whose wall-clock then counts as
    /// worker time.
    ///
    /// * `Formed` passes the install gate only if it was formed under the
    ///   current context generation `gen` AND every page it read still
    ///   holds the captured bytes; otherwise it is counted as a stale
    ///   discard and never installed.
    /// * `TooShort` is remembered under the content key, so the same bytes
    ///   never pay a worker round-trip again, here or in a later run sharing
    ///   the reuse cache.
    /// * `NeedPages` refills the request's snapshot from live memory and
    ///   hands it back to run again.
    /// * `Panicked` quarantines the head: re-running formation code that
    ///   just failed on this input would fail the same way, so the head
    ///   keeps its unformed translation.
    fn settle(
        &mut self,
        key: RegionKey,
        gen: u64,
        outcome: WorkerOutcome,
        queued: bool,
    ) -> Settled {
        match outcome {
            WorkerOutcome::Formed {
                region,
                consumed,
                timers,
                wall,
            } => {
                self.timers.merge(&timers);
                if queued {
                    self.tier_timers.worker_wall += wall;
                }
                let valid = region.ctx_gen == gen
                    && consumed
                        .iter()
                        .all(|&(page, hash)| self.live_page_hash(page) == hash);
                if valid {
                    return Settled::Install(region);
                }
                self.stats.stale_discards += 1;
                Settled::Nothing
            }
            WorkerOutcome::TooShort {
                consumed,
                timers,
                wall,
            } => {
                self.timers.merge(&timers);
                if queued {
                    self.tier_timers.worker_wall += wall;
                }
                if let Some(reuse) = &self.reuse {
                    reuse.publish_refusal(self.reuse_key_for(key), consumed);
                }
                Settled::Nothing
            }
            WorkerOutcome::NeedPages { mut request, pages } => {
                for page in pages {
                    let bytes = self.read_live_page(page);
                    request.snapshot.insert_page(page, bytes);
                }
                Settled::Refill(request)
            }
            WorkerOutcome::Panicked { .. } => {
                self.quarantine_head(key);
                Settled::Nothing
            }
        }
    }

    /// The content identity `key`'s translations are published/looked up
    /// under: entry addresses, the codegen knobs, and the live hash of the
    /// entry page.
    fn reuse_key_for(&self, key: RegionKey) -> ReuseKey {
        ReuseKey {
            phys: key.phys,
            virt: key.virt,
            knobs: pack_knobs(
                self.config.fp_mode == FpMode::Software,
                self.config.opt,
                self.config.promote,
                self.config.idioms,
                self.config.unroll_loops,
                self.config.region_max_insns,
                self.idiom_rules.hash(),
            ),
            entry_page_hash: self.live_page_hash(key.phys & !0xFFF),
        }
    }

    /// The live bytes of one guest physical page (zero-filled past the end
    /// of backed memory).
    fn read_live_page(&self, page_base: u64) -> Vec<u8> {
        let mut bytes = vec![0u8; tier::PAGE_BYTES];
        if self
            .machine
            .mem
            .read(layout::GUEST_PHYS_BASE + page_base, &mut bytes)
            .is_err()
        {
            bytes.fill(0);
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self
                    .machine
                    .mem
                    .read_uint(layout::GUEST_PHYS_BASE + page_base + i as u64, 1)
                    .unwrap_or(0) as u8;
            }
        }
        bytes
    }

    /// FNV-1a content hash of one live guest physical page.
    fn live_page_hash(&self, page_base: u64) -> u64 {
        fnv1a(&self.read_live_page(page_base))
    }

    /// Delivers a guest-visible event (exception) by updating the guest
    /// system registers and redirecting execution to the vector base.
    fn deliver_event(&mut self, event: GuestEvent, faulting_pc: u64) {
        self.stats.guest_exceptions += 1;
        self.runtime
            .deliver_exception(&mut self.machine, event, faulting_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_aarch64::asm;

    fn boot(words: &[u32]) -> (Captive, RunExit) {
        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, words);
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        (c, exit)
    }

    #[test]
    fn runs_a_simple_arithmetic_program() {
        // x0 = 40 + 2, then exit with code x0 via the exit hypercall.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 40, 0));
        a.push(asm::addi(0, 0, 2));
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), 42);
    }

    #[test]
    fn loops_and_flags_work() {
        // Sum 1..=100 into x0.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 100, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), 5050);
    }

    #[test]
    fn memory_access_with_mmu_off_maps_on_demand() {
        // Store then load back through guest "physical" addresses.
        let mut a = asm::Assembler::new();
        a.mov_imm64(1, 0x10000);
        a.mov_imm64(2, 0xABCD);
        a.push(asm::str(2, 1, 8));
        a.push(asm::ldr(3, 1, 8));
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(3), 0xABCD);
        assert!(
            c.machine.perf.page_faults > 0,
            "demand mapping faulted once"
        );
    }

    #[test]
    fn floating_point_uses_host_fpu() {
        // d0 = 1.5; d1 = d0 * d0; x0 = bits(d1)
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0x78)); // 1.5
        a.push(asm::fmul(1, 0, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(f64::from_bits(c.guest_reg(0)), 2.25);
        assert!(
            c.machine.perf.helper_calls <= 1,
            "no FP helper calls (only the final halt hypercall)"
        );
    }

    #[test]
    fn fsqrt_fixup_is_bit_accurate_with_arm() {
        // sqrt(-0.5) must be the positive default NaN, not the host's -NaN.
        let mut a = asm::Assembler::new();
        a.push(asm::fmov_imm(0, 0xE0)); // -0.5
        a.push(asm::fsqrt(1, 0));
        a.push(asm::fmov_to_gpr(0, 1));
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let mut env = softfloat::FpEnv::arm();
        let expected = softfloat::f64_sqrt_arm((-0.5f64).to_bits(), &mut env);
        assert_eq!(c.guest_reg(0), expected);
    }

    #[test]
    fn svc_takes_an_exception_to_el1() {
        // Install a vector that moves 99 into x5 then halts; cause an SVC from
        // the main flow.
        let mut a = asm::Assembler::new();
        // Vector code is placed at 0x2000 (VBAR).
        a.mov_imm64(1, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 1));
        a.push(asm::svc(3));
        a.push(asm::hlt()); // not reached: the vector halts first
        let main = a.finish();
        let mut v = asm::Assembler::new();
        v.push(asm::movz(5, 99, 0));
        v.push(asm::mrs(6, guest_aarch64::SysReg::Esr as u32));
        v.push(asm::hlt());
        let vector = v.finish();
        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &vector);
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 99);
        let esr = c.guest_reg(6);
        assert_eq!(esr >> 26, guest_aarch64::esr_class::SVC, "ESR class is SVC");
        assert_eq!(esr & 0xFFFF, 3, "ESR carries the SVC immediate");
    }

    #[test]
    fn console_hypercall_collects_output() {
        let mut a = asm::Assembler::new();
        for ch in b"hi" {
            a.push(asm::movz(0, *ch as u32, 0));
            a.push(asm::svc(runtime::SVC_PUTCHAR));
        }
        a.push(asm::hlt());
        let (c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.console(), b"hi");
    }

    #[test]
    fn hot_loop_dispatches_through_chain_links() {
        // A tight countdown loop: after the first two trips (translate, then
        // patch), every iteration must flow through the chain link without
        // re-entering the dispatcher slow path.  Region formation is pinned
        // off — this test measures the chain machinery alone (with it on,
        // the self-loop unrolls and interpreter entries drop fourfold).
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 2000, 0));
        a.label("loop");
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let mut c = Captive::new(CaptiveConfig {
            form_regions: false,
            ..CaptiveConfig::default()
        });
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let stats = c.stats();
        assert!(
            stats.chained_transfers > 1900,
            "loop iterations must chain: {} chained of {} blocks",
            stats.chained_transfers,
            stats.blocks
        );
        assert!(
            stats.slow_dispatches < 20,
            "slow path must be cold: {} slow dispatches",
            stats.slow_dispatches
        );
        assert!(stats.chain_patches >= 1, "links are patched lazily");
        assert_eq!(
            stats.blocks,
            stats.chained_transfers + stats.slow_dispatches,
            "every executed block is either chained or dispatched"
        );
    }

    #[test]
    fn chaining_cycle_gap_comes_from_chained_transfers() {
        // Same guest program under chaining on/off: identical architectural
        // results, and the entire cycle gap is the dispatch-vs-chain cost of
        // the counted chained transfers — not a post-hoc credit.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 1500, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let words = a.finish();

        // Superblocks are pinned off: this test pins *chain-only* cycle
        // accounting (re-baselined when superblocks went default-on).
        let run = |chaining: bool| {
            let mut c = Captive::new(CaptiveConfig {
                chaining,
                form_regions: false,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            let exit = c.run(100_000);
            assert_eq!(exit, RunExit::GuestHalted { code: 0 });
            c
        };
        let mut on = run(true);
        let mut off = run(false);

        for r in 0..31 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert_eq!(soff.chained_transfers, 0);
        assert!(son.chained_transfers > 1400);
        assert_eq!(
            on.machine.perf.chained_entries, son.chained_transfers,
            "machine- and hypervisor-level chained counters must agree"
        );
        assert!(son.cycles < soff.cycles, "chaining must be cheaper");
        let per_transfer = on.machine.cost.dispatch - on.machine.cost.chain;
        assert_eq!(
            soff.cycles - son.cycles,
            son.chained_transfers * per_transfer,
            "the gap is exactly the chained transfers' saved dispatch cost"
        );
    }

    #[test]
    fn self_modifying_code_unlinks_stale_translations() {
        // The guest rewrites a subroutine between two calls; the second call
        // must execute the new code, never a stale translation reached
        // through a chain link.
        let patched_pair = asm::movz(5, 2, 0) as u64 | (asm::ret() as u64) << 32;
        let mut a = asm::Assembler::new();
        a.push(asm::movz(6, 2, 0));
        a.adr_to(3, "target");
        a.mov_imm64(4, patched_pair);
        a.label("loop");
        a.bl_to("target");
        a.push(asm::str(4, 3, 0));
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        a.label("target");
        a.push(asm::movz(5, 1, 0));
        a.push(asm::ret());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 2, "second call must observe the new code");
        assert!(
            c.cache.stats().invalidated_page >= 1,
            "the write-protected code page invalidated its translations"
        );
    }

    #[test]
    fn translation_state_writes_retire_chain_links() {
        // TTBR0 writes bump the context generation, so links patched in an
        // earlier context are never followed, and execution stays correct.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 50, 0));
        a.push(asm::movz(2, 0, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 2));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), (1..=50).sum::<u64>());
        assert!(
            c.runtime.context_generation() >= 50,
            "every TTBR0 write must bump the generation"
        );
        assert_eq!(
            c.stats().chained_transfers,
            0,
            "per-iteration generation bumps must keep links stale"
        );
    }

    #[test]
    fn tlbi_retires_chain_links_and_stays_correct() {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(0, 0, 0));
        a.push(asm::movz(1, 20, 0));
        a.label("loop");
        a.push(asm::add(0, 0, 1));
        a.push(asm::tlbi());
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(0), (1..=20).sum::<u64>());
        assert!(c.runtime.context_generation() >= 20);
        assert_eq!(c.stats().chained_transfers, 0);
    }

    #[test]
    fn exception_mid_chain_delivers_with_correct_elr() {
        // A chained store loop marches past the end of guest RAM; the data
        // abort must carry the exact faulting PC into ELR even though it was
        // raised in a block entered through a chain link.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(1, 0x1C0_0000); // 28 MiB, 4 strides below the 32 MiB limit
        a.mov_imm64(2, 0xDEAD);
        a.mov_imm64(3, 0x10_0000); // 1 MiB stride
        a.label("loop");
        let fault_idx = a.here();
        a.push(asm::str(2, 1, 0));
        a.push(asm::add(1, 1, 3));
        a.b_to("loop");
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        let exit = c.run(100_000);
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting PC");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the first OOB address");
        assert!(
            c.stats().chained_transfers >= 1,
            "the fault happened while chain-looping"
        );
    }

    fn region_config() -> CaptiveConfig {
        CaptiveConfig {
            form_regions: true,
            ..CaptiveConfig::default()
        }
    }

    /// A multi-block same-page loop (two unconditional jumps plus the
    /// counted conditional), hot enough to cross the formation threshold.
    fn multi_block_loop(iters: u32) -> Vec<u32> {
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, iters, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.b_to("a");
        a.label("a");
        a.b_to("b");
        a.label("b");
        a.push(asm::add(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::hlt());
        a.finish()
    }

    #[test]
    fn regions_fuse_hot_chain_paths() {
        let words = multi_block_loop(3000);
        let run = |form_regions: bool| {
            let mut c = Captive::new(CaptiveConfig {
                form_regions,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let mut on = run(true);
        let mut off = run(false);
        for r in 0..31 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert!(son.regions_formed >= 1, "hot loop must form a superblock");
        assert!(
            son.region_transfers > 2_000,
            "stitched transfers absorb the loop: {}",
            son.region_transfers
        );
        assert!(
            son.blocks < soff.blocks / 2,
            "superblocks must cut interpreter entries: {} vs {}",
            son.blocks,
            soff.blocks
        );
        assert!(
            son.cycles <= soff.cycles,
            "superblocks must not cost cycles over chaining: {} vs {}",
            son.cycles,
            soff.cycles
        );
        assert_eq!(
            son.region_transfers, on.machine.perf.region_transfers,
            "hypervisor- and machine-level counters agree"
        );
    }

    #[test]
    fn region_side_exit_leaves_with_exact_state() {
        // The loop's conditional is stitched into the superblock with its
        // exit leg (the CBZ taken to "done") as a side-exit stub; when the
        // counter reaches zero the side exit must deliver execution to the
        // exit path with the accumulator architecturally exact.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 500, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbz_to(1, "done");
        a.b_to("loop");
        a.label("done");
        a.push(asm::hlt());
        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 500, "side exit preserved the accumulator");
        assert_eq!(c.guest_reg(1), 0);
        let s = c.stats();
        assert!(s.regions_formed >= 1);
        assert!(s.region_transfers > 400, "the backward jump was stitched");
    }

    #[test]
    fn smc_on_interior_region_page_invalidates_it() {
        // A hot call loop whose callee lives on the next page: the formed
        // superblock spans both pages with the callee page interior.  A
        // guest write to the callee must kill the superblock so the second
        // call phase executes the new code.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 100, 0));
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        main.cbnz_to(6, "loop");
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.push(asm::strw(4, 3, 0)); // self-modifying write to the callee
        let bl2_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl2_idx as i64 * 4)));
        main.push(asm::hlt());
        let mut sub = asm::Assembler::new();
        sub.push(asm::movz(5, 1, 0));
        sub.push(asm::ret());

        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &main.finish());
        c.load_program(0x2000, &sub.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the call loop must get hot");
        assert!(
            s.region_transfers > 50,
            "calls flow through the stitched BL"
        );
        assert_eq!(
            c.guest_reg(5),
            2,
            "the post-SMC call must run the rewritten callee"
        );
        assert_eq!(
            c.cache.multi_region_count(),
            0,
            "writing an interior page must discard the superblock"
        );
        assert!(c.cache.stats().invalidated_page >= 1);
    }

    #[test]
    fn region_indirect_exit_falls_back_to_chained_dispatch() {
        // The superblock covering [bl → callee..ret] ends at the RET
        // (indirect): every execution leaves through the slow path, after
        // which ordinary chaining resumes — and every interpreter entry is
        // still either chained or dispatched.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(6, 200, 0));
        a.label("loop");
        a.bl_to("sub");
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        a.label("sub");
        a.push(asm::movz(5, 1, 0));
        a.push(asm::ret());
        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &a.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(5), 1);
        assert_eq!(c.guest_reg(6), 0);
        let s = c.stats();
        assert!(s.regions_formed >= 1);
        assert!(
            s.region_entries > 100,
            "the superblock is re-entered every iteration: {}",
            s.region_entries
        );
        assert!(
            s.chained_transfers > 100,
            "chained dispatch continues after each indirect exit"
        );
        assert_eq!(
            s.blocks,
            s.chained_transfers + s.slow_dispatches,
            "every entry is chained or dispatched, superblocks included"
        );
    }

    #[test]
    fn region_fault_mid_trace_delivers_exact_elr() {
        // A striding store loop split into two blocks so a superblock forms;
        // the eventual out-of-bounds store faults *inside* the superblock
        // and must still deliver the exact faulting PC into ELR.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(1, 0x100_0000); // 16 MiB
        a.mov_imm64(2, 0xDEAD);
        a.mov_imm64(3, 0x1_0000); // 64 KiB stride → 256 iterations to 32 MiB
        a.label("loop");
        let fault_idx = a.here();
        a.push(asm::str(2, 1, 0));
        a.push(asm::add(1, 1, 3));
        a.b_to("m");
        a.label("m");
        a.b_to("loop");
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(region_config());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting PC");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the first OOB address");
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the loop got hot before faulting");
        assert!(s.region_transfers > 100);
    }

    #[test]
    fn region_profiles_attribute_per_entry_mode() {
        let words = multi_block_loop(1000);
        let mut c = Captive::new(CaptiveConfig {
            form_regions: true,
            per_block_stats: true,
            ..CaptiveConfig::default()
        });
        c.load_program(0x1000, &words);
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let profiles = c.region_profiles();
        let mut chained = 0u64;
        let mut dispatched = 0u64;
        let mut multi_entries = 0u64;
        let mut total_cycles = 0u64;
        for p in profiles.values() {
            assert_eq!(
                p.executions(EntryMode::Chained) + p.executions(EntryMode::Dispatched),
                p.total_executions(),
                "the two entry modes partition the total"
            );
            chained += p.executions(EntryMode::Chained);
            dispatched += p.executions(EntryMode::Dispatched);
            total_cycles += p.total_cycles();
            if p.constituents > 1 {
                multi_entries += p.total_executions();
            }
        }
        let s = c.stats();
        assert_eq!(
            chained + dispatched,
            s.blocks,
            "the profiles cover every interpreter entry"
        );
        assert_eq!(chained, s.chained_transfers);
        assert_eq!(dispatched, s.slow_dispatches);
        assert!(
            multi_entries >= s.region_entries,
            "rows whose key now holds a formed region cover at least the \
             multi-constituent entries (plus any pre-formation plain entries \
             recorded under the same key): {multi_entries} vs {}",
            s.region_entries
        );
        assert!(
            multi_entries >= 1,
            "the formed region's entries are attributed: {multi_entries}"
        );
        assert!(
            s.blocks < 100,
            "the looping region absorbs the hot loop into a handful of \
             interpreter entries: {}",
            s.blocks
        );
        assert!(chained > 0, "pre-formation chained entries are attributed");
        assert!(total_cycles > 0);
    }

    #[test]
    fn data_gtlb_caches_guest_walks_across_repeated_faults() {
        // MMU-on guest: a store loop hammers a read-only page, taking a data
        // abort per iteration whose handler skips the store.  Every host
        // fault needs the guest walk result; only the first may actually
        // walk — the rest must hit the data-side gTLB (no TLBI intervenes).
        use guest_aarch64::mmu::{GuestPageFlags, GuestPageTableBuilder};
        // Build the guest translation tables in a scratch map (the builder
        // needs simultaneous read/write views), then copy them into guest
        // physical memory: the code and vector pages identity-mapped, the
        // target page read-only.
        let table = std::cell::RefCell::new(HashMap::<u64, u64>::new());
        let mut b = GuestPageTableBuilder::new(0x10_0000, 0x18_0000);
        {
            let mut map = |va: u64, pa: u64, flags: GuestPageFlags| {
                assert!(b.map(
                    |a| Some(*table.borrow().get(&a).unwrap_or(&0)),
                    |a, v| {
                        table.borrow_mut().insert(a, v);
                    },
                    va,
                    pa,
                    flags,
                ));
            };
            map(0x1000, 0x1000, GuestPageFlags::kernel_rw());
            map(0x2000, 0x2000, GuestPageFlags::kernel_rw());
            map(
                0x40_0000,
                0x5000,
                GuestPageFlags {
                    valid: true,
                    writable: false,
                    user: true,
                },
            );
        }
        let mut c = Captive::new(CaptiveConfig::default());
        for (&a, &v) in table.borrow().iter() {
            c.write_guest_phys(a, v, 8);
        }
        let root = b.root;

        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(0, root);
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
        a.push(asm::movz(0, 1, 0));
        a.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0)); // MMU on
        a.mov_imm64(1, 0x40_0000);
        a.push(asm::movz(6, 50, 0));
        a.label("loop");
        a.push(asm::str(2, 1, 0)); // write to the RO page: data abort
        a.push(asm::subi(6, 6, 1));
        a.cbnz_to(6, "loop");
        a.push(asm::hlt());
        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::addi(10, 10, 4));
        v.push(asm::msr(guest_aarch64::SysReg::Elr as u32, 10));
        v.push(asm::eret());

        c.load_program(0x1000, &a.finish());
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(6), 0, "all 50 aborts were handled");
        let s = c.stats();
        assert_eq!(s.guest_exceptions, 50);
        assert!(
            s.dtlb_hits >= 49,
            "repeated faults on the same VA must hit the gTLB: {} hits / {} misses",
            s.dtlb_hits,
            s.dtlb_misses
        );
        assert!(
            s.dtlb_misses <= 4,
            "only first-touch faults may walk: {} misses",
            s.dtlb_misses
        );
    }

    #[test]
    fn context_generation_bump_sweeps_stale_regions() {
        // A hot multi-block loop forms a superblock; the TLBI afterwards
        // bumps the context generation, and the next slow dispatch must
        // evict the now-unreachable stale-generation superblock instead of
        // letting it linger until replaced.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 3000, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("loop");
        a.b_to("a");
        a.label("a");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "loop");
        a.push(asm::tlbi());
        a.push(asm::movz(5, 7, 0));
        a.push(asm::hlt());
        let (mut c, exit) = boot(&a.finish());
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 3000);
        assert_eq!(c.guest_reg(5), 7);
        let s = c.stats();
        assert!(s.regions_formed >= 1, "the loop must get hot");
        assert_eq!(
            c.cache.multi_region_count(),
            0,
            "the generation bump must sweep the stale superblock"
        );
        assert!(s.regions_evicted >= 1, "the sweep is recorded in the stats");
    }

    #[test]
    fn optimizer_reports_eliminated_work_and_saves_cycles() {
        // Back-to-back flag setters: the first NZCV store is dead, the
        // loads of x9/x1 forward, and the run must be architecturally
        // identical but cheaper than with the optimizer off.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 1000, 0));
        a.push(asm::movz(9, 0, 0));
        a.push(asm::movz(2, 1, 0));
        a.label("loop");
        a.push(asm::adds(9, 9, 2)); // NZCV overwritten unread
        a.push(asm::subis(1, 1, 1)); // NZCV read by the branch
        a.bcond_to(guest_aarch64::isa::Cond::Ne, "loop");
        a.push(asm::hlt());
        let words = a.finish();
        let run = |opt: bool| {
            let mut c = Captive::new(CaptiveConfig {
                opt,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let mut on = run(true);
        let mut off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        let son = on.stats();
        let soff = off.stats();
        assert!(son.opt_dead_stores >= 1, "the adds NZCV store is dead");
        assert!(son.opt_forwarded_loads >= 1, "regfile loads forward");
        assert!(
            son.elided_dyn_insns > 1000,
            "every loop trip benefits from the eliminated instructions: {}",
            son.elided_dyn_insns
        );
        assert_eq!(soff.opt_dead_stores, 0);
        assert_eq!(soff.opt_forwarded_loads, 0);
        assert!(
            son.cycles < soff.cycles,
            "the optimizer must save modeled cycles ({} vs {})",
            son.cycles,
            soff.cycles
        );
    }

    #[test]
    fn faulting_load_with_dead_destination_still_delivers_the_abort() {
        // The optimiser's dead-store elimination leaves the guest-memory
        // load below with an unread destination (x1 is immediately
        // overwritten); the load must nevertheless execute and deliver its
        // data abort — the fault is architectural state the guest is owed.
        let mut a = asm::Assembler::new();
        a.mov_imm64(9, 0x2000);
        a.push(asm::msr(guest_aarch64::SysReg::Vbar as u32, 9));
        a.mov_imm64(2, 0x200_0000); // beyond the 32 MiB of guest RAM
        let fault_idx = a.here();
        a.push(asm::ldr(1, 2, 0)); // faulting load, value never read
        a.push(asm::movz(1, 5, 0)); // overwrites x1: the load's value is dead
        a.push(asm::hlt());
        let main = a.finish();
        let fault_pc = 0x1000 + fault_idx as u64 * 4;

        let mut v = asm::Assembler::new();
        v.push(asm::mrs(10, guest_aarch64::SysReg::Elr as u32));
        v.push(asm::mrs(11, guest_aarch64::SysReg::Far as u32));
        v.push(asm::hlt());

        let mut c = Captive::new(CaptiveConfig::default());
        c.load_program(0x1000, &main);
        c.load_program(0x2000, &v.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.stats().guest_exceptions, 1, "the abort was delivered");
        assert_eq!(c.guest_reg(10), fault_pc, "ELR is the faulting load");
        assert_eq!(c.guest_reg(11), 0x200_0000, "FAR is the bad address");
        assert_ne!(c.guest_reg(1), 5, "the vector halted before the movz");
    }

    #[test]
    fn self_loop_becomes_a_looping_region_and_saves_cycles() {
        // The pointer-chase shape: a single-block self-loop.  With looping
        // regions the body is peeled fourfold AND the final copy's loop-back
        // closes as a region-internal back-edge, so the whole countdown runs
        // inside one region entry; under chaining alone every iteration
        // re-enters through a chain link.
        let mut a = asm::Assembler::new();
        a.push(asm::movz(1, 4000, 0));
        a.push(asm::movz(9, 0, 0));
        a.label("chase");
        a.push(asm::addi(9, 9, 1));
        a.push(asm::subi(1, 1, 1));
        a.cbnz_to(1, "chase");
        a.push(asm::hlt());
        let words = a.finish();
        let run = |form_regions: bool| {
            let mut c = Captive::new(CaptiveConfig {
                form_regions,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
            c
        };
        let mut on = run(true);
        let mut off = run(false);
        for r in 0..16 {
            assert_eq!(on.guest_reg(r), off.guest_reg(r), "x{r} diverged");
        }
        assert_eq!(on.guest_reg(9), 4000);
        let son = on.stats();
        let soff = off.stats();
        assert_eq!(soff.regions_formed, 0, "chaining alone forms nothing");
        assert!(
            son.regions_unrolled >= 1 && son.loop_regions_formed >= 1,
            "the self-loop must form an unrolled looping region"
        );
        assert!(
            son.backedge_transfers > 900,
            "trips stay inside the region: {}",
            son.backedge_transfers
        );
        assert!(
            son.region_transfers > 2_000,
            "peeled iterations cross trace edges, not chain links: {}",
            son.region_transfers
        );
        assert!(
            son.blocks < soff.blocks / 10,
            "the looping region absorbs nearly every interpreter entry: {} vs {}",
            son.blocks,
            soff.blocks
        );
        assert!(
            son.cycles < soff.cycles,
            "looping regions must run strictly fewer modeled cycles: {} vs {}",
            son.cycles,
            soff.cycles
        );
        assert_eq!(
            son.blocks,
            son.chained_transfers + son.slow_dispatches,
            "every entry is still chained or dispatched"
        );
        assert!(
            son.guest_insns >= soff.guest_insns && son.guest_insns - soff.guest_insns < 100,
            "per-trip attribution keeps guest-instruction counts within one \
             region entry of exact: {} vs {}",
            son.guest_insns,
            soff.guest_insns
        );
    }

    #[test]
    fn virtual_aliases_of_a_hot_entry_each_get_a_live_region() {
        // Two virtual pages map the same physical page holding a hot loop
        // kernel; both entries must end up with their own live unrolled
        // region (the old per-physical superblock slot made the aliases
        // evict each other), whether formed by a worker or inline.
        for tiered in [true, false] {
            virtual_aliases_each_form_a_region(tiered);
        }
    }

    fn virtual_aliases_each_form_a_region(tiered: bool) {
        use guest_aarch64::mmu::{GuestPageFlags, GuestPageTableBuilder};
        let table = std::cell::RefCell::new(HashMap::<u64, u64>::new());
        let mut b = GuestPageTableBuilder::new(0x10_0000, 0x18_0000);
        {
            let mut map = |va: u64, pa: u64| {
                assert!(b.map(
                    |a| Some(*table.borrow().get(&a).unwrap_or(&0)),
                    |a, v| {
                        table.borrow_mut().insert(a, v);
                    },
                    va,
                    pa,
                    GuestPageFlags::kernel_rw(),
                ));
            };
            map(0x1000, 0x1000); // main code, identity
            map(0x3000, 0x3000); // kernel, identity
            map(0x8000, 0x3000); // kernel alias
        }
        let mut c = Captive::new(CaptiveConfig {
            tiered,
            ..CaptiveConfig::default()
        });
        for (&a, &v) in table.borrow().iter() {
            c.write_guest_phys(a, v, 8);
        }

        // Kernel at PA 0x3000: a two-block loop, then return.  The direct
        // jump makes the trace resolve a virtual address through the guest
        // page tables, which are not code pages: a formation snapshot lacks
        // them until the `NeedPages` refill captures them from live memory.
        let mut k = asm::Assembler::new();
        k.label("chase");
        k.push(asm::addi(9, 9, 1));
        k.b_to("count");
        k.label("count");
        k.push(asm::subi(5, 5, 1));
        k.cbnz_to(5, "chase");
        k.push(asm::ret());

        let mut a = asm::Assembler::new();
        a.mov_imm64(0, b.root);
        a.push(asm::msr(guest_aarch64::SysReg::Ttbr0 as u32, 0));
        a.push(asm::movz(0, 1, 0));
        a.push(asm::msr(guest_aarch64::SysReg::Sctlr as u32, 0)); // MMU on
        a.push(asm::movz(9, 0, 0));
        a.push(asm::movz(5, 200, 0));
        let bl1 = a.here();
        a.push(asm::bl(0x3000 - (0x1000 + bl1 as i64 * 4)));
        a.push(asm::movz(5, 200, 0));
        let bl2 = a.here();
        a.push(asm::bl(0x8000 - (0x1000 + bl2 as i64 * 4)));
        a.push(asm::hlt());

        c.load_program(0x1000, &a.finish());
        c.load_program(0x3000, &k.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        assert_eq!(c.guest_reg(9), 400, "both alias phases ran the kernel");
        let s = c.stats();
        assert!(
            s.regions_unrolled >= 2,
            "tiered {tiered}: each alias must unroll its own region: {}",
            s.regions_unrolled
        );
        assert_eq!(
            c.cache.multi_region_count(),
            2,
            "tiered {tiered}: both aliases hold a live region — no slot contention"
        );
    }

    #[test]
    fn translations_are_cached_and_reused() {
        let (c, exit) = boot(&{
            let mut a = asm::Assembler::new();
            a.push(asm::movz(1, 1000, 0));
            a.label("loop");
            a.push(asm::subi(1, 1, 1));
            a.cbnz_to(1, "loop");
            a.push(asm::hlt());
            a.finish()
        });
        assert_eq!(exit, RunExit::GuestHalted { code: 0 });
        let stats = c.stats();
        assert!(stats.translations <= 4, "loop body translated once");
        assert!(
            stats.guest_insns > 1900,
            "loop body re-executed from the cache (the unrolled region packs \
             several iterations per entry): {} guest insns over {} entries",
            stats.guest_insns,
            stats.blocks
        );
    }

    #[test]
    fn tiered_and_sync_modes_are_architecturally_identical() {
        // The tiered service must be invisible to the guest: same registers,
        // same modeled cycles, same regions formed — the only difference is
        // *who* formed them.  Run threaded (the default) so the real worker
        // path is exercised.
        let words = multi_block_loop(3000);
        let run = |tiered: bool| {
            let mut c = Captive::new(CaptiveConfig {
                tiered,
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            (c.guest_reg(9), c.stats())
        };
        let (x9_tiered, tiered) = run(true);
        let (x9_sync, sync) = run(false);
        assert_eq!(x9_tiered, 4_501_500, "sum of the 3000-step countdown");
        assert_eq!(x9_tiered, x9_sync);
        assert_eq!(tiered.cycles, sync.cycles, "modeled cost is mode-blind");
        assert_eq!(tiered.regions_formed, sync.regions_formed);
        assert_eq!(tiered.guest_insns, sync.guest_insns);
        assert!(tiered.tier1_requests >= 1, "the hot head was published");
        assert!(
            tiered.regions_installed_async >= 1,
            "at least one region came off a background worker"
        );
        assert_eq!(tiered.stale_discards, 0, "nothing changed under it");
        assert_eq!(sync.tier1_requests, 0, "sync mode never publishes");
        assert_eq!(sync.regions_installed_async, 0);
    }

    #[test]
    fn a_panicking_tier1_worker_degrades_the_run_instead_of_hanging_it() {
        // Every formation of this program panics (test-only fault injection
        // keyed by entry address).  With two workers the run thread must
        // still get an answer for each head it waits on, quarantine the
        // head, and finish the guest on unformed code with the
        // architectural result intact; pump mode behaves the same, and so
        // does `tiered: false`, whose inline formations run inside the same
        // containment.
        let base = 0x5_0000;
        crate::tier::PANIC_AT
            .lock()
            .unwrap()
            .push(base..base + 0x1000);
        let words = multi_block_loop(3000);
        for (tiered, tier_workers) in [(true, 2), (true, 0), (false, 0)] {
            let mut c = Captive::new(CaptiveConfig {
                tiered,
                tier_workers,
                ..CaptiveConfig::default()
            });
            c.load_program(base, &words);
            c.set_entry(base);
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            assert_eq!(c.guest_reg(9), 4_501_500);
            let stats = c.stats();
            let leg = format!("tiered {tiered}, {tier_workers} workers");
            assert_eq!(stats.tier1_requests >= 1, tiered, "{leg}: publishing");
            assert_eq!(stats.regions_installed_async, 0, "{leg}");
            assert_eq!(stats.regions_formed, 0, "{leg}");
            assert!(stats.regions_quarantined >= 1, "{leg}");
            assert_eq!(
                stats.formation_failures, stats.regions_quarantined,
                "{leg}: one failure per head, quarantined at once"
            );
        }
    }

    #[test]
    fn smc_between_snapshot_and_install_discards_stale_region() {
        // A two-page call loop rewrites its callee *after* the formation
        // request is published (link heat 8) but *before* the install point
        // (heat 16).  The worker's region was formed from the stale
        // snapshot: the install gate must discard it — never install it —
        // and the inline fallback re-forms from a fresh snapshot of the
        // rewritten code.
        // Pump mode keeps the interleaving deterministic.
        let mut main = asm::Assembler::new();
        main.push(asm::movz(6, 60, 0));
        main.mov_imm64(3, 0x2000);
        main.mov_imm64(4, asm::movz(5, 2, 0) as u64);
        main.label("loop");
        let bl_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl_idx as i64 * 4)));
        main.push(asm::subi(6, 6, 1));
        // One-shot self-modifying write when the countdown hits 47 —
        // between the publish and install heats of the loop head.
        main.push(asm::subi(7, 6, 47));
        main.cbnz_to(7, "skip");
        main.push(asm::strw(4, 3, 0));
        main.label("skip");
        main.cbnz_to(6, "loop");
        let bl2_idx = main.here();
        main.push(asm::bl(0x2000 - (0x1000 + bl2_idx as i64 * 4)));
        main.push(asm::hlt());
        let mut sub = asm::Assembler::new();
        sub.push(asm::movz(5, 1, 0));
        sub.push(asm::ret());

        let mut c = Captive::new(CaptiveConfig {
            tier_workers: 0,
            ..region_config()
        });
        c.load_program(0x1000, &main.finish());
        c.load_program(0x2000, &sub.finish());
        c.set_entry(0x1000);
        assert_eq!(c.run(100_000), RunExit::GuestHalted { code: 0 });
        let s = c.stats();
        assert_eq!(
            c.guest_reg(5),
            2,
            "every post-SMC call must run the rewritten callee"
        );
        assert!(s.tier1_requests >= 1, "the loop head was published");
        assert!(
            s.stale_discards >= 1,
            "the stale worker region was discarded at the install gate"
        );
        assert!(
            s.regions_formed >= 1,
            "the inline fallback re-formed from the rewritten code"
        );
    }

    #[test]
    fn content_keyed_reuse_skips_reformation_across_instances() {
        // Two engine instances share a reuse cache and run the same kernel
        // image: the second instance must obtain its hot region by content
        // hash instead of re-forming it, with identical guest results and
        // modeled cycles.
        let reuse = Arc::new(ReuseCache::new());
        let words = multi_block_loop(3000);
        let run = || {
            let mut c = Captive::new(CaptiveConfig {
                tier_workers: 0,
                reuse_cache: Some(Arc::clone(&reuse)),
                ..CaptiveConfig::default()
            });
            c.load_program(0x1000, &words);
            c.set_entry(0x1000);
            assert_eq!(c.run(200_000), RunExit::GuestHalted { code: 0 });
            (c.guest_reg(9), c.stats())
        };
        let (x9_first, first) = run();
        let (x9_second, second) = run();
        assert_eq!(x9_first, 4_501_500, "sum of the 3000-step countdown");
        assert_eq!(x9_first, x9_second);
        assert_eq!(first.reuse_hits, 0, "cold cache on the first run");
        assert!(first.reuse_misses >= 1);
        assert!(
            second.reuse_hits >= 1,
            "the second run must hit the shared template"
        );
        assert_eq!(first.cycles, second.cycles, "reuse is cost-invisible");
        assert_eq!(first.guest_insns, second.guest_insns);
        assert_eq!(
            first.regions_formed, second.regions_formed,
            "a reused install still counts as a formed region"
        );
    }
}
