//! Running images on the reference and on Captive, and checking outputs.

use crate::gen::Image;
use captive::{Captive, CaptiveConfig, RunExit, RunStats};
use dbt::{PhaseTimers, TierTimers};
use hvm::PerfCounters;
use qemu_ref::QemuRef;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{CODE_BASE, DATA_BASE};

/// Guest RAM of both engines (the `CaptiveConfig` default).
pub const GUEST_RAM: u64 = 32 * 1024 * 1024;
/// Dispatched blocks an image may use before it counts as failed.
pub const BLOCK_BUDGET: u64 = 100_000_000;
/// Host wall-clock an image may take before it counts as failed.
pub const IMAGE_DEADLINE: Duration = Duration::from_secs(10);
const CODE_DIGEST_LEN: u64 = 16 * 1024;
const DATA_DIGEST_LEN: u64 = 64 * 1024;

/// The final architectural state both engines must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// x0..x30.
    pub regs: [u64; 31],
    /// NZCV flags.
    pub nzcv: u64,
    /// Digest of the code region (covers self-modified words).
    pub code_digest: u64,
    /// Digest of the data region (covers device DMA and rings).
    pub data_digest: u64,
    /// IRQs delivered.
    pub irqs: u64,
    /// Virtio completions retired.
    pub completions: u64,
}

/// What the reference engine says about an image.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Final state Captive must reproduce.
    pub outcome: Outcome,
    /// Guest instructions the reference retired: the fixed numerator of
    /// guest MIPS.
    pub guest_insns: u64,
    /// Modeled cycles of the `qemu+goto_tb` baseline.
    pub cycles: u64,
}

/// The strongest honest baseline: same-page chaining plus `goto_tb`.
pub fn reference_engine(img: &Image) -> QemuRef {
    let mut q = QemuRef::with_goto_tb(GUEST_RAM);
    if let Some(v) = &img.virtio {
        q.attach_virtio(v.clone());
    }
    q.load_program(CODE_BASE, &img.words);
    q.set_entry(img.entry);
    for &(cycle, line) in &img.irqs {
        q.runtime.events.latch.raise_at(cycle, line);
    }
    q
}

/// Runs `img` on the reference engine.  A reference that does not halt is
/// a generator bug, not an engine failure.
pub fn reference(img: &Image) -> Result<Reference, String> {
    let mut q = reference_engine(img);
    let exit = q.run(BLOCK_BUDGET);
    if !matches!(exit, qemu_ref::RunExit::GuestHalted { .. }) {
        return Err(format!("{}: reference exit {exit:?}", img.name));
    }
    let s = q.stats();
    let mut regs = [0u64; 31];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = q.guest_reg(i as u32);
    }
    Ok(Reference {
        outcome: Outcome {
            regs,
            nzcv: q.guest_nzcv(),
            code_digest: q.guest_mem_digest(CODE_BASE, CODE_DIGEST_LEN),
            data_digest: q.guest_mem_digest(DATA_BASE, DATA_DIGEST_LEN),
            irqs: s.irqs_delivered,
            completions: s.virtio_completions,
        },
        guest_insns: s.guest_insns,
        cycles: s.cycles,
    })
}

/// The one configuration the benchmark measures: the default engine with
/// the image's device attached.
pub fn captive_config(img: &Image) -> CaptiveConfig {
    CaptiveConfig {
        virtio: img.virtio.clone(),
        ..CaptiveConfig::default()
    }
}

/// Loads `img` into a fresh engine.
pub fn load(c: &mut Captive, img: &Image) {
    c.load_program(CODE_BASE, &img.words);
    c.set_entry(img.entry);
    for &(cycle, line) in &img.irqs {
        c.runtime.events.latch.raise_at(cycle, line);
    }
}

/// Reads the final state of a halted engine.
pub fn captive_outcome(c: &mut Captive) -> Outcome {
    let s = c.stats();
    let mut regs = [0u64; 31];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = c.guest_reg(i as u32);
    }
    Outcome {
        regs,
        nzcv: c.guest_nzcv(),
        code_digest: c.guest_mem_digest(CODE_BASE, CODE_DIGEST_LEN),
        data_digest: c.guest_mem_digest(DATA_BASE, DATA_DIGEST_LEN),
        irqs: s.irqs_delivered,
        completions: s.virtio_completions,
    }
}

/// Why an image run counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The engine stopped without the guest halting (budget or error).
    Exit(String),
    /// The guest halted in a state that differs from the reference.
    Mismatch,
    /// The engine panicked.
    Panic,
    /// The run took longer than [`IMAGE_DEADLINE`].
    Deadline,
}

/// One image run on Captive.
#[derive(Debug, Clone)]
pub struct ImageRun {
    /// Wall-clock from `Captive::new` to halt.
    pub wall: Duration,
    /// Engine statistics at the end of the run.
    pub stats: RunStats,
    /// Tier-level wall-clock accounting.
    pub tier: TierTimers,
    /// Run-thread JIT phase timers and translation counts.
    pub timers: PhaseTimers,
    /// The simulated machine's counters.
    pub perf: PerfCounters,
    /// `None` when the run halted in the reference's state in time.
    pub failure: Option<Failure>,
}

/// Judges a finished run: exit, deadline and final state, in that order.
pub fn judge(exit: &RunExit, wall: Duration, got: &Outcome, want: &Outcome) -> Option<Failure> {
    if !matches!(exit, RunExit::GuestHalted { .. }) {
        Some(Failure::Exit(format!("{exit:?}")))
    } else if wall > IMAGE_DEADLINE {
        Some(Failure::Deadline)
    } else if got != want {
        Some(Failure::Mismatch)
    } else {
        None
    }
}

/// Runs `img` once on a fresh default engine and checks it against `want`.
/// A panic inside the engine is caught and counted as a failure.
pub fn run_image(img: &Image, want: &Outcome) -> ImageRun {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let mut c = Captive::new(captive_config(img));
        load(&mut c, img);
        let exit = c.run(BLOCK_BUDGET);
        let wall = start.elapsed();
        let got = captive_outcome(&mut c);
        ImageRun {
            wall,
            stats: c.stats(),
            tier: c.tier_timers(),
            timers: c.timers,
            perf: c.machine.perf,
            failure: judge(&exit, wall, &got, want),
        }
    }));
    result.unwrap_or_else(|_| ImageRun {
        wall: Duration::ZERO,
        stats: RunStats::default(),
        tier: TierTimers::default(),
        timers: PhaseTimers::default(),
        perf: PerfCounters::default(),
        failure: Some(Failure::Panic),
    })
}

/// The modeled counters of a run that must repeat exactly for one image.
pub fn deterministic_counts(s: &RunStats) -> [u64; 16] {
    [
        s.cycles,
        s.host_insns,
        s.guest_insns,
        s.blocks,
        s.translations,
        s.slow_dispatches,
        s.chained_transfers,
        s.region_transfers,
        s.backedge_transfers,
        s.regions_formed,
        s.loop_regions_formed,
        s.formation_failures,
        s.tier1_requests,
        s.regions_installed_async,
        s.guest_exceptions,
        s.irqs_delivered,
    ]
}

/// Adds the counters the per-layer metrics read.
pub fn add_stats(acc: &mut RunStats, s: &RunStats) {
    acc.host_insns += s.host_insns;
    acc.guest_insns += s.guest_insns;
    acc.blocks += s.blocks;
    acc.translations += s.translations;
    acc.guest_exceptions += s.guest_exceptions;
    acc.slow_dispatches += s.slow_dispatches;
    acc.chained_transfers += s.chained_transfers;
    acc.itlb_hits += s.itlb_hits;
    acc.itlb_misses += s.itlb_misses;
    acc.dtlb_hits += s.dtlb_hits;
    acc.dtlb_misses += s.dtlb_misses;
    acc.region_transfers += s.region_transfers;
    acc.regions_formed += s.regions_formed;
    acc.loop_regions_formed += s.loop_regions_formed;
    acc.backedge_transfers += s.backedge_transfers;
    acc.opt_promoted_slots += s.opt_promoted_slots;
    acc.opt_idioms_fused += s.opt_idioms_fused;
    acc.elided_dyn_insns += s.elided_dyn_insns;
    acc.irqs_delivered += s.irqs_delivered;
    acc.timer_irqs += s.timer_irqs;
    acc.bytes_live += s.bytes_live;
    acc.regions_live += s.regions_live;
    acc.formation_failures += s.formation_failures;
    acc.tier1_requests += s.tier1_requests;
    acc.regions_installed_async += s.regions_installed_async;
    acc.stale_discards += s.stale_discards;
    acc.reuse_hits += s.reuse_hits;
    acc.reuse_misses += s.reuse_misses;
    acc.virtio_completions += s.virtio_completions;
    acc.virtio_dma_bytes += s.virtio_dma_bytes;
    acc.external_invalidations += s.external_invalidations;
}
