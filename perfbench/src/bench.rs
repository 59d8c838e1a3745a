//! Set-up and untraced passes: the end-to-end metrics.

use crate::gen::{Image, Workload};
use crate::record::{config_fingerprint, Record, RecordKey, RecordSet};
use crate::run::{self, Reference};
use crate::stats;
use captive::RunStats;
use std::time::Instant;

/// A workload's images with their reference results.
pub struct Setup {
    /// The images of one pass.
    pub images: Vec<Image>,
    /// `refs[i]` is the reference result of `images[i]`.
    pub refs: Vec<Reference>,
}

/// Generates the images, runs the reference on each image and
/// warms the engine up on the first one.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let images = workload.images(seed);
    let refs = images
        .iter()
        .map(run::reference)
        .collect::<Result<Vec<_>, _>>()?;
    let warm = run::run_image(&images[0], &refs[0].outcome);
    if let Some(f) = warm.failure {
        eprintln!("warm-up run of {} failed: {f:?}", images[0].name);
    }
    Ok(Setup { images, refs })
}

/// One untraced pass over every image.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-image wall-clock milliseconds, engine construction to halt;
    /// `None` for an image that failed.
    pub image_ms: Vec<Option<f64>>,
    /// Per-image run-thread JIT stall, milliseconds.
    pub stall_ms: Vec<f64>,
    /// Sum of Captive modeled cycles.
    pub cycles: u64,
    /// Engine counters summed over images (the fields [`run::add_stats`]
    /// adds).
    pub stats: RunStats,
    /// Helper calls made by translated code, summed over images.
    pub helper_calls: u64,
    /// Host TLB misses, summed over images.
    pub tlb_misses: u64,
    /// Blocks the run thread translated, summed over images.
    pub translated_blocks: u64,
    /// Geomean over images of `qemu+goto_tb` cycles / Captive cycles.
    pub speedup: f64,
    /// Images that failed.
    pub failed: usize,
    /// Per-image modeled counters, for the determinism check.
    pub counts: Vec<[u64; 16]>,
}

impl Pass {
    /// Sum of the wall-clock seconds of the images that passed.
    pub fn wall_s(&self) -> f64 {
        self.image_ms.iter().flatten().sum::<f64>() / 1e3
    }
}

/// Runs every image once, checks each against its reference and records it
/// under a unique key.
pub fn measure_pass(
    workload: Workload,
    seed: u64,
    pass: usize,
    setup: &Setup,
    records: &mut RecordSet,
) -> Result<Pass, String> {
    let n = setup.images.len();
    let mut p = Pass {
        image_ms: Vec::with_capacity(n),
        stall_ms: Vec::with_capacity(n),
        cycles: 0,
        stats: RunStats::default(),
        helper_calls: 0,
        tlb_misses: 0,
        translated_blocks: 0,
        speedup: 0.0,
        failed: 0,
        counts: Vec::with_capacity(n),
    };
    let mut ratios = Vec::with_capacity(n);
    for (img, r) in setup.images.iter().zip(&setup.refs) {
        let run = run::run_image(img, &r.outcome);
        let ok = run.failure.is_none();
        if let Some(f) = &run.failure {
            eprintln!("{} pass {pass}: {f:?}", img.name);
        }
        let wall_ms = run.wall.as_secs_f64() * 1e3;
        records.insert(
            RecordKey {
                workload: workload.name(),
                seed,
                config: config_fingerprint(&run::captive_config(img)),
                image: img.name.clone(),
                pass,
            },
            Record {
                cycles: run.stats.cycles,
                wall_ms,
                ok,
            },
        )?;
        p.cycles += run.stats.cycles;
        run::add_stats(&mut p.stats, &run.stats);
        p.helper_calls += run.perf.helper_calls;
        p.tlb_misses += run.perf.tlb_misses;
        p.translated_blocks += run.timers.blocks;
        p.stall_ms.push(run.stats.jit_wall_ns as f64 / 1e6);
        p.counts.push(run::deterministic_counts(&run.stats));
        if ok {
            p.image_ms.push(Some(wall_ms));
            ratios.push(r.cycles as f64 / run.stats.cycles as f64);
        } else {
            p.image_ms.push(None);
            p.failed += 1;
        }
    }
    p.speedup = stats::geomean(&ratios);
    Ok(p)
}

/// Host time of a run, image by image: each image's mean over the passes
/// it passed in.  The host's speed swings within a second, so the mean over
/// a run's passes averages the swings out; a per-image median or minimum
/// follows how often the host happened to be fast, and spread more from run
/// to run (see `README.md`).
#[derive(Debug, Clone)]
pub struct HostTime {
    /// Reference guest instructions of the images that passed at least once.
    pub ref_insns: u64,
    /// Sum over those images of their mean wall-clock, seconds.
    pub wall_s: f64,
    /// Sum over all images of their mean JIT stall, milliseconds.
    pub stall_ms: f64,
}

/// Combines the passes of a run image by image.
pub fn host_time(setup: &Setup, passes: &[Pass]) -> HostTime {
    let mut t = HostTime {
        ref_insns: 0,
        wall_s: 0.0,
        stall_ms: 0.0,
    };
    for (i, r) in setup.refs.iter().enumerate() {
        let walls: Vec<f64> = passes.iter().filter_map(|p| p.image_ms[i]).collect();
        if !walls.is_empty() {
            t.ref_insns += r.guest_insns;
            t.wall_s += stats::mean(&walls) / 1e3;
        }
        let stalls: Vec<f64> = passes.iter().map(|p| p.stall_ms[i]).collect();
        t.stall_ms += stats::mean(&stalls);
    }
    t
}

/// Fewest set-ups per run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Set-ups continue until they have taken this long in total, so a cheap
/// set-up is timed often enough for a steady median.
pub const SETUP_SECONDS: f64 = 2.0;

/// Times repeated set-ups (at least [`MIN_SETUPS`], and until
/// [`SETUP_SECONDS`] have passed) and keeps the last one.
pub fn timed_setups(workload: Workload, seed: u64) -> Result<(Setup, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let s = setup(workload, seed)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_SECONDS {
            return Ok((s, stats::median(&times)));
        }
    }
}
