//! The traced run: spans around every call into the engine, recorded in
//! memory and written out at the end, and the per-layer metrics derived from
//! them.
//!
//! Span tree per image: `image` → `engine.new` / `engine.load` /
//! `engine.run.slice` (one `Captive::run` call of [`SLICE_BLOCKS`]) /
//! `engine.check`; and, in the layer-isolation pass, `layer.isolate` →
//! `dbt.translate_block` per block entry the reference executed.
//! Slicing changes the program being measured (chain links are lost at
//! every slice boundary), which is why these numbers never feed the
//! end-to-end metrics.

use crate::bench::Setup;
use crate::gen::Image;
use crate::run::{self, Failure, BLOCK_BUDGET};
use captive::{Captive, CaptiveConfig, RunExit};
use dbt::{PhaseTimers, RuleTable, TierTimers};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Blocks per `engine.run.slice`.
pub const SLICE_BLOCKS: u64 = 2_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run).
    pub id: usize,
    /// Id of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one image run.
    pub trace: usize,
    /// Boundary name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counts recorded at the boundary.
    pub attrs: Vec<(&'static str, u64)>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every finished or open span, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes span `id` with its counts and returns its duration.
    pub fn close(&mut self, id: usize, attrs: Vec<(&'static str, u64)>) -> Duration {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.attrs = attrs;
        Duration::from_nanos(end - s.start_ns)
    }

    /// Runs `f` inside a span with no counts.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, trace);
        let r = f();
        self.close(id, Vec::new());
        r
    }

    /// Names of every boundary that has at least one span.
    pub fn boundaries(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{}}}}}{sep}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns, attrs.join(", ")
            );
        }
        out.push(']');
        out
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Sum of `image` span durations up to the halt (new + load + slices).
    pub wall: Duration,
    /// Sum over slices of slice time minus the run thread's JIT stall.
    pub self_time: Duration,
    /// Host instructions the traced slices executed.
    pub host_insns: u64,
    /// Tier timers summed over images.
    pub tier: TierTimers,
    /// Per-image time to first region install, ms (images that installed).
    pub first_install_ms: Vec<f64>,
    /// Run-thread JIT phase timers summed over images.
    pub phases: PhaseTimers,
    /// Images that failed.
    pub failed: usize,
    /// Images attempted.
    pub attempted: usize,
}

/// Runs one image in slices inside an `image` span tree and adds its
/// totals to `acc`.
fn traced_image(
    tr: &mut Tracer,
    trace: usize,
    img: &Image,
    want: &run::Outcome,
    acc: &mut TracedPass,
) {
    let root = tr.open("image", None, trace);
    let start = Instant::now();
    let mut c = tr.span("engine.new", Some(root), trace, || {
        Captive::new(run::captive_config(img))
    });
    tr.span("engine.load", Some(root), trace, || run::load(&mut c, img));
    let mut used = 0u64;
    let mut before = c.stats();
    let exit = loop {
        let stall_before = c.tier_timers().run_thread_stall;
        let id = tr.open("engine.run.slice", Some(root), trace);
        let exit = c.run(SLICE_BLOCKS);
        let after = c.stats();
        let stall = c.tier_timers().run_thread_stall - stall_before;
        let dur = tr.close(
            id,
            vec![
                ("blocks", after.blocks - before.blocks),
                ("cycles", after.cycles - before.cycles),
                ("host_insns", after.host_insns - before.host_insns),
                ("translations", after.translations - before.translations),
                ("jit_stall_ns", stall.as_nanos() as u64),
            ],
        );
        acc.self_time += dur.saturating_sub(stall);
        acc.host_insns += after.host_insns - before.host_insns;
        before = after;
        used += SLICE_BLOCKS;
        if exit != RunExit::BudgetExhausted || used >= BLOCK_BUDGET {
            break exit;
        }
    };
    let wall = start.elapsed();
    let failure = tr.span("engine.check", Some(root), trace, || {
        let got = run::captive_outcome(&mut c);
        run::judge(&exit, wall, &got, want)
    });
    tr.close(root, Vec::new());
    acc.wall += wall;
    acc.attempted += 1;
    if let Some(f) = failure {
        eprintln!("{} traced: {f:?}", img.name);
        acc.failed += 1;
    }
    let t = c.tier_timers();
    acc.tier.snapshot_build += t.snapshot_build;
    acc.tier.worker_wall += t.worker_wall;
    if let Some(d) = t.first_install {
        acc.first_install_ms.push(d.as_secs_f64() * 1e3);
    }
    acc.phases.merge(&c.timers);
}

/// One traced pass over every image; a panicking engine counts as failed.
pub fn traced_pass(tr: &mut Tracer, first_trace: usize, setup: &Setup) -> TracedPass {
    let mut acc = TracedPass::default();
    for (i, (img, r)) in setup.images.iter().zip(&setup.refs).enumerate() {
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            traced_image(tr, first_trace + i, img, &r.outcome, &mut acc)
        }));
        if ok.is_err() {
            eprintln!("{} traced: {:?}", img.name, Failure::Panic);
            acc.attempted += 1;
            acc.failed += 1;
        }
    }
    acc
}

/// Results of the layer-isolation pass.
#[derive(Debug, Clone, Default)]
pub struct Isolation {
    /// Microseconds per `translate_block` call.
    pub translate_us: Vec<f64>,
    /// Encoded host bytes over all translated blocks.
    pub code_bytes: u64,
    /// Guest instructions over all translated blocks.
    pub guest_insns: u64,
}

/// Block entries the reference executed in `img`, in address order.
pub fn executed_entries(img: &Image) -> Vec<u64> {
    let mut q = run::reference_engine(img);
    q.per_block_stats = true;
    q.run(BLOCK_BUDGET);
    let mut pcs: Vec<u64> = q
        .region_profiles()
        .keys()
        .filter(|k| k.phys == k.virt)
        .map(|k| k.virt)
        .collect();
    pcs.sort_unstable();
    pcs
}

/// Re-translates every executed block entry of every image on a fresh
/// engine, timing each `captive::translator::translate_block` call from
/// outside.  `entries[i]` are the entries of `setup.images[i]`.
pub fn isolation_pass(
    tr: &mut Tracer,
    first_trace: usize,
    setup: &Setup,
    entries: &[Vec<u64>],
) -> Isolation {
    let isa = guest_aarch64::Aarch64Isa;
    let rules = RuleTable::full();
    let mut iso = Isolation::default();
    // Translate exactly as the measured engine's run thread does.
    let cfg = CaptiveConfig::default();
    for (i, (img, pcs)) in setup.images.iter().zip(entries).enumerate() {
        let trace = first_trace + i;
        let root = tr.open("layer.isolate", None, trace);
        let mut c = Captive::new(run::captive_config(img));
        run::load(&mut c, img);
        let mut timers = PhaseTimers::default();
        for &pc in pcs {
            let id = tr.open("dbt.translate_block", Some(root), trace);
            let region = captive::translator::translate_block(
                &isa,
                &mut c.machine,
                &mut timers,
                pc,
                pc,
                cfg.max_block_insns,
                cfg.fp_mode,
                cfg.opt,
                cfg.promote,
                cfg.idioms.then_some(&rules),
            );
            let dur = tr.close(
                id,
                vec![
                    ("guest_insns", region.guest_insns as u64),
                    ("encoded_bytes", region.encoded_bytes as u64),
                ],
            );
            iso.translate_us.push(dur.as_secs_f64() * 1e6);
            iso.code_bytes += region.encoded_bytes as u64;
            iso.guest_insns += region.guest_insns as u64;
        }
        tr.close(root, vec![("entries", pcs.len() as u64)]);
    }
    iso
}
