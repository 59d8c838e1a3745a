//! `perfbench --workload <steady|cold|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! separate traced run.  Records and spans are written under `out/` in this
//! package's directory.

use perfbench::bench::{self, Pass};
use perfbench::gen::Workload;
use perfbench::record::RecordSet;
use perfbench::stats::{median, samples_for_tail, tail_percentile};
use perfbench::trace::{self, Tracer};
use perfbench::{metric, peak_rss_mb, result_json, Metric};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measuring stops at this point even if the sample counts are short, so a
/// run always ends inside the 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_out(name: &str, body: &str) -> Result<(), String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let (setup, setup_s) = bench::timed_setups(w, a.seed)?;
    let mut records = RecordSet::default();
    // Enough image samples that the p90 has ten beyond it.
    let need = samples_for_tail(90.0);
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = bench::measure_pass(w, a.seed, passes.len(), &setup, &mut records)?;
        eprintln!(
            "pass {}: {:.3} s, {:.1} ms JIT stall, {} cycles, {} failed",
            passes.len(),
            p.wall_s(),
            p.stall_ms.iter().sum::<f64>(),
            p.cycles,
            p.failed
        );
        passes.push(p);
        let samples: usize = passes
            .iter()
            .map(|p| p.image_ms.iter().flatten().count())
            .sum();
        let t = start.elapsed();
        if (t >= budget && passes.len() >= 2 && samples >= need) || t >= HARD_STOP {
            break;
        }
    }
    if passes.iter().any(|p| p.counts != passes[0].counts) {
        eprintln!("warning: modeled counters differ between passes");
    }
    write_out(
        &format!("records-{}-{}.json", w.name(), a.seed),
        &records.to_json(),
    )?;
    let image_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.image_ms.iter().flatten().copied())
        .collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let host = bench::host_time(&setup, &passes);
    let attempted = passes.len() * setup.images.len();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    eprintln!(
        "{} seed {}: {} passes, {} image samples, {} records, failed {failed}/{attempted}",
        w.name(),
        a.seed,
        passes.len(),
        image_ms.len(),
        records.len()
    );
    let metrics = vec![
        metric(
            "guest_mips",
            host.ref_insns as f64 / host.wall_s / 1e6,
            "MIPS",
        ),
        metric("modeled_cycles", per_pass(&|p| p.cycles as f64), "cycles"),
        metric("modeled_speedup_goto_tb", per_pass(&|p| p.speedup), "x"),
        metric("image_ms_p50", median(&image_ms), "ms"),
        metric(
            "image_ms_p90",
            tail_percentile(&image_ms, 90.0).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("jit_stall_ms", host.stall_ms, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}

fn traced(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let (setup, _) = bench::timed_setups(w, a.seed)?;
    let entries: Vec<Vec<u64>> = setup.images.iter().map(trace::executed_entries).collect();
    let mut records = RecordSet::default();
    let mut tr = Tracer::default();
    let (mut untraced_ms, mut traced_ms, mut self_ns_per_insn) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut phase_ms: [Vec<f64>; 4] = Default::default();
    let (mut tier_worker_ms, mut tier_snapshot_ms) = (Vec::new(), Vec::new());
    let mut translate_us = Vec::new();
    let (mut first, mut iso_first) = (None, None);
    let (mut attempted, mut failed) = (0usize, 0usize);
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut pass = 0usize;
    loop {
        let p = bench::measure_pass(w, a.seed, pass, &setup, &mut records)?;
        untraced_ms.push(p.wall_s() * 1e3);
        attempted += setup.images.len();
        failed += p.failed;
        let base = pass * setup.images.len();
        let tp = trace::traced_pass(&mut tr, base, &setup);
        let iso = trace::isolation_pass(&mut tr, base, &setup, &entries);
        attempted += tp.attempted;
        failed += tp.failed;
        traced_ms.push(ms(tp.wall));
        self_ns_per_insn.push(tp.self_time.as_nanos() as f64 / tp.host_insns.max(1) as f64);
        for (v, d) in phase_ms.iter_mut().zip([
            tp.phases.decode,
            tp.phases.translate,
            tp.phases.regalloc,
            tp.phases.encode,
        ]) {
            v.push(ms(d));
        }
        tier_worker_ms.push(ms(tp.tier.worker_wall));
        tier_snapshot_ms.push(ms(tp.tier.snapshot_build));
        translate_us.extend(iso.translate_us.iter().copied());
        first.get_or_insert((tp, p));
        iso_first.get_or_insert(iso);
        pass += 1;
        let t = start.elapsed();
        if t >= budget || t >= HARD_STOP {
            break;
        }
    }
    let (tp, p) = first.expect("at least one traced pass");
    let iso = iso_first.expect("at least one isolation pass");
    write_out(
        &format!("spans-{}-{}.json", w.name(), a.seed),
        &tr.to_json(),
    )?;
    write_out(
        &format!("records-{}-{}-traced.json", w.name(), a.seed),
        &records.to_json(),
    )?;
    let boundaries = tr.boundaries();
    eprintln!(
        "{} seed {} traced: {pass} passes, {} spans over {:?}, {} translate_block samples",
        w.name(),
        a.seed,
        tr.spans.len(),
        boundaries,
        translate_us.len()
    );
    // Counts come from the untraced pass: slicing perturbs them.
    let s = &p.stats;
    let ref_insns: u64 = setup.refs.iter().map(|r| r.guest_insns).sum();
    let metrics: Vec<Metric> = vec![
        metric(
            "failed_frac",
            ratio(failed as u64, attempted as u64),
            "fraction",
        ),
        metric(
            "captive.guest_insns_ratio",
            ratio(s.guest_insns, ref_insns),
            "x",
        ),
        metric(
            "hvm.machine.host_insns_per_guest_insn",
            ratio(s.host_insns, ref_insns),
            "insns",
        ),
        metric("hvm.machine.helper_calls", p.helper_calls as f64, "count"),
        metric("hvm.machine.tlb_misses", p.tlb_misses as f64, "count"),
        metric(
            "hvm.machine.ns_per_host_insn",
            median(&self_ns_per_insn),
            "ns",
        ),
        metric("captive.dispatch.slow", s.slow_dispatches as f64, "count"),
        metric(
            "captive.dispatch.chained",
            s.chained_transfers as f64,
            "count",
        ),
        metric(
            "captive.dispatch.region_transfers",
            s.region_transfers as f64,
            "count",
        ),
        metric(
            "captive.dispatch.backedges",
            s.backedge_transfers as f64,
            "count",
        ),
        metric(
            "captive.dispatch.slow_per_kblock",
            1e3 * ratio(s.slow_dispatches, s.blocks),
            "count",
        ),
        metric(
            "captive.itlb.hit_rate",
            ratio(s.itlb_hits, s.itlb_hits + s.itlb_misses),
            "fraction",
        ),
        metric(
            "captive.dtlb.hit_rate",
            ratio(s.dtlb_hits, s.dtlb_hits + s.dtlb_misses),
            "fraction",
        ),
        metric(
            "captive.runtime.guest_exceptions",
            s.guest_exceptions as f64,
            "count",
        ),
        metric("captive.runtime.irqs", s.irqs_delivered as f64, "count"),
        metric("dbt.translate_block_us_p50", median(&translate_us), "us"),
        metric(
            "dbt.translate_block_us_p90",
            tail_percentile(&translate_us, 90.0).unwrap_or(f64::NAN),
            "us",
        ),
        metric("dbt.translations", p.translated_blocks as f64, "count"),
        metric(
            "dbt.code_bytes_per_guest_insn",
            ratio(iso.code_bytes, iso.guest_insns),
            "bytes",
        ),
        metric("dbt.phase.decode_ms", median(&phase_ms[0]), "ms"),
        metric("dbt.phase.translate_ms", median(&phase_ms[1]), "ms"),
        metric("dbt.phase.opt_regalloc_ms", median(&phase_ms[2]), "ms"),
        metric("dbt.phase.encode_ms", median(&phase_ms[3]), "ms"),
        metric(
            "dbt.opt.elided_dyn_insns",
            s.elided_dyn_insns as f64,
            "count",
        ),
        metric("dbt.opt.idioms_fused", s.opt_idioms_fused as f64, "count"),
        metric(
            "dbt.opt.promoted_slots",
            s.opt_promoted_slots as f64,
            "count",
        ),
        metric(
            "captive.formation.regions_formed",
            s.regions_formed as f64,
            "count",
        ),
        metric(
            "captive.formation.failures",
            s.formation_failures as f64,
            "count",
        ),
        metric(
            "captive.formation.success_ratio",
            ratio(s.regions_formed, s.regions_formed + s.formation_failures),
            "fraction",
        ),
        metric(
            "captive.formation.loop_regions",
            s.loop_regions_formed as f64,
            "count",
        ),
        metric("captive.tier.requests", s.tier1_requests as f64, "count"),
        metric(
            "captive.tier.useful_ratio",
            ratio(s.regions_installed_async, s.tier1_requests),
            "fraction",
        ),
        metric(
            "captive.tier.stale_discards",
            s.stale_discards as f64,
            "count",
        ),
        metric("captive.tier.worker_ms", median(&tier_worker_ms), "ms"),
        metric("captive.tier.snapshot_ms", median(&tier_snapshot_ms), "ms"),
        metric(
            "captive.tier.first_install_ms_p50",
            median(&tp.first_install_ms),
            "ms",
        ),
        metric(
            "dbt.reuse.hit_ratio",
            ratio(s.reuse_hits, s.reuse_hits + s.reuse_misses),
            "fraction",
        ),
        metric(
            "dbt.cache.translations_per_pass",
            s.translations as f64,
            "count",
        ),
        metric("dbt.cache.regions_live", s.regions_live as f64, "count"),
        metric("dbt.cache.bytes_live", s.bytes_live as f64, "bytes"),
        metric("hvm.event.irqs_delivered", s.irqs_delivered as f64, "count"),
        metric("hvm.event.timer_irqs", s.timer_irqs as f64, "count"),
        metric(
            "hvm.virtio.completions",
            s.virtio_completions as f64,
            "count",
        ),
        metric("hvm.virtio.dma_bytes", s.virtio_dma_bytes as f64, "bytes"),
        metric(
            "hvm.virtio.external_invalidations",
            s.external_invalidations as f64,
            "count",
        ),
        metric(
            "trace.overhead_ms",
            median(&traced_ms) - median(&untraced_ms),
            "ms",
        ),
        metric("trace.boundaries", boundaries.len() as f64, "count"),
    ];
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}

fn main() {
    let result = parse_args().and_then(|a| if a.trace { traced(&a) } else { end_to_end(&a) });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
