//! Self-tests of the benchmark: its generators, statistics, output check,
//! record keys and determinism.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{self, Setup};
use perfbench::gen::Workload;
use perfbench::record::{config_fingerprint, Record, RecordKey, RecordSet};
use perfbench::run;
use perfbench::stats::{median, percentile, samples_for_tail, tail_percentile, TAIL_SAMPLES};

/// The first `n` images of a workload with their references.
fn small_setup(w: Workload, seed: u64, n: usize) -> Setup {
    let images: Vec<_> = w.images(seed).into_iter().take(n).collect();
    let refs = images
        .iter()
        .map(|img| run::reference(img).expect("reference halts"))
        .collect();
    Setup { images, refs }
}

#[test]
fn generators_are_seed_deterministic_and_seeds_differ() {
    for w in Workload::ALL {
        let a = w.images(7);
        let b = w.images(7);
        let c = w.images(8);
        let words =
            |v: &[perfbench::gen::Image]| v.iter().map(|i| i.words.clone()).collect::<Vec<_>>();
        let names =
            |v: &[perfbench::gen::Image]| v.iter().map(|i| i.name.clone()).collect::<Vec<_>>();
        assert_eq!(words(&a), words(&b), "{}: same seed, same images", w.name());
        assert_eq!(names(&a), names(&b), "{}: same seed, same names", w.name());
        assert_eq!(
            a.iter().map(|i| i.irqs.clone()).collect::<Vec<_>>(),
            b.iter().map(|i| i.irqs.clone()).collect::<Vec<_>>()
        );
        assert_ne!(
            words(&a),
            words(&c),
            "{}: seeds 7 and 8 give the same images",
            w.name()
        );
        let mut unique = names(&a);
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            a.len(),
            "{}: image names must be unique",
            w.name()
        );
    }
}

#[test]
fn generators_keep_the_work_per_pass_fixed() {
    // The seed picks which work, not how much: image counts and lengths
    // that set the amount of work do not depend on it.
    for w in Workload::ALL {
        let a = w.images(1);
        let b = w.images(2);
        assert_eq!(a.len(), b.len(), "{}", w.name());
        if w != Workload::Steady {
            let len = |v: &[perfbench::gen::Image]| v.iter().map(|i| i.words.len()).sum::<usize>();
            assert_eq!(len(&a), len(&b), "{}", w.name());
        }
    }
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_the_tail() {
    for n in 1..400usize {
        let v: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        for p in [50.0, 90.0, 99.0] {
            match tail_percentile(&v, p) {
                Some(x) => {
                    let beyond = v.iter().filter(|&&s| s > x).count();
                    assert!(beyond >= TAIL_SAMPLES, "n={n} p={p}: only {beyond} beyond");
                    assert_eq!(x, percentile(&v, p));
                }
                None => assert!(n < samples_for_tail(p), "n={n} p={p} refused"),
            }
        }
    }
    assert_eq!(samples_for_tail(90.0), 100);
    assert_eq!(samples_for_tail(99.0), 1000);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn injected_reference_corruption_counts_as_failed() {
    let mut setup = small_setup(Workload::Churn, 3, 2);
    let mut records = RecordSet::default();
    let clean = bench::measure_pass(Workload::Churn, 3, 0, &setup, &mut records).unwrap();
    assert_eq!((clean.failed, clean.image_ms.len()), (0, 2));
    setup.refs[1].outcome.data_digest ^= 1;
    let bad = bench::measure_pass(Workload::Churn, 3, 1, &setup, &mut records).unwrap();
    assert_eq!(bad.failed, 1, "one corrupted digest, one failure");
    assert_eq!(
        bad.image_ms[1], None,
        "a failed image leaves the latency samples"
    );
    // The run's failed fraction counts it: 1 failure in 4 attempts.
    let passes = [clean, bad];
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let attempted: usize = passes.iter().map(|p| p.image_ms.len()).sum();
    assert_eq!((failed, attempted), (1, 4));
}

#[test]
fn back_to_back_passes_repeat_modeled_cycles_and_counts() {
    for (w, n) in [(Workload::Cold, 3), (Workload::Churn, 2)] {
        let setup = small_setup(w, 5, n);
        let mut records = RecordSet::default();
        let a = bench::measure_pass(w, 5, 0, &setup, &mut records).unwrap();
        let b = bench::measure_pass(w, 5, 1, &setup, &mut records).unwrap();
        assert_eq!(a.failed + b.failed, 0, "{}", w.name());
        assert_eq!(a.cycles, b.cycles, "{}: modeled cycles", w.name());
        assert_eq!(a.counts, b.counts, "{}: modeled counters", w.name());
    }
}

#[test]
fn record_set_refuses_duplicate_keys() {
    let cfg = captive::CaptiveConfig::default();
    let key = RecordKey {
        workload: "steady",
        seed: 1,
        config: config_fingerprint(&cfg),
        image: "401.bzip2#0@2".into(),
        pass: 0,
    };
    let rec = Record {
        cycles: 1,
        wall_ms: 1.0,
        ok: true,
    };
    let mut set = RecordSet::default();
    set.insert(key.clone(), rec.clone()).unwrap();
    assert!(set.insert(key.clone(), rec.clone()).is_err());
    // The same label under another configuration is a different record.
    let other = captive::CaptiveConfig {
        tiered: false,
        ..captive::CaptiveConfig::default()
    };
    assert_ne!(config_fingerprint(&cfg), config_fingerprint(&other));
    set.insert(
        RecordKey {
            config: config_fingerprint(&other),
            ..key
        },
        rec,
    )
    .unwrap();
    assert_eq!(set.len(), 2);
}

#[test]
fn host_time_averages_each_image_over_the_passes_it_passed() {
    let setup = small_setup(Workload::Churn, 3, 2);
    let mut records = RecordSet::default();
    let mut passes: Vec<_> = (0..3)
        .map(|i| bench::measure_pass(Workload::Churn, 3, i, &setup, &mut records).unwrap())
        .collect();
    // Image 1 failed in the second pass: its mean is over the other two.
    let walls = [
        [Some(5.0), Some(9.0)],
        [Some(3.0), None],
        [Some(4.0), Some(7.0)],
    ];
    let stalls = [[2.0, 6.0], [1.0, 8.0], [3.0, 7.0]];
    for ((p, w), s) in passes.iter_mut().zip(walls).zip(stalls) {
        p.image_ms = w.to_vec();
        p.stall_ms = s.to_vec();
    }
    let t = bench::host_time(&setup, &passes);
    assert_eq!(t.wall_s, (4.0 + 8.0) / 1e3);
    assert_eq!(t.stall_ms, 2.0 + 7.0);
    assert_eq!(
        t.ref_insns,
        setup.refs.iter().map(|r| r.guest_insns).sum::<u64>()
    );
}
