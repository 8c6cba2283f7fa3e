//! Criterion bench: one scheduling step (Algorithm 1) as a function of the waiting-
//! queue depth.  Continuous JCT calibration re-scores every waiting request per step,
//! so its cost must stay linear and small even with hundreds of queued requests.
//!
//! The `calibrated_probe` group is the tentpole measurement: a calibrated select over
//! a *real* KV-cache-backed probe, comparing the seed's full hash-chain walk per
//! request per step against the memoised [`kvcache::ProbeCache`] when the cache
//! contents are unchanged between steps (`incremental`), and the memoised probe
//! right after one eviction.  After the eviction of an unrelated block
//! (`after_eviction`) every memoised result survives, since the eviction watermark
//! stays below every memoised prefix's lowest queue stamp; after the eviction of one
//! cohort's prefix tail (`after_prefix_eviction`) that cohort's requests re-walk,
//! and the shared-prefix checkpoint memo walks its prefix once.

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kvcache::ProbeCache;
use prefillonly_bench::hotpath::{
    calibrated_queue as queue, cohort_cache, AfterEviction, FullWalkProbe, MemoProbe, Victim,
};
use scheduler::{
    CacheProbe, FcfsPolicy, JctEstimator, SchedulingPolicy, SrjfPolicy, WaitingRequest,
};
use simcore::SimTime;

/// A probe with a fixed per-request answer; its cost approximates a hash-chain walk
/// that misses on the first block.
struct ConstantProbe;

impl CacheProbe for ConstantProbe {
    fn cached_tokens(&self, request: &WaitingRequest) -> u64 {
        if request.id.is_multiple_of(3) {
            request.total_tokens / 2
        } else {
            0
        }
    }
}

fn bench_select(c: &mut Criterion) {
    let estimator = JctEstimator::proxy(1.5e-4, 0.02);
    let fcfs = FcfsPolicy;
    let srjf = SrjfPolicy::classic(estimator);
    let calibrated = SrjfPolicy::with_calibration(estimator, 500.0);
    let now = SimTime::from_secs(30);
    let probe = ConstantProbe;

    let mut group = c.benchmark_group("scheduler_select");
    for depth in [16usize, 128, 1024] {
        let q = queue(depth);
        group.bench_with_input(BenchmarkId::new("fcfs", depth), &q, |b, q| {
            b.iter(|| std::hint::black_box(fcfs.select(q, now, &probe)))
        });
        group.bench_with_input(BenchmarkId::new("srjf", depth), &q, |b, q| {
            b.iter(|| std::hint::black_box(srjf.select(q, now, &probe)))
        });
        group.bench_with_input(BenchmarkId::new("srjf_calibrated", depth), &q, |b, q| {
            b.iter(|| std::hint::black_box(calibrated.select(q, now, &probe)))
        });
    }
    group.finish();
}

/// Calibrated select against a real KV cache: seed full-walk probe vs the incremental
/// memoised probe, with the cache unchanged between steps, and the memoised probe
/// right after one eviction.
fn bench_calibrated_probe(c: &mut Criterion) {
    let estimator = JctEstimator::proxy(1.5e-4, 0.02);
    let calibrated = SrjfPolicy::with_calibration(estimator, 500.0);
    let now = SimTime::from_secs(30);

    let mut group = c.benchmark_group("calibrated_probe");
    for depth in [64usize, 512] {
        let q = queue(depth);
        let (kv, hashes) = cohort_cache(&q, now);

        let full = FullWalkProbe {
            kv: &kv,
            hashes: &hashes,
        };
        group.bench_with_input(BenchmarkId::new("full_walk", depth), &q, |b, q| {
            b.iter(|| std::hint::black_box(calibrated.select(q, now, &full)))
        });

        let memo = RefCell::new(ProbeCache::new());
        let incremental = MemoProbe {
            kv: &kv,
            hashes: &hashes,
            memo: &memo,
        };
        group.bench_with_input(BenchmarkId::new("incremental", depth), &q, |b, q| {
            b.iter(|| std::hint::black_box(calibrated.select(q, now, &incremental)))
        });
    }

    // One select right after one eviction, with the probe memo warmed before it:
    // of an unrelated block (every memoised result survives) or of one cohort's
    // prefix tail (that cohort re-walks).  Copy and eviction are untimed.
    let q = queue(512);
    for (name, victim) in [
        ("after_eviction", Victim::Unrelated),
        ("after_prefix_eviction", Victim::PrefixTail),
    ] {
        let scenario = AfterEviction::new(&calibrated, &q, now, victim);
        group.bench_with_input(BenchmarkId::new(name, 512), &q, |b, q| {
            b.iter_with_setup(
                || scenario.sample(now),
                |(kv, memo)| {
                    let probe = MemoProbe {
                        kv: &kv,
                        hashes: &scenario.hashes,
                        memo: &memo,
                    };
                    std::hint::black_box(calibrated.select(q, now, &probe));
                    (kv, memo)
                },
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_select, bench_calibrated_probe);
criterion_main!(benches);
