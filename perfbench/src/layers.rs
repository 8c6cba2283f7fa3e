//! The outside-in layer trace: every per-layer figure is taken by timing calls
//! into a layer's public API from here, never by instrumenting the crates.
//! The traced replay and every probe use the run's first trace (trace 0).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kvcache::hash_token_blocks;
use prefillonly::{
    Cluster, EngineInstance, HandoffAdmission, KvHandoff, PrefillRequest, RoutingReason,
    RoutingScratch, RunReport,
};
use simcore::{EventQueue, SimDuration, SimTime};
use workload::{ArrivalStream, InstanceRole, StreamedArrival};

use crate::stats::{mean, median, percentile, ratio, Metrics};
use crate::workloads::Workload;

/// Arrivals per routing pass in the routing probe.
const ROUTING_BATCH: usize = 256;
/// Wall time the routing probe repeats its pass for.
const ROUTING_PROBE: Duration = Duration::from_millis(200);
/// Blocks each slot spills in the net-tier view probe.
const VIEW_SPILL_BLOCKS: usize = 100;

/// Wraps the replay's stream and times every pull the cluster makes.
pub struct TimedStream<'a> {
    inner: Box<dyn ArrivalStream + 'a>,
    pub pull: Duration,
    pub arrivals: u64,
    pub prompt_tokens: u64,
}

impl<'a> TimedStream<'a> {
    pub fn new(inner: Box<dyn ArrivalStream + 'a>) -> TimedStream<'a> {
        TimedStream {
            inner,
            pull: Duration::ZERO,
            arrivals: 0,
            prompt_tokens: 0,
        }
    }
}

impl ArrivalStream for TimedStream<'_> {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        let start = Instant::now();
        let next = self.inner.next_arrival();
        self.pull += start.elapsed();
        if let Some(streamed) = &next {
            self.arrivals += 1;
            self.prompt_tokens += streamed.arrival.template.prompt_tokens();
        }
        next
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Accumulated wall time and call count of one API entry point.
#[derive(Default)]
struct Calls {
    total: Duration,
    calls: u64,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        ratio(self.total.as_secs_f64() * 1e6, self.calls as f64)
    }
}

/// Everything the traced replay measured, besides its report.
pub struct TracedReplay {
    pub pull: Duration,
    pub arrivals: u64,
    pub prompt_tokens: u64,
    pub plain_wall_s: f64,
    pub traced_wall_s: f64,
}

/// The `workload`, `kvcache` hash, tier and view, `routing`, `instance`,
/// `scheduler`, `executor`, `cluster` and `sim` metrics of one traced replay.
/// `cluster` is the traced replay's cluster after it finished.
pub fn layer_metrics(
    workload: &Workload,
    cluster: &mut Cluster,
    report: &RunReport,
    traced: &TracedReplay,
    metrics: &mut Metrics,
) {
    metrics.add("workload.pull_s", traced.pull.as_secs_f64(), "s");
    metrics.count("workload.arrivals", traced.arrivals);
    metrics.count("workload.prompt_tokens", traced.prompt_tokens);

    let (hash_s, blocks_hashed) = hash_pass(workload);
    metrics.add("kvcache.hash_s", hash_s, "s");
    metrics.add(
        "kvcache.hash_share",
        ratio(hash_s, traced.plain_wall_s),
        "ratio",
    );
    metrics.count("kvcache.blocks_hashed", blocks_hashed);

    tier_metrics(cluster, report, metrics);

    let (routing_us, routing_share) = routing_probe(workload, cluster, report);
    metrics.add("routing.us_per_arrival", routing_us, "us");
    metrics.add("routing.prefix_share", routing_share, "ratio");

    instance_drive(workload, report, metrics);
    executor_reprice(workload, report, metrics);

    let epochs = report.windows.len() as u64;
    metrics.count("cluster.epochs", epochs);
    metrics.add(
        "cluster.us_per_epoch",
        ratio(traced.plain_wall_s * 1e6, epochs as f64),
        "us",
    );
    metrics.count("cluster.handoffs", report.handed_off_requests());
    metrics.add(
        "cluster.handoff_bytes",
        report.handoff_bytes() as f64,
        "bytes",
    );
    metrics.add(
        "cluster.trace_overhead_ratio",
        ratio(traced.traced_wall_s, traced.plain_wall_s),
        "ratio",
    );

    let ttfts = report.ttfts_secs();
    let jcts = report.latencies_secs();
    metrics.add("sim.ttft_p50_s", percentile(&ttfts, 50.0), "s");
    metrics.add("sim.ttft_p99_s", percentile(&ttfts, 99.0), "s");
    metrics.add("sim.jct_p50_s", percentile(&jcts, 50.0), "s");
    metrics.add("sim.jct_p99_s", percentile(&jcts, 99.0), "s");
    metrics.add(
        "sim.tpot_p50_ms",
        percentile(&report.tpots_secs(), 50.0) * 1e3,
        "ms",
    );
    metrics.add("sim.makespan_s", report.makespan.as_secs_f64(), "s");
}

/// Hashes every arrival of a fresh copy of the trace, timing only the hashing.
fn hash_pass(workload: &Workload) -> (f64, u64) {
    let block_size = workload.config.block_size;
    let mut input = workload.input(0);
    let mut stream = input.stream();
    let mut hashing = Calls::default();
    let mut blocks = 0u64;
    while let Some(streamed) = stream.next_arrival() {
        let tokens = &streamed.arrival.template.tokens;
        let chain = hashing.time(|| hash_token_blocks(tokens, block_size));
        blocks += std::hint::black_box(chain).len() as u64;
    }
    (hashing.total.as_secs_f64(), blocks)
}

/// Cache and tier counters of the replay, plus the cost of a net-tier view
/// spill per slot against the post-replay shared pool.
fn tier_metrics(cluster: &Cluster, report: &RunReport, metrics: &mut Metrics) {
    let cache = &report.cache;
    let offload = &report.offload;
    metrics.add("kvcache.gpu_hit_rate", report.cache_hit_rate(), "ratio");
    metrics.count("kvcache.gpu_evicted_blocks", cache.evicted_blocks);
    metrics.count("kvcache.cpu_spilled_blocks", offload.offloaded_blocks);
    metrics.count("kvcache.cpu_reloaded_blocks", offload.reloaded_blocks);
    metrics.count("kvcache.net_spilled_blocks", offload.net_offloaded_blocks);
    metrics.count("kvcache.net_filtered_blocks", offload.net_filtered_blocks);
    metrics.count("kvcache.net_evicted_blocks", offload.net_evicted_blocks);
    metrics.count("kvcache.net_reloaded_blocks", offload.net_reloaded_blocks);
    metrics.count(
        "kvcache.declined_reload_blocks",
        offload.declined_reload_blocks,
    );

    let (resident_share, view_spill_us) = match cluster.net_pool() {
        Some(pool) => {
            let block_size = cluster.config().block_size;
            let first = 3_000_000_000u32;
            let tokens: Vec<u32> =
                (first..first + (VIEW_SPILL_BLOCKS * block_size) as u32).collect();
            let chain = hash_token_blocks(&tokens, block_size);
            let at = SimTime::ZERO + report.makespan + SimDuration::from_secs(1);
            let mut spills = Calls::default();
            for slot in 0..cluster.instances().len() {
                let view = spills.time(|| {
                    let mut view = pool.view_at(at, slot);
                    view.offload(&chain, at);
                    view
                });
                drop(std::hint::black_box(view));
            }
            (
                ratio(pool.resident_blocks() as f64, pool.capacity_blocks() as f64),
                spills.mean_us(),
            )
        }
        None => (0.0, 0.0),
    };
    metrics.add("kvcache.net_resident_share", resident_share, "ratio");
    metrics.add("kvcache.view_spill_us", view_spill_us, "us");
}

/// Routing cost per arrival of one pass over the trace's first arrivals against
/// the warm post-replay cluster, and the share of the replay's requests that
/// cache-aware routing placed by prefix depth.
fn routing_probe(workload: &Workload, cluster: &mut Cluster, report: &RunReport) -> (f64, f64) {
    let mut input = workload.input(0);
    let batch: Vec<StreamedArrival> = {
        let mut stream = input.stream();
        std::iter::from_fn(|| stream.next_arrival())
            .take(ROUTING_BATCH)
            .collect()
    };
    let mut scratch = RoutingScratch::new();
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < 5 || started.elapsed() < ROUTING_PROBE {
        let pass = Instant::now();
        cluster.route_preview(&batch, &mut scratch);
        passes.push(pass.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        std::hint::black_box(scratch.decisions().len());
    }
    let prefix = report
        .records
        .iter()
        .filter(|r| r.routing == RoutingReason::DeepestPrefix)
        .count();
    (
        median(&passes),
        ratio(prefix as f64, report.records.len() as f64),
    )
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    Admit,
    Complete(u64),
    Handoff(usize),
    DecodeComplete(u64),
}

/// Drives slot 0's share of the replay through a fresh [`EngineInstance`] on
/// its own event queue, timing every call; on a disaggregated fleet the handoffs
/// it emits are admitted into a fresh decode instance.
fn instance_drive(workload: &Workload, report: &RunReport, metrics: &mut Metrics) {
    let config = &workload.config;
    // Which arrivals the replay routed to slot 0, and why.
    let slot0: HashMap<u64, RoutingReason> = report
        .records
        .iter()
        .filter(|r| r.instance == 0)
        .map(|r| (r.request_id, r.routing))
        .collect();
    let mut requests: Vec<PrefillRequest> = Vec::with_capacity(slot0.len());
    {
        let mut input = workload.input(0);
        let mut stream = input.stream();
        while let Some(streamed) = stream.next_arrival() {
            if let Some(&routing) = slot0.get(&streamed.id) {
                let template = streamed.arrival.template;
                requests.push(PrefillRequest {
                    id: streamed.id,
                    user_id: template.user_id,
                    tokens: template.tokens,
                    decode_tokens: template.decode_tokens,
                    allowed_outputs: Vec::new(),
                    arrival: streamed.arrival.arrival,
                    routing,
                });
            }
        }
    }

    let mut prefill = EngineInstance::new(config, 0);
    let decode_slot = (0..config.num_instances() as usize)
        .find(|&slot| config.role_of(slot) == InstanceRole::Decode);
    let mut decode = decode_slot.map(|slot| EngineInstance::new(config, slot));

    let (mut enqueue, mut try_start, mut complete, mut admit) = (
        Calls::default(),
        Calls::default(),
        Calls::default(),
        Calls::default(),
    );
    let mut depths = Vec::new();
    let mut starts = 0u64;
    let mut handoffs: Vec<Option<KvHandoff>> = Vec::new();
    let mut retry: Vec<usize> = Vec::new();
    let mut events = EventQueue::new();
    for (idx, request) in requests.iter().enumerate() {
        events.push(request.arrival, Event::Arrival(idx));
    }

    let mut pump = |instance: &mut EngineInstance,
                    now: SimTime,
                    events: &mut EventQueue<Event>,
                    try_start: &mut Calls| {
        loop {
            depths.push(instance.queue_len() as f64);
            match try_start.time(|| instance.try_start(now)) {
                Some(started) => {
                    starts += 1;
                    events.push(started.completion, Event::Complete(started.request_id));
                }
                None => break,
            }
        }
        if instance.queue_len() > 0 && instance.next_admission_time() > now {
            events.push(instance.next_admission_time(), Event::Admit);
        }
    };

    while let Some(scheduled) = events.pop() {
        let now = scheduled.at;
        match scheduled.event {
            Event::Arrival(idx) => {
                let request = requests[idx].clone();
                enqueue.time(|| prefill.enqueue(request, now));
                pump(&mut prefill, now, &mut events, &mut try_start);
            }
            Event::Admit => pump(&mut prefill, now, &mut events, &mut try_start),
            Event::Complete(id) => {
                complete.time(|| prefill.complete(id, now));
                for handoff in prefill.take_handoffs() {
                    events.push(handoff.ready_at, Event::Handoff(handoffs.len()));
                    handoffs.push(Some(handoff));
                }
                pump(&mut prefill, now, &mut events, &mut try_start);
            }
            Event::Handoff(idx) => {
                let decode = decode.as_mut().expect("handoffs imply a decode slot");
                let handoff = handoffs[idx].take().expect("each handoff is admitted once");
                match admit.time(|| decode.admit_handoff(handoff, now)) {
                    HandoffAdmission::Admitted(started) => {
                        events.push(
                            started.completion,
                            Event::DecodeComplete(started.request_id),
                        );
                    }
                    HandoffAdmission::Retry(handoff) => {
                        handoffs[idx] = Some(handoff);
                        retry.push(idx);
                    }
                    HandoffAdmission::Rejected => {}
                }
            }
            Event::DecodeComplete(id) => {
                let decode = decode
                    .as_mut()
                    .expect("decode completions imply a decode slot");
                complete.time(|| decode.complete(id, now));
                for idx in retry.drain(..) {
                    events.push(now, Event::Handoff(idx));
                }
            }
        }
    }

    metrics.add("instance.enqueue_us", enqueue.mean_us(), "us");
    metrics.add("instance.try_start_us", try_start.mean_us(), "us");
    metrics.add("instance.complete_us", complete.mean_us(), "us");
    metrics.add("instance.admit_handoff_us", admit.mean_us(), "us");
    metrics.count("instance.starts", starts);
    metrics.add("scheduler.queue_depth_mean", mean(&depths), "count");
    metrics.add(
        "scheduler.queue_depth_p99",
        percentile(&depths, 99.0),
        "count",
    );
}

/// Re-prices every record's prefill pass and decode steps with the deployment's
/// executor, timing the cost model alone.
fn executor_reprice(workload: &Workload, report: &RunReport, metrics: &mut Metrics) {
    let instance = EngineInstance::new(&workload.config, 0);
    let executor = instance.executor();
    let passes: Vec<(u64, u64)> = report
        .records
        .iter()
        .map(|r| {
            let prompt = r.total_tokens - r.decode_tokens;
            let resident =
                (r.cached_tokens + r.reloaded_tokens + r.net_reloaded_tokens).min(prompt);
            ((prompt - resident).max(1), resident)
        })
        .collect();
    let start = Instant::now();
    for &(new, resident) in &passes {
        std::hint::black_box(executor.forward_time(new, resident));
    }
    let forward_us = ratio(start.elapsed().as_secs_f64() * 1e6, passes.len() as f64);

    let mut steps = 0u64;
    let start = Instant::now();
    for r in &report.records {
        let prompt = r.total_tokens - r.decode_tokens;
        for step in 0..r.decode_tokens {
            std::hint::black_box(executor.decode_step_time(prompt + step, 1));
        }
        steps += r.decode_tokens;
    }
    let decode_us = ratio(start.elapsed().as_secs_f64() * 1e6, steps as f64);

    metrics.add("executor.forward_us", forward_us, "us");
    metrics.add("executor.decode_step_us", decode_us, "us");
    metrics.count("executor.decode_steps", steps);
}
