//! Replay benchmark for the PrefillOnly cluster simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sticky_fleet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process replays one workload (see `workloads.rs`) through the public
//! `Cluster::try_new` + `Cluster::run_stream` path, as many times as fit in
//! `--seconds`, each replay on a fresh cluster and a fresh copy of its trace.
//! A run draws [`workloads::TRACES`] traces from its seed and replays them in
//! turn.  Every replay's output is checked (`checks.rs`): each arrival yields
//! exactly one record, timestamps are ordered, disaggregated requests are handed
//! off, and the records digest equals that of every other replay of the same
//! trace.
//!
//! `--trace 0` reports the end-to-end metrics: the median over all replays of
//! `run_stream` wall time per request, the median set-up time and the
//! process's peak resident memory.  `--trace 1` alternates plain
//! and traced replays of the first trace and reports the per-layer metrics
//! (`layers.rs`), measured from outside the crates.
//!
//! The last line of standard output is the result as one JSON object; the line
//! before it stamps the core count, commit, source fingerprint, failed share and
//! the in-run spread of every sampled metric.

mod checks;
mod layers;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prefillonly::{Cluster, EngineConfig, RunReport};
use workload::ArrivalStream;

use layers::{TimedStream, TracedReplay};
use stats::{json_number, median, spread, Metrics};
use workloads::{Workload, NAMES, TRACES};

/// Fewest replays of each trace a run measures, however long they take.
const MIN_REPLAYS_PER_TRACE: usize = 2;
/// Set-up samples are taken in batches between replays, so they see the same
/// machine conditions the replays do: each batch runs for this long...
const SETUP_BATCH: Duration = Duration::from_millis(50);
/// ...and takes at most this many samples.
const SETUP_BATCH_MAX: usize = 200;
/// Fewest set-up samples a run takes.
const MIN_SETUPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Times the set-up a replay pays — `Cluster::try_new` plus building the trace
/// generator (or materialising the dataset) — for one batch.
fn sample_setups(workload: &Workload, samples: &mut Vec<f64>, at_least: usize) {
    let end = Instant::now() + SETUP_BATCH;
    let mut taken = 0;
    while taken < at_least || (taken < SETUP_BATCH_MAX && Instant::now() < end) {
        let start = Instant::now();
        let built = (Cluster::try_new(&workload.config), workload.input(0));
        samples.push(start.elapsed().as_secs_f64());
        drop(std::hint::black_box(built));
        taken += 1;
    }
}

/// Pass/fail bookkeeping across a run's replays.
struct Verdicts {
    attempted: u64,
    failed: u64,
    /// The records digest of each trace's first replay.
    digests: Vec<Option<u64>>,
}

impl Verdicts {
    fn new() -> Verdicts {
        Verdicts {
            attempted: 0,
            failed: 0,
            digests: vec![None; TRACES as usize],
        }
    }

    /// Checks one replay's output; a failure is reported on standard error.
    fn record(
        &mut self,
        workload: &Workload,
        trace: u64,
        report: &RunReport,
        pulled: Option<u64>,
        exhausted: bool,
    ) {
        self.attempted += 1;
        let digest = checks::digest(report);
        let first = self.digests[trace as usize].get_or_insert(digest);
        let verdict = checks::check(
            report,
            workload.requests(),
            pulled,
            exhausted,
            workload.disaggregated(),
        )
        .and_then(|()| {
            if *first == digest {
                Ok(())
            } else {
                Err(format!(
                    "records digest {digest:016x} differs from {first:016x}"
                ))
            }
        });
        if let Err(problem) = verdict {
            self.failed += 1;
            eprintln!(
                "{}: replay {} of trace {trace} failed: {problem}",
                workload.name, self.attempted
            );
        }
    }
}

/// One checked replay.
struct Replay {
    report: RunReport,
    cluster: Cluster,
    wall_s: f64,
    /// With a timed stream: time spent pulling, arrivals and prompt tokens pulled.
    pulls: Option<(Duration, u64, u64)>,
}

/// Builds a fresh cluster and trace `trace`, then replays it through
/// `run_stream`; with `timed` the cluster's pulls go through a [`TimedStream`].
/// A configuration or feasibility error is fatal to the run.
fn replay(
    workload: &Workload,
    config: &EngineConfig,
    trace: u64,
    verdicts: &mut Verdicts,
    timed: bool,
) -> Result<Replay, String> {
    let mut cluster = Cluster::try_new(config).map_err(|e| format!("configuration: {e}"))?;
    let mut input = workload.input(trace);
    let stream = input.stream();
    let steal0 = steal_s();
    let (result, wall_s, pulls, exhausted) = if timed {
        let mut stream = TimedStream::new(stream);
        let start = Instant::now();
        let result = cluster.run_stream(&mut stream, workload.qps);
        let wall_s = start.elapsed().as_secs_f64();
        let exhausted = stream.next_arrival().is_none();
        let pulls = (stream.pull, stream.arrivals, stream.prompt_tokens);
        (result, wall_s, Some(pulls), exhausted)
    } else {
        let mut stream = stream;
        let start = Instant::now();
        let result = cluster.run_stream(&mut *stream, workload.qps);
        let wall_s = start.elapsed().as_secs_f64();
        (result, wall_s, None, stream.next_arrival().is_none())
    };
    let report = result.map_err(|e| format!("replay: {e}"))?;
    verdicts.record(workload, trace, &report, pulls.map(|p| p.1), exhausted);
    eprintln!(
        "{}: trace {trace} {} replay {wall_s:.3} s, {:.2} s stolen",
        workload.name,
        if timed { "traced" } else { "plain" },
        steal_s() - steal0
    );
    Ok(Replay {
        report,
        cluster,
        wall_s,
        pulls,
    })
}

/// CPU time the hypervisor took from this machine so far, summed over its
/// cores, in seconds (0 where unknown).  Printed per replay: on a shared host
/// it tells a slow replay from slow code.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a run reports: its metrics, its verdicts and the in-run spreads.
type Outcome = (Metrics, Verdicts, Vec<String>);

/// The end-to-end run: plain replays of each trace in turn until `seconds`
/// elapse, with a batch of set-up samples after each replay.
fn end_to_end(workload: &Workload, seconds: u64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut verdicts = Verdicts::new();
    let mut per_request_us = Vec::new();
    let mut setups = Vec::new();
    while per_request_us.len() < MIN_REPLAYS_PER_TRACE * TRACES as usize
        || Instant::now() < deadline
    {
        let trace = per_request_us.len() as u64 % TRACES;
        let replay = replay(workload, &workload.config, trace, &mut verdicts, false)?;
        per_request_us.push(replay.wall_s * 1e6 / workload.requests() as f64);
        drop(replay);
        sample_setups(workload, &mut setups, 1);
    }
    let missing = MIN_SETUPS.saturating_sub(setups.len());
    sample_setups(workload, &mut setups, missing);

    let mut metrics = Metrics::default();
    metrics.add("replay_us_per_request", median(&per_request_us), "us");
    metrics.add("setup_s", median(&setups), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    let spreads = vec![
        spread_entry("replay_us_per_request", &per_request_us),
        spread_entry("setup_s", &setups),
    ];
    Ok((metrics, verdicts, spreads))
}

/// The traced run: plain and traced replays of the first trace alternate until
/// `seconds` elapse, then the last traced replay's cluster and report feed the
/// layer probes.
fn traced(workload: &Workload, seconds: u64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let traced_config = workload.config.clone().with_window_metrics();
    let mut verdicts = Verdicts::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last = None;
    while traced_walls.len() < MIN_REPLAYS_PER_TRACE || Instant::now() < deadline {
        let plain = replay(workload, &workload.config, 0, &mut verdicts, false)?;
        plain_walls.push(plain.wall_s);
        drop(plain);
        let traced = replay(workload, &traced_config, 0, &mut verdicts, true)?;
        traced_walls.push(traced.wall_s);
        last = Some(traced);
    }
    let mut replay = last.expect("at least one traced replay");
    let (pull, arrivals, prompt_tokens) = replay.pulls.expect("traced replays time their pulls");
    let summary = TracedReplay {
        pull,
        arrivals,
        prompt_tokens,
        plain_wall_s: median(&plain_walls),
        traced_wall_s: median(&traced_walls),
    };
    let mut metrics = Metrics::default();
    layers::layer_metrics(
        workload,
        &mut replay.cluster,
        &replay.report,
        &summary,
        &mut metrics,
    );
    let spreads = vec![
        spread_entry("plain_replay_s", &plain_walls),
        spread_entry("traced_replay_s", &traced_walls),
    ];
    Ok((metrics, verdicts, spreads))
}

fn spread_entry(name: &str, samples: &[f64]) -> String {
    format!(
        "\"{name}\": {{\"samples\": {}, \"median\": {}, \"iqr_share\": {}}}",
        samples.len(),
        json_number(median(samples)),
        json_number(spread(samples))
    )
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|commit| commit.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and contents of every file under `roots`, in path
/// order: identifies the code measured even where git is not available.
fn source_fingerprint(roots: &[&str]) -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            let Ok(entries) = std::fs::read_dir(path) else {
                return;
            };
            for entry in entries.flatten() {
                walk(&entry.path(), files);
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in roots {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let hash = files.iter().fold(checks::FNV_OFFSET, |hash, file| {
        let hash = checks::fnv1a(hash, file.to_string_lossy().as_bytes());
        checks::fnv1a(hash, &std::fs::read(file).unwrap_or_default())
    });
    format!("{hash:016x}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("error: {problem}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let outcome = if args.trace {
        traced(&workload, args.seconds)
    } else {
        end_to_end(&workload, args.seconds)
    };
    let (metrics, verdicts, spreads) = match outcome {
        Ok(outcome) => outcome,
        Err(problem) => {
            eprintln!("error: {}: {problem}", workload.name);
            return ExitCode::FAILURE;
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {cores}, \
         \"commit\": \"{}\", \"source\": \"{}\", \"failed_share\": {}}}, \"spread\": {{{}}}}}",
        workload.name,
        args.seed,
        args.trace,
        git_commit(),
        source_fingerprint(&["Cargo.toml", "crates", "shims", "perfbench/src"]),
        json_number(stats::ratio(
            verdicts.failed as f64,
            verdicts.attempted as f64
        )),
        spreads.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdicts.failed == 0,
        verdicts.attempted,
        verdicts.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
