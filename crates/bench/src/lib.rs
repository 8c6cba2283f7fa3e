//! Experiment harness for the PrefillOnly reproduction.
//!
//! Every table and figure of the paper's evaluation section has a corresponding binary
//! in `src/bin/` (see DESIGN.md §4 for the index); this library holds the pieces they
//! share:
//!
//! * [`evaluation`] — the (model, hardware, workload) grid of Table 3 and the QPS-sweep
//!   driver behind Figures 6, 7 and 9, including the paper's methodology of measuring
//!   the saturation throughput first and then sweeping ¼×, ½×, 1×, 2×, 3×, 4× of it.
//! * [`output`] — fixed-width table printing and JSON export (every binary writes its
//!   series to `results/<experiment>.json` so EXPERIMENTS.md can reference them).
//! * [`hotpath`] — the shared scheduling-probe and KV pin/unpin scenarios measured
//!   by both the criterion benches and the `bench_baseline` emitter.
//! * [`scale`] — workload scaling: by default the binaries run a reduced copy of the
//!   Table 1 datasets so the whole suite finishes in minutes on a laptop; set
//!   `PREFILLONLY_FULL_EVAL=1` to replay the full-size datasets.
//! * [`parallel`] — deterministic fan-out of independent sweep points across OS
//!   threads; the fig6–fig11 grids run one `(engine, qps)` point per worker with
//!   result ordering identical to the sequential sweep.
//! * [`scenarios`] — e2e pressure scenarios shared between ablation binaries and
//!   the integration-test suite, so benchmarks and acceptance tests cannot drift
//!   apart.

pub mod evaluation;
pub mod hotpath;
pub mod output;
pub mod parallel;
pub mod scale;
pub mod scenarios;

pub use evaluation::{
    saturation_qps, sweep_all_engines, sweep_engines, EvalScenario, SweepPoint, QPS_MULTIPLIERS,
};
pub use output::{print_routing_jct, print_table, write_json, write_text, ResultsFile};
pub use parallel::map_parallel;
pub use scale::{scaled_credit_spec, scaled_post_spec, workload_scale};
pub use scenarios::{
    elastic_fleet_handoff, shared_prefix_fleet_pressure, ELASTIC_DRAIN_AT_MS, ELASTIC_FLEET_QPS,
    ELASTIC_JOIN_AT_MS, SHARED_PREFIX_FLEET_QPS,
};
