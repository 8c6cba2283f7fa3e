//! Extension ablation (§9, "Prefill-decode disaggregation"): colocated vs
//! disaggregated fleets with first-class instance roles.
//!
//! Every deployment replays the *same* multi-turn conversation trace through the
//! same simulator; only the fleet's role assignment and the inter-node fabric
//! differ:
//!
//! * **colocated** — every instance runs both phases (the published engine).
//!   Running decode batches interleave with incoming prefills, so TTFT pays the
//!   interference; no KV ever crosses the fabric.
//! * **disaggregated P:D** — `P` prefill-role instances take every arrival,
//!   and at first token the whole reserved KV chain is handed off over the
//!   modelled [`NetLinkKind`] fabric to one of `D` decode-role instances, which
//!   prices the decode schedule.  TTFT no longer pays decode interference, but
//!   every request pays the handoff transfer and the decode side's batching.
//!
//! The sweep crosses two fabric presets (commodity 25 GbE TCP vs 100 Gb/s RDMA)
//! with two prefill:decode ratios on a four-GPU fleet (3:1 and 2:2), reporting
//! mean TTFT / TPOT / JCT, p99 JCT, and the handoff plane's byte volume.  The
//! RDMA 2:2 run additionally exports the per-window time series
//! (`results/ablation_disaggregation_windows.prom`) so the fleet's phase split
//! can be inspected over time.
//!
//! Pass `--smoke` to run a single fabric preset on a smaller trace and skip the
//! exports (the CI rot-check mode).

use gpu::{GpuKind, HardwareSetup, LinkKind, NetLinkKind};
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineKind, RunReport};
use prefillonly_bench::{print_routing_jct, print_table, write_json, write_text};
use serde::Serialize;
use workload::{conversation_trace, ConversationSpec, InstanceRole};

#[derive(Debug, Serialize)]
struct DisaggRow {
    fabric: String,
    deployment: String,
    mean_ttft_secs: f64,
    mean_tpot_secs: f64,
    mean_jct_secs: f64,
    p99_jct_secs: f64,
    handed_off_requests: u64,
    handoff_bytes: u64,
}

/// A four-GPU single-node fleet of the paper's low-end tier: four single-GPU
/// engine instances, enough slots to split 3:1 or 2:2.
fn l4_quad() -> HardwareSetup {
    HardwareSetup {
        name: "4x L4 (PCIe)",
        gpu: GpuKind::L4,
        num_gpus: 4,
        link: LinkKind::PcieGen4,
    }
}

fn fabric_name(link: NetLinkKind) -> &'static str {
    match link {
        NetLinkKind::Tcp25G => "TCP 25G",
        NetLinkKind::Rdma100G => "RDMA 100G",
        NetLinkKind::Rdma400G => "RDMA 400G",
        NetLinkKind::Disabled => "disabled",
    }
}

fn main() {
    // `--smoke`: one fabric preset, a smaller trace, no exports — the CI
    // rot-check mode.
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    println!("Extension ablation: colocated vs disaggregated prefill/decode fleets\n");

    let spec = ConversationSpec {
        num_sessions: if smoke { 4 } else { 12 },
        turns_per_session: 3,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 2_048,
        turn_input_tokens: 256,
        decode_tokens_per_turn: 128,
        think_time_ms: 2_000,
    };
    let session_qps = 1.0;
    let trace = conversation_trace(&spec, session_qps, 9);

    let base = EngineConfig::new(
        ModelPreset::Llama31_8b,
        l4_quad(),
        EngineKind::prefillonly_default(),
        spec.max_request_tokens(),
    )
    .with_net_propagation_ms(1_000);

    // Role assignments on the four slots: every instance colocated, or the fleet
    // split prefill-heavy (3:1) / even (2:2).
    let deployments: Vec<(&str, Vec<InstanceRole>)> = vec![
        ("colocated 4:0", vec![InstanceRole::Colocated; 4]),
        (
            "disaggregated 3:1",
            vec![
                InstanceRole::Prefill,
                InstanceRole::Prefill,
                InstanceRole::Prefill,
                InstanceRole::Decode,
            ],
        ),
        (
            "disaggregated 2:2",
            vec![
                InstanceRole::Prefill,
                InstanceRole::Prefill,
                InstanceRole::Decode,
                InstanceRole::Decode,
            ],
        ),
    ];
    let mut fabrics = vec![NetLinkKind::Tcp25G, NetLinkKind::Rdma100G];
    if smoke {
        fabrics = vec![NetLinkKind::Rdma100G];
    }

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut routing_reports: Vec<(String, RunReport)> = Vec::new();
    let mut window_dump: Option<String> = None;
    for &fabric in &fabrics {
        for (deployment, roles) in &deployments {
            let mut config = base.clone().with_net_link(fabric).with_roles(roles.clone());
            // The RDMA 2:2 run doubles as the time-series specimen.
            let dump_windows =
                fabric == NetLinkKind::Rdma100G && *deployment == "disaggregated 2:2" && !smoke;
            if dump_windows {
                config = config.with_window_metrics();
            }
            let report = Cluster::new(&config)
                .run(&trace, session_qps)
                .expect("conversation trace feasible");
            assert_eq!(report.records.len() as u64, spec.num_requests());
            if dump_windows {
                window_dump = Some(report.prometheus_window_series());
            }

            rows.push(vec![
                fabric_name(fabric).to_string(),
                (*deployment).to_string(),
                format!("{:.3}", report.mean_ttft_secs()),
                format!("{:.2}", report.mean_tpot_secs() * 1_000.0),
                format!("{:.3}", report.mean_latency_secs()),
                format!("{:.3}", report.p99_latency_secs()),
                report.handed_off_requests().to_string(),
                format!("{:.1}", report.handoff_bytes() as f64 / (1 << 20) as f64),
            ]);
            json_rows.push(DisaggRow {
                fabric: fabric_name(fabric).to_string(),
                deployment: (*deployment).to_string(),
                mean_ttft_secs: report.mean_ttft_secs(),
                mean_tpot_secs: report.mean_tpot_secs(),
                mean_jct_secs: report.mean_latency_secs(),
                p99_jct_secs: report.p99_latency_secs(),
                handed_off_requests: report.handed_off_requests(),
                handoff_bytes: report.handoff_bytes(),
            });
            routing_reports.push((format!("{} / {deployment}", fabric_name(fabric)), report));
        }
    }

    print_table(
        &[
            "fabric",
            "deployment",
            "mean TTFT (s)",
            "mean TPOT (ms)",
            "mean JCT (s)",
            "p99 JCT (s)",
            "handoffs",
            "handoff MB",
        ],
        &rows,
    );
    for (label, report) in &routing_reports {
        print_routing_jct(label, report);
    }
    if smoke {
        println!("\n--smoke: single fabric, exports skipped.");
    } else {
        write_json("ablation_disaggregation", &json_rows);
        if let Some(prom) = window_dump {
            write_text("ablation_disaggregation_windows", "prom", &prom);
        }
    }

    println!();
    println!("Reading: disaggregation buys its TTFT win by keeping running decode batches out");
    println!("of the prefill slots' way, and pays for it in handoff bytes across the fabric —");
    println!("commodity TCP stretches the transfer enough to show up in JCT, while the even");
    println!("2:2 split trades prefill throughput for decode headroom versus 3:1.");
}
