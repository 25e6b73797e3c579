//! What `BENCHMARK.json` declares, written once: the workloads, the
//! end-to-end metrics with their bounds, the per-layer metrics. The file
//! at the root of the repository is [`benchmark_json`] of these tables
//! (a test holds the two together), and a run prints exactly these names.

use crate::stats::Better::{Higher, Lower};
use crate::stats::{Better, Decl};

const fn d(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl { name, unit, better }
}

/// Seconds one run measures: eight stretches of three.
pub const RUN_SECONDS: u64 = 24;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "wire_paper",
        "paper-shape model behind NetServer on loopback, one closed-loop client: the forward pass is ~95% of a round trip",
    ),
    (
        "wire_tiny",
        "same path at d_model 8 on 48 packets, one CPU: per-request fixed cost, which GEMM or aggregation work must leave unchanged",
    ),
    (
        "batch_paper",
        "paper-shape engine behind an in-process Batcher fed 16 windows at a time: coalesced throughput, which batch-1 work can cost",
    ),
    (
        "train_paper",
        "traces to pre-trained, saved, reloaded, fine-tuned model at paper shape: recording tapes, backward, Adam, dataset and checkpoint I/O",
    ),
];

/// Share of the parent's median a metric may lose. All start at the
/// contract's maximum: on this shared two-CPU host the spread of ten
/// runs reaches a third of anything tighter (see README, "Bounds").
pub const BOUND: f64 = 0.25;

pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", Lower),
    d("ops_per_s", "1/s", Higher),
    d("lat_p50_us", "us", Lower),
    d("lat_p95_us", "us", Lower),
    d("peak_rss_mb", "MiB", Lower),
];

pub const PER_LAYER: &[Decl] = &[
    // ntt-net
    d("net.rtt_1conn_us", "us", Lower),
    d("net.codec_us", "us", Lower),
    d("net.transport_us", "us", Lower),
    d("net.frame_bytes", "bytes", Lower),
    d("net.connect_us", "us", Lower),
    d("net.shutdown_ms", "ms", Lower),
    // ntt-serve
    d("serve.submit_wait_us", "us", Lower),
    d("serve.batcher_overhead_us", "us", Lower),
    d("serve.predict_b1_us", "us", Lower),
    d("serve.predict_b16_us_per_window", "us", Lower),
    d("serve.queue_wait_p50_us", "us", Lower),
    d("serve.queue_wait_p99_us", "us", Lower),
    d("serve.service_p50_us", "us", Lower),
    d("serve.mean_batch", "count", Higher),
    d("serve.largest_batch", "count", Higher),
    d("serve.shed", "count", Lower),
    d("serve.deadline_exceeded", "count", Lower),
    d("serve.worker_restarts", "count", Lower),
    d("serve.session_predict_us", "us", Lower),
    d("serve.session_overhead_us", "us", Lower),
    d("serve.session_push_us", "us", Lower),
    d("serve.registry_load_ms", "ms", Lower),
    // ntt-core
    d("core.forward_residual_us", "us", Lower),
    d("core.pipeline_wall_s", "s", Lower),
    d("core.train_step_ms", "ms", Lower),
    d("core.eval_windows_per_s", "1/s", Higher),
    d("core.finetune_steps_per_s", "1/s", Higher),
    d("core.ckpt_save_ms", "ms", Lower),
    d("core.ckpt_load_ms", "ms", Lower),
    d("core.ckpt_bytes", "bytes", Lower),
    d("core.final_loss_bits", "bits", Lower),
    // ntt-nn
    d("nn.embed_us", "us", Lower),
    d("nn.agg_us", "us", Lower),
    d("nn.encoder_us", "us", Lower),
    d("nn.attention_us", "us", Lower),
    d("nn.head_us", "us", Lower),
    d("nn.fwd_bwd_b8_ms", "ms", Lower),
    d("nn.adam_step_ms", "ms", Lower),
    // ntt-tensor
    d("tensor.param_stage_us", "us", Lower),
    d("tensor.param_stage_bytes", "bytes", Lower),
    d("tensor.gemm_agg1_us", "us", Lower),
    d("tensor.gemm_agg1_gflops", "gflops", Higher),
    d("tensor.gemm_peak_gflops", "gflops", Higher),
    d("tensor.gemm_b16_embed_us", "us", Lower),
    d("tensor.gemm_b16_embed_seq_us", "us", Lower),
    d("tensor.attn_fused_us", "us", Lower),
    d("tensor.bwd_share", "share", Lower),
    d("tensor.gemm_calls_per_window", "count", Lower),
    d("tensor.attn_fused_calls_per_window", "count", Lower),
    d("tensor.tape_pool_misses", "count", Lower),
    d("tensor.arena_bytes", "bytes", Lower),
    // ntt-data
    d("data.featurize_us", "us", Lower),
    d("data.dataset_build_s", "s", Lower),
    d("data.batch_us", "us", Lower),
    d("data.train_windows", "count", Higher),
    // ntt-sim, ntt-fleet
    d("sim.pkt_per_s", "1/s", Higher),
    d("sim.events_per_pkt", "count", Lower),
    d("fleet.sweep_s", "s", Lower),
    d("fleet.pkt_per_s", "1/s", Higher),
    d("fleet.parallel_efficiency", "share", Higher),
    d("fleet.steals", "count", Lower),
    d("fleet.shard_retries", "count", Lower),
    // ntt-obs, ntt-chaos
    d("obs.span_on_ns", "ns", Lower),
    d("obs.counter_on_ns", "ns", Lower),
    d("chaos.site_off_ns", "ns", Lower),
    // the harness itself
    d("bench.ops_per_s_median_stretch", "1/s", Higher),
    d("bench.lat_p50_us_median_stretch", "us", Lower),
    d("bench.lat_p95_us_median_stretch", "us", Lower),
    d("bench.lat_p95_us_worst_stretch", "us", Lower),
    d("bench.lat_p99_us_pooled", "us", Lower),
    d("bench.cpu_us_per_op", "us", Lower),
    d("bench.trace_overhead_share", "share", Lower),
    d("bench.clock_ns", "ns", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    fn metric(d: &Decl, bound: Option<f64>) -> String {
        let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    }
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(|d| metric(d, Some(BOUND))).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|d| metric(d, None)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{check_declared, valid_name, MAX_END_TO_END, MAX_PER_LAYER};

    #[test]
    fn declared_lists_meet_the_contract() {
        check_declared(END_TO_END, MAX_END_TO_END).unwrap();
        check_declared(PER_LAYER, MAX_PER_LAYER).unwrap();
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        assert!(BOUND <= 0.25 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it: cargo run --manifest-path e2e/Cargo.toml -- --print-benchmark-json"
        );
    }
}
