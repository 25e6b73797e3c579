//! The benchmark's import surface, as a tier-1 test.
//!
//! `e2e/` — the package `BENCHMARK.json` runs — sits outside the
//! workspace, so root `cargo test` never compiles it and a PR that
//! renames or re-types something it uses breaks the benchmark without a
//! single red test. This file names every workspace item `e2e/src/*.rs`
//! imports, with the `use` lines copied from there, and pins the free
//! functions and methods it calls to their exact fn-pointer types: the
//! PR that breaks the benchmark now fails to compile here. When `e2e`
//! starts using a new item, add it; nothing under `e2e/` reads this file.

#![allow(clippy::type_complexity)] // the file is a list of exact fn-pointer types

// The `use` lines of e2e/src/{probes,serving,train}.rs, verbatim.
use ntt_core::{
    evaluate, Aggregation, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy, OUT_SLOTS, ZONE_SLOTS,
};
use ntt_core::{Checkpoint, Experiment, FinetuneOpts, Pretrained, TrainConfig, TrainReport};
use ntt_data::{featurize_window, FeatureMask, Normalizer, PacketView, NUM_FEATURES};
use ntt_data::{RunData, TraceData};
use ntt_fleet::{FleetReport, SweepSpec};
use ntt_net::frame::{decode_body, encode_request, encode_response, Request, Response};
use ntt_net::{NetClient, NetConfig, NetError, NetServer};
use ntt_nn::{Adam, Head, Linear, LrSchedule, Module, MultiHeadAttention, TransformerEncoder};
use ntt_obs::MetricsSnapshot;
use ntt_serve::{BatchConfig, Batcher, InferenceEngine, ModelRegistry};
use ntt_serve::{InferenceSession, SessionConfig};
use ntt_sim::scenarios::{Scenario, ScenarioConfig};
use ntt_sim::SimTime;
use ntt_tensor::{kernels, splitmix64, Tape, TapePool, Tensor, Var};

use ntt_core::{EvalReport, Task};
use ntt_net::frame::{Frame, FrameError};
use ntt_tensor::{Param, ParamGrads};

/// Types `e2e` only names (constructs by literal, matches on, or holds
/// in a field): naming them here is the whole check.
#[allow(dead_code)] // a list of types, never constructed
struct Named(
    Aggregation,
    HeadTask<'static, DelayHead, ntt_data::DelayDataset>,
    Checkpoint,
    Experiment,
    FinetuneOpts,
    Pretrained,
    TrainConfig,
    TrainReport,
    FeatureMask,
    PacketView,
    RunData,
    TraceData,
    FleetReport,
    SweepSpec,
    Request,
    Response,
    NetClient,
    NetConfig,
    NetError,
    NetServer,
    LrSchedule,
    BatchConfig,
    Batcher,
    ModelRegistry,
    InferenceSession,
    SessionConfig,
    Scenario,
    ScenarioConfig,
    SimTime,
    [(); OUT_SLOTS + ZONE_SLOTS + NUM_FEATURES],
);

#[test]
fn free_functions_keep_their_signatures() {
    // The three kernels e2e/src/probes.rs times directly.
    let _: fn(&[f32], &[f32], &mut [f32], usize, usize, usize) = kernels::gemm_nn;
    // An identity now (kernels never spawn threads), kept only because
    // e2e/src/probes.rs still calls it.
    let _: fn(fn() -> u8) -> u8 = kernels::with_sequential;
    let _: fn(
        &[f32],
        &[f32],
        &[f32],
        f32,
        &mut [f32],
        Option<&mut [f32]>,
        usize,
        usize,
        usize,
        usize,
    ) = kernels::attn_fused_fwd;
    let _: fn(&mut u64) -> u64 = splitmix64;

    let _: fn(&Ntt, &dyn Task, usize, &ParStrategy) -> EvalReport = evaluate;
    let _: fn(&[PacketView], &Normalizer, FeatureMask, bool) -> Vec<f32> = featurize_window;
    let _: fn(&[u8]) -> Result<Frame, FrameError> = decode_body;
    let _: fn(&Request) -> Result<Vec<u8>, FrameError> = encode_request;
    let _: fn(&Response) -> Vec<u8> = encode_response;
    let _: fn() -> String = ntt_bench::report::host_context_json;
    let _: fn() -> MetricsSnapshot = ntt_obs::snapshot;
    let _: fn() -> bool = ntt_obs::enabled;
    let _: fn(&str) = ntt_chaos::maybe_delay;
    let _: fn(&MetricsSnapshot, &str) -> Option<u64> = MetricsSnapshot::counter;
}

#[test]
fn tensor_and_nn_methods_keep_their_signatures() {
    let _: fn() -> Tape = Tape::new;
    let _: fn() -> Tape = Tape::inference;
    let _: for<'t> fn(&'t Tape, Tensor) -> Var<'t> = Tape::input;
    let _: for<'t> fn(&'t Tape, &Tensor) -> Var<'t> = Tape::input_copy;
    let _: for<'t> fn(&'t Tape, &Param) -> Var<'t> = Tape::param;
    // The seed is ignored (tapes hold no RNG), kept only because
    // e2e/src/probes.rs still passes one.
    let _: fn(&mut Tape, u64) = Tape::reset;
    let _: fn(&Tape, Var<'_>) -> ParamGrads = Tape::backward_params;
    let _: fn(&Tape) -> usize = Tape::arena_high_water_bytes;
    let _: fn() -> TapePool = TapePool::inference;
    let _: fn() -> TapePool = TapePool::training;
    // Its seed is ignored too, for the same reason.
    let _: fn(&TapePool, u64, fn(&Tape) -> u8) -> u8 = TapePool::with;

    let _: fn(&[usize], u64) -> Tensor = Tensor::randn;
    let _: fn(Vec<f32>, &[usize]) -> Tensor = Tensor::from_vec;
    let _: fn(&Tensor) -> &[f32] = Tensor::data;
    let _: fn(Tensor) -> Vec<f32> = Tensor::into_data;
    let _: fn(&Tensor) -> f32 = Tensor::item;

    // `Var`'s lifetime is a parameter of its impl block, so its methods
    // are pinned at one (arbitrary) `'t` rather than for all of them.
    fn var_methods<'t>(_any: &'t Tape) {
        let _: fn(Var<'t>, &[usize]) -> Var<'t> = Var::reshape;
        let _: fn(Var<'t>, usize, usize) -> Var<'t> = Var::slice_axis1;
        let _: fn(&[Var<'t>]) -> Var<'t> = Var::concat_axis1;
        let _: fn(Var<'t>, &Tensor) -> Var<'t> = Var::mse_loss;
        let _: fn(&Var<'t>) -> Tensor = Var::value;
    }
    var_methods(&Tape::new());

    let _: fn(&str, usize, usize, u64) -> Linear = Linear::new;
    let _: for<'t> fn(&Linear, &'t Tape, Var<'t>) -> Var<'t> = Linear::forward;
    let _: fn(&str, usize, usize, u64) -> MultiHeadAttention = MultiHeadAttention::new;
    let _: for<'t> fn(&MultiHeadAttention, &'t Tape, Var<'t>) -> Var<'t> =
        MultiHeadAttention::forward;
    let _: for<'t> fn(&TransformerEncoder, &'t Tape, Var<'t>) -> Var<'t> =
        TransformerEncoder::forward;
    // A no-op (no train/eval mode), kept only because
    // e2e/src/probes.rs still calls it.
    let _: fn(&TransformerEncoder, bool) = TransformerEncoder::set_training;
    let _: fn(Vec<Param>, LrSchedule) -> Adam = Adam::new;
    let _: fn(&mut Adam, &ParamGrads) = Adam::step_with;
    let _: fn(&DelayHead) -> Vec<Param> = <DelayHead as Module>::params;
    let _: for<'t> fn(&DelayHead, &'t Tape, Var<'t>, Option<Var<'t>>) -> Var<'t> =
        <DelayHead as Head>::forward_head;
}

#[test]
fn model_and_serving_constructors_keep_their_signatures() {
    let _: fn(NttConfig) -> Ntt = Ntt::new;
    let _: for<'t> fn(&Ntt, &'t Tape, Var<'t>) -> Var<'t> = Ntt::forward;
    // A no-op (no train/eval mode), kept only because
    // e2e/src/serving.rs still calls it.
    let _: fn(&Ntt, bool) = Ntt::set_training;
    let _: fn(&NttConfig) -> usize = NttConfig::seq_len;
    let _: fn(usize, u64) -> DelayHead = DelayHead::new;
    let _: fn(usize) -> Normalizer = Normalizer::identity;
    let _: fn(Ntt, Vec<Box<dyn Head>>, Normalizer) -> InferenceEngine = InferenceEngine::from_parts;
    let _: fn(&InferenceEngine, &str, &Tensor, Option<&Tensor>) -> Tensor =
        InferenceEngine::predict;
    let _: fn() -> BatchConfig = BatchConfig::default;
    let _: fn() -> NetConfig = NetConfig::default;
    let _: fn() -> SessionConfig = SessionConfig::default;
    let _: fn() -> TrainConfig = TrainConfig::default;
    let _: fn() -> NttConfig = NttConfig::default;
    let _: fn() -> FeatureMask = FeatureMask::all;
}

#[test]
fn counters_the_trace_reads_exist_under_their_names() {
    // One tiny forward on an inference tape touches the GEMM funnel, the
    // attention op and the tape pool; the names e2e looks up in
    // a snapshot must then be registered (a renamed counter would read
    // as a silent zero in the ledger, not as an error).
    let cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 8,
        n_heads: 2,
        n_layers: 1,
        d_ff: 16,
        ..NttConfig::default()
    };
    let engine = InferenceEngine::from_parts(
        Ntt::new(cfg),
        vec![Box::new(DelayHead::new(cfg.d_model, 1)) as Box<dyn Head>],
        Normalizer::identity(NUM_FEATURES),
    );
    let before = ntt_obs::snapshot();
    let x = Tensor::randn(&[1, cfg.seq_len(), NUM_FEATURES], 5);
    assert!(engine.predict("delay", &x, None).item().is_finite());
    let after = ntt_obs::snapshot();
    let moved = |name: &str| {
        let now = after
            .counter(name)
            .unwrap_or_else(|| panic!("counter `{name}` is not registered"));
        now - before.counter(name).unwrap_or(0)
    };
    assert!(moved("tensor.gemm_calls") >= 9, "tiny forward: 9 GEMMs");
    assert!(moved("tensor.attn_fused_calls") >= 1);
    assert!(
        moved("tensor.tape_pool.misses") >= 1,
        "first use of the pool"
    );
}
