//! Execution-mode correctness: the grad-free inference path must be a
//! *mode* of the same engine, not a second implementation. Every op,
//! attention included, runs the same kernels on both tape kinds, so
//! inference forwards equal recording-tape forwards bit for bit, and
//! stay bit-identical across runs, worker counts, and batch
//! compositions. The evaluation loops must reproduce a hand-wired
//! inference tape and a recording-tape replay to the bit; the serving
//! engine, which folds the affine front end once at load with the same
//! code every training step runs on its tape, must reproduce
//! `Ntt::forward` on either tape kind to the bit.

use ntt::core::{
    evaluate, Aggregation, DelayHead, DropHead, HeadTask, MctHead, Ntt, NttConfig, ParStrategy,
    Task,
};
use ntt::data::{BatchIter, DatasetConfig, DelayDataset, TraceData, NUM_FEATURES};
use ntt::nn::Head;
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};
use ntt::tensor::{Tape, Tensor};

fn tiny_model() -> Ntt {
    Ntt::new(NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 23,
        ..NttConfig::default()
    })
}

#[test]
fn inference_forward_is_deterministic_and_close_to_recording() {
    // The inference tape must reproduce the recording tape, and
    // itself, bit for bit: a forward pass is a pure function of the
    // weights and the input.
    let ntt = tiny_model();
    let heads: Vec<Box<dyn Head>> = vec![
        Box::new(DelayHead::new(16, 1)),
        Box::new(MctHead::new(16, 2)),
        Box::new(DropHead::new(16, 3)),
    ];
    let x = Tensor::randn(&[3, ntt.cfg.seq_len(), NUM_FEATURES], 9);
    let aux = Tensor::randn(&[3, 1], 10);
    for head in &heads {
        let run_on = |tape: &Tape| {
            let enc = ntt.forward(tape, tape.input(x.clone()));
            let aux = head.needs_aux().then(|| tape.input(aux.clone()));
            head.forward_head(tape, enc, aux).value()
        };
        let recorded = run_on(&Tape::new());
        let inferred = run_on(&Tape::inference());
        assert_eq!(
            recorded.shape(),
            inferred.shape(),
            "{}: shape diverged",
            head.kind()
        );
        assert_eq!(
            inferred,
            recorded,
            "{}: inference forward drifted from recording forward",
            head.kind()
        );
        let replay = run_on(&Tape::inference());
        for (a, b) in inferred.data().iter().zip(replay.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: inference forward is not reproducible",
                head.kind()
            );
        }
    }
}

fn tiny_dataset(seq_len: usize) -> (DelayDataset, DelayDataset) {
    let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(31))];
    let data = TraceData::from_traces(&traces);
    let cfg = DatasetConfig {
        seq_len,
        stride: 8,
        test_fraction: 0.2,
    };
    DelayDataset::build(data, cfg, None)
}

#[test]
fn grad_free_evaluate_is_reproducible_and_close_to_recording() {
    // Recompute `evaluate`'s result by hand — same batch partitioning,
    // same reduction order — on hand-wired inference tapes, and require
    // the grad-free evaluate to match to the bit, sequentially and
    // fanned out over 4 workers. A recording-tape replay of the same
    // loop must match to the bit too.
    let ntt = tiny_model();
    let head = DelayHead::new(16, 5);
    let (train, test) = tiny_dataset(ntt.cfg.seq_len());
    let ds = if test.is_empty() { train } else { test };
    let task = HeadTask::new(&head, &ds);
    let batch_size = 16;

    let loop_mse = |mk_tape: fn() -> Tape| {
        let (mut se, mut n) = (0.0f64, 0usize);
        for batch in BatchIter::new(task.len(), batch_size, 0, false) {
            let tape = mk_tape();
            let mse = task.batch_loss(&tape, &ntt, &batch);
            se += mse.value().item() as f64 * batch.len() as f64;
            n += batch.len();
        }
        se / n as f64
    };
    let reference = loop_mse(Tape::inference);
    let recorded = loop_mse(Tape::new);
    assert_eq!(
        reference.to_bits(),
        recorded.to_bits(),
        "evaluate drifted from the recording tape: {reference} vs {recorded}"
    );

    for threads in [1usize, 4] {
        let report = evaluate(&ntt, &task, batch_size, &ParStrategy::with_threads(threads));
        assert_eq!(
            report.mse_norm.to_bits(),
            reference.to_bits(),
            "grad-free evaluate diverged at {threads} workers"
        );
        assert_eq!(report.n, ds.len());
    }
}

#[test]
fn serving_engine_agrees_with_evaluate() {
    // End-to-end cross-check between the two consumers of the grad-free
    // path: `ntt-serve` batched prediction and the trainer's evaluate
    // must see the same model outputs for the same windows.
    use ntt::serve::InferenceEngine;
    let ntt = tiny_model();
    let head = DelayHead::new(16, 7);
    let (train, _) = tiny_dataset(ntt.cfg.seq_len());
    let idx: Vec<usize> = (0..train.len().min(8)).collect();
    let (x, y) = train.batch(&idx);

    // Bit-exact references: `Ntt::forward` on an inference tape (the
    // path evaluate runs, folding its front on the tape) and the
    // engine's path hand-wired — front folded once, `encode`, head.
    let infer = Tape::inference();
    let pred_evaluate = head
        .forward_head(&infer, ntt.forward(&infer, infer.input(x.clone())), None)
        .value();
    let slots = ntt.fold_front().forward(&infer, infer.input(x.clone()));
    let pred_ref = head
        .forward_head(&infer, ntt.encode(&infer, slots), None)
        .value();
    // And the training path: a recording tape.
    let rec = Tape::new();
    let pred_recorded = head
        .forward_head(&rec, ntt.forward(&rec, rec.input(x.clone())), None)
        .value();

    let engine = InferenceEngine::from_parts(
        ntt,
        vec![Box::new(head) as Box<dyn Head>],
        train.norm.clone(),
    );
    let served = engine.predict("delay", &x, None);
    assert_eq!(served.shape(), &[idx.len(), 1]);
    assert_eq!(served, pred_ref);
    assert_eq!(served, pred_evaluate);
    assert_eq!(served, pred_recorded);
    assert_eq!(y.shape(), &[idx.len(), 1]);
}
