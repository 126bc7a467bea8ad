//! Task-graph execution, verified from the outside: every training step
//! and inference pass is recorded as a DAG and run through the scheduler,
//! which must run it in program order and compute the same bits at any
//! worker count, at either task grain, checkpointed, and with the fusion
//! passes on. The reference is the layer-grain step at one thread.
//!
//! The fusion pass itself is pinned through `Bert::plan_eval_fusion`: at
//! op grain the plan must merge both legal patterns (FC1→GeLU and
//! residual→LayerNorm), and at layer grain it must merge nothing.

use bertscope_model::BertConfig;
use bertscope_tensor::{pool, sched, Tracer};
use bertscope_train::{Bert, Lamb, SyntheticCorpus, TaskGrain, TrainOptions, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two structurally different configurations: the canonical tiny BERT and
/// an asymmetric deeper one (odd vocab, layers not a power of two) so the
/// graph's task layout is exercised beyond one shape.
fn configs() -> Vec<BertConfig> {
    vec![
        BertConfig::tiny(),
        BertConfig {
            layers: 3,
            d_model: 48,
            heads: 6,
            d_ff: 96,
            vocab: 131,
            max_position: 40,
            seq_len: 20,
            batch: 3,
        },
    ]
}

/// The 8-layer miniature the memory-profile suite measures: checkpointing
/// splits it into three recompute segments.
fn eight_layer() -> BertConfig {
    BertConfig {
        layers: 8,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        vocab: 211,
        max_position: 48,
        seq_len: 32,
        batch: 4,
    }
}

/// Run a few optimizer updates and return every loss and parameter bit.
fn run_training(cfg: BertConfig, opts: TrainOptions) -> (Vec<u32>, Vec<u32>) {
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(17);
    let batches: Vec<_> = (0..2).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let mut bert = Bert::new(cfg, opts, 9);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let mut tr = Tracer::disabled();
    let mut losses = Vec::new();
    for step in 0..3 {
        let (out, _) = trainer
            .micro_step(&mut tr, &mut bert, &batches[step % batches.len()])
            .expect("micro step");
        losses.push(out.loss.to_bits());
    }
    let params = bert
        .param_values_mut()
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (losses, params)
}

/// The bit-identity claim across pool sizes: for two configurations, the
/// micro-step (Trainer + LAMB included) recorded at either grain leaves
/// exactly the losses and parameter bits of the layer-grain 1-thread
/// reference — the step run in program order on one thread — at 1, 2 and
/// 8 worker threads.
#[test]
fn graph_training_is_bit_identical_to_eager_across_threads_and_configs() {
    for cfg in configs() {
        let base = pool::with_threads(1, || run_training(cfg, TrainOptions::default()));
        for threads in [1usize, 2, 8] {
            for grain in [TaskGrain::Layer, TaskGrain::Op] {
                let opts = TrainOptions { grain, ..TrainOptions::default() };
                let run = pool::with_threads(threads, || run_training(cfg, opts));
                assert_eq!(
                    run, base,
                    "training at {grain:?} grain diverged from the 1-thread reference at \
                     {threads} threads ({} layers, d_model {})",
                    cfg.layers, cfg.d_model
                );
            }
        }
    }
}

/// Op-grain recording (one task per forward stage), checkpointing (which
/// recomputes each segment's forward from its checkpoint) and fused
/// epilogues all compute the bits of the layer-grain 1-thread reference.
#[test]
fn op_grain_and_checkpointed_graph_training_match_eager() {
    let cfg = BertConfig::tiny();
    let variants = [
        TrainOptions { grain: TaskGrain::Op, ..TrainOptions::default() },
        TrainOptions { checkpoint: true, ..TrainOptions::default() },
        TrainOptions { checkpoint: true, grain: TaskGrain::Op, ..TrainOptions::default() },
        TrainOptions { fused_epilogue: true, ..TrainOptions::default() },
    ];
    let reference = pool::with_threads(1, || run_training(cfg, TrainOptions::default()));
    for opts in variants {
        for threads in [1usize, 2, 8] {
            let run = pool::with_threads(threads, || run_training(cfg, opts));
            assert_eq!(
                run, reference,
                "variant (grain {:?}, checkpoint {}, fused epilogue {}) diverged at \
                 {threads} threads",
                opts.grain, opts.checkpoint, opts.fused_epilogue
            );
        }
    }
}

/// Inference through the op-grain graph, fused and unfused: the fusion
/// pass merges task pairs but every loss and accuracy bit matches the
/// layer-grain 1-thread evaluation, at every thread count.
#[test]
fn fused_graph_evaluation_matches_eager_across_threads() {
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(23);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let layer = Bert::new(cfg, TrainOptions::default(), 9);
    let base = pool::with_threads(1, || {
        layer.evaluate(&mut Tracer::disabled(), &batch).expect("layer-grain evaluate")
    });
    for threads in [1usize, 2, 8] {
        for fuse in [false, true] {
            let opts = TrainOptions { grain: TaskGrain::Op, fuse, ..TrainOptions::default() };
            let op = Bert::new(cfg, opts, 9);
            let out = pool::with_threads(threads, || {
                op.evaluate(&mut Tracer::disabled(), &batch).expect("op-grain evaluate")
            });
            assert_eq!(base.mlm_loss.to_bits(), out.mlm_loss.to_bits(), "fuse={fuse}");
            assert_eq!(base.nsp_loss.to_bits(), out.nsp_loss.to_bits(), "fuse={fuse}");
            assert_eq!(base.mlm_accuracy.to_bits(), out.mlm_accuracy.to_bits(), "fuse={fuse}");
            assert_eq!(base.nsp_accuracy.to_bits(), out.nsp_accuracy.to_bits(), "fuse={fuse}");
        }
    }
}

/// Every graph a training step or an evaluation records runs in the order
/// it was submitted — program order. In particular a checkpointed step's
/// recompute runs just before its segment's backward, not during the
/// forward pass, where it would hold the recomputed activations from then
/// on.
#[test]
fn every_recorded_graph_runs_in_submission_order() {
    let variants = [
        TrainOptions::default(),
        TrainOptions { grain: TaskGrain::Op, ..TrainOptions::default() },
        TrainOptions { checkpoint: true, ..TrainOptions::default() },
        TrainOptions { grain: TaskGrain::Op, fuse: true, ..TrainOptions::default() },
        TrainOptions { fused_epilogue: true, ..TrainOptions::default() },
    ];
    for cfg in [BertConfig::tiny(), eight_layer()] {
        let corpus = SyntheticCorpus::new(cfg.vocab);
        let mut rng = StdRng::seed_from_u64(31);
        let batch = corpus.generate_batch(&mut rng, &cfg);
        for opts in variants {
            let mut bert = Bert::new(cfg, opts, 9);
            sched::start_capture();
            bert.train_step(&mut Tracer::disabled(), &batch).expect("train step");
            bert.evaluate(&mut Tracer::disabled(), &batch).expect("evaluate");
            let runs = sched::take_captured();
            assert_eq!(runs.len(), 2, "one graph per step and one per evaluation");
            for (run, what) in runs.iter().zip(["train_step", "evaluate"]) {
                let submitted: Vec<usize> = (0..run.labels.len()).collect();
                let order: Vec<&str> =
                    run.completion_order.iter().map(|&t| run.labels[t].as_str()).collect();
                assert_eq!(
                    run.completion_order, submitted,
                    "{what} ({} layers, {opts:?}) ran out of submission order: {order:?}",
                    cfg.layers
                );
            }
        }
    }
}

/// The fusion plan merges both distinct task-pair patterns — FC1→GeLU and
/// residual→LayerNorm — on every layer at op grain, and nothing at layer
/// grain (no label matches a pattern there).
#[test]
fn eval_fusion_plan_pins_both_patterns() {
    let cfg = BertConfig::tiny();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(29);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let opts = TrainOptions { grain: TaskGrain::Op, fuse: true, ..TrainOptions::default() };
    let bert = Bert::new(cfg, opts, 9);
    let plan = bert.plan_eval_fusion(&batch).expect("fusion plan");
    // fc1+gelu, residual1+layernorm1, residual2+layernorm2 per layer.
    assert_eq!(plan.pairs_merged(), 3 * cfg.layers, "fused groups: {:?}", plan.fused);
    assert!(
        plan.fused.iter().any(|l| l.contains("fc1") && l.contains("gelu")),
        "FC1+GeLU pattern missing: {:?}",
        plan.fused
    );
    assert!(
        plan.fused.iter().any(|l| l.contains("residual") && l.contains("layernorm")),
        "residual+LayerNorm pattern missing: {:?}",
        plan.fused
    );
    let coarse = Bert::new(cfg, TrainOptions::default(), 9);
    assert_eq!(
        coarse.plan_eval_fusion(&batch).expect("coarse plan").pairs_merged(),
        0,
        "layer-grain graphs have nothing to fuse"
    );
}
