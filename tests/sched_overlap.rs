//! Backward/AllReduce overlap, verified from the outside: the recorded
//! step must compute the same bits however it is split into tasks and
//! however many worker threads run its kernels, and the optimizer must
//! provably wait for each gradient bucket's collective.
//!
//! Two angles:
//!
//! * op-grain, checkpointed and fused-epilogue micro-steps leave the
//!   parameter bits of the layer-grain 1-thread reference at 1, 2 and 8
//!   worker threads, and fire the same buckets in the same order with the
//!   same payloads;
//! * a live overlapped trace (observer-fired buckets, per-bucket `Comm`
//!   ops, presynced close) passes the H005 communication contract — no
//!   update-phase op reads a gradient buffer before the bucket collective
//!   that reduces it — and the same checker flags a deliberately reordered
//!   version of that trace, so the pass is not vacuous.

use bertscope_check::{check_comm_ordering, has_errors, report};
use bertscope_model::BertConfig;
use bertscope_tensor::{
    pool, AccessSet, BufId, Category, DType, OpKind, OpRecord, Phase, Tensor, Tracer,
};
use bertscope_train::{
    Bert, BucketSink, BucketedAverager, Lamb, SyntheticCorpus, TaskGrain, TrainOptions, Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

fn small_cfg() -> BertConfig {
    BertConfig {
        layers: 2,
        d_model: 32,
        heads: 4,
        d_ff: 64,
        vocab: 101,
        max_position: 24,
        seq_len: 16,
        batch: 4,
    }
}

fn param_bits(bert: &mut Bert) -> Vec<u32> {
    bert.param_values_mut()
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Train a few windows under the given options and return the final
/// parameter bits.
fn run_params_with(opts: TrainOptions) -> Vec<u32> {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(11);
    let batches: Vec<_> = (0..2).map(|_| corpus.generate_batch(&mut rng, &cfg)).collect();
    let mut bert = Bert::new(cfg, opts, 7);
    let mut trainer = Trainer::new(Lamb::new(0.01), 2);
    let mut tr = Tracer::disabled();
    for step in 0..4 {
        let (out, _) = trainer
            .micro_step(&mut tr, &mut bert, &batches[step % batches.len()])
            .expect("micro step");
        assert!(out.loss.is_finite(), "step {step} diverged");
    }
    param_bits(&mut bert)
}

/// The layer-grain step and the ways of splitting and running it that must
/// not change its bits: op-grain tasks, checkpointed recomputation, fused
/// epilogues.
fn variants() -> [TrainOptions; 4] {
    [
        TrainOptions::default(),
        TrainOptions { grain: TaskGrain::Op, ..TrainOptions::default() },
        TrainOptions { checkpoint: true, ..TrainOptions::default() },
        TrainOptions { fused_epilogue: true, ..TrainOptions::default() },
    ]
}

/// Every variant's micro-steps leave the exact parameter bits of the
/// layer-grain 1-thread reference at 1, 2 and 8 worker threads.
#[test]
fn graph_micro_step_is_bit_identical_to_eager_across_threads() {
    let base = pool::with_threads(1, || run_params_with(TrainOptions::default()));
    for threads in [1usize, 2, 8] {
        for opts in variants() {
            let run = pool::with_threads(threads, || run_params_with(opts));
            assert_eq!(run, base, "micro-step diverged at {threads} threads under {opts:?}");
        }
    }
}

/// Fire one observed micro-step's buckets: `(bucket, range, payload)` in
/// firing order.
fn fire(opts: TrainOptions) -> Vec<(usize, Range<usize>, Vec<f32>)> {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(13);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(cfg, opts, 3);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let lens: Vec<usize> =
        bert.param_values_mut().iter().map(|(_, t)| t.as_slice().len()).collect();
    let mut averager = BucketedAverager::new(&lens, 4096, Collect::default());
    let mut tracer = Tracer::disabled();
    trainer
        .micro_step_observed(&mut tracer, &mut bert, &batch, &mut averager)
        .expect("observed micro step");
    averager.into_sink().fired
}

/// The observer fires from inside backward tasks, but the dy dataflow
/// serializes the chain — so under every variant and at every thread
/// count the bucket sequence (and every payload) must be exactly the
/// layer-grain 1-thread one. This is the precondition for ring
/// collectives: all ranks enter bucket AllReduces in one order.
#[test]
fn graph_mode_buckets_fire_in_eager_order() {
    let base = pool::with_threads(1, || fire(TrainOptions::default()));
    assert!(!base.is_empty(), "buckets must fire");
    for threads in [1usize, 2, 8] {
        for opts in variants() {
            let run = pool::with_threads(threads, || fire(opts));
            assert_eq!(base.len(), run.len(), "{opts:?} at {threads} threads");
            for (e, g) in base.iter().zip(&run) {
                assert_eq!(e.0, g.0, "bucket order diverged under {opts:?}");
                assert_eq!(e.1, g.1, "bucket range diverged under {opts:?}");
                let (eb, gb): (Vec<u32>, Vec<u32>) = (
                    e.2.iter().map(|v| v.to_bits()).collect(),
                    g.2.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(eb, gb, "bucket {} payload diverged bitwise under {opts:?}", e.0);
            }
        }
    }
}

#[derive(Default)]
struct Collect {
    fired: Vec<(usize, Range<usize>, Vec<f32>)>,
}

impl BucketSink for Collect {
    fn bucket_ready(&mut self, bucket: usize, range: Range<usize>, data: &[f32]) {
        self.fired.push((bucket, range, data.to_vec()));
    }
}

/// The H005 contract on a live overlapped trace: drive the same
/// observer → bucket → per-bucket `Comm` op → presynced-close sequence the
/// distributed worker uses (world of one, so "synced" is the averaged
/// gradient itself), then assert no optimizer op reads a gradient buffer
/// before the bucket collective that reduces it — and that moving the
/// collectives after the optimizer makes the same checker fail.
#[test]
fn optimizer_never_starts_before_its_buckets_allreduce_retires() {
    let cfg = small_cfg();
    let corpus = SyntheticCorpus::new(cfg.vocab);
    let mut rng = StdRng::seed_from_u64(13);
    let batch = corpus.generate_batch(&mut rng, &cfg);
    let mut bert = Bert::new(cfg, TrainOptions::default(), 3);
    let mut trainer = Trainer::new(Lamb::new(0.01), 1);
    let mut tracer = Tracer::new();

    let (dims, lens): (Vec<Vec<usize>>, Vec<usize>) = bert
        .param_values_mut()
        .iter()
        .map(|(_, t)| (t.dims().to_vec(), t.as_slice().len()))
        .unzip();
    let mut averager = BucketedAverager::new(&lens, 4096, Collect::default());
    let n_buckets = averager.bucket_ranges().len();
    assert!(n_buckets > 1, "config too small to exercise bucketing: {n_buckets} bucket(s)");

    let (_, window_full) = trainer
        .micro_step_observed(&mut tracer, &mut bert, &batch, &mut averager)
        .expect("observed micro step");
    assert!(window_full, "accumulation of one closes every window");
    let sink = averager.into_sink();
    assert_eq!(sink.fired.len(), n_buckets, "every bucket must fire during backward");

    // Reassemble the fired buckets into canonical per-slot tensors, exactly
    // as the distributed worker does after its comm thread drains.
    let total: usize = lens.iter().sum();
    let mut flat = vec![0.0f32; total];
    for (_, range, data) in &sink.fired {
        flat[range.clone()].copy_from_slice(data);
    }
    let mut offsets = vec![0usize];
    for &len in &lens {
        offsets.push(offsets.last().expect("non-empty") + len);
    }
    let averaged: Vec<Tensor> = dims
        .iter()
        .zip(offsets.windows(2))
        .map(|(d, w)| Tensor::from_vec(flat[w[0]..w[1]].to_vec(), d).expect("slot shape"))
        .collect();

    // One Comm op per bucket over the gradient tensors it covers, recorded
    // before the optimizer reads them.
    for (b, range, _) in &sink.fired {
        let ids: Vec<BufId> = averaged
            .iter()
            .zip(offsets.windows(2))
            .filter(|(_, w)| w[0] < range.end && range.start < w[1])
            .map(|(t, _)| t.buf_id())
            .collect();
        tracer.record(OpRecord {
            name: format!("test.allreduce.bucket{b}"),
            kind: OpKind::Comm,
            category: Category::Comm,
            phase: Phase::Communication,
            layer: None,
            gemm: None,
            flops: range.len() as u64,
            bytes_read: 4 * range.len() as u64,
            bytes_written: 4 * range.len() as u64,
            dtype: DType::F32,
            access: AccessSet { reads: ids.clone(), writes: ids, allocs: vec![], frees: vec![] },
        });
    }
    trainer.close_window_presynced(&mut tracer, &mut bert, averaged).expect("presynced close");

    let records = tracer.records();
    let comm_ops = records.iter().filter(|o| o.kind == OpKind::Comm).count();
    let update_ops = records.iter().filter(|o| o.phase == Phase::Update).count();
    assert_eq!(comm_ops, n_buckets, "one collective per bucket on the trace");
    assert!(update_ops > 0, "the presynced close must trace optimizer ops");

    let findings = check_comm_ordering(records);
    assert!(
        !has_errors(&findings),
        "H005 violated on the live overlapped trace:\n{}",
        report(&findings)
    );

    // Teeth check: the same trace with the collectives pushed after the
    // optimizer must fail — the checker is actually watching this order.
    let mut reordered: Vec<OpRecord> =
        records.iter().filter(|o| o.kind != OpKind::Comm).cloned().collect();
    reordered.extend(records.iter().filter(|o| o.kind == OpKind::Comm).cloned());
    assert!(
        has_errors(&check_comm_ordering(&reordered)),
        "reordering collectives after the optimizer must trip H005"
    );
}
