//! Replays of the GEMMs a traced training step records, made the way the
//! kernels call them, for the `gemm.*` metrics and `kernels.non_gemm_ms`.
//!
//! A trace record's `GemmSpec` is the paper's Fig. 6 label of a GEMM
//! (`M` the weight-side output dimension, `N` the token count), not the
//! call the kernel makes, and its dtype is the step's activation precision,
//! not the precision of each operand. [`CALLS`] holds, for every GEMM a
//! training step traces, which label dimensions are the call's `m`, `n` and
//! `k`, and which operands the call passes at the activation precision. The
//! transposes and the epilogue are the label's. The table follows
//! `kernels::linear`, `kernels::attention` and the MLM decoder of
//! `train::bert` and `train::graph`; a kernel change that alters one of
//! these calls must change it too. A record the table does not name fails
//! the run instead of being replayed in a guessed layout. The tests below
//! pin every layout and the precision of every weight operand; the
//! precision of an activation operand cannot be seen from outside the
//! program, so no test pins it.

use bertscope_tensor::init::randn;
use bertscope_tensor::{
    batched_gemm_ep, gemm_bias_gelu, gemm_ep, Category, DType, Epilogue, GemmEpilogue, OpKind,
    OpRecord, Tensor, Transpose,
};
use rand::rngs::StdRng;

/// A GEMM class the traced run replays: its span, the category of the
/// records it covers, and its two metrics.
pub struct GemmClass {
    pub span: &'static str,
    pub category: Category,
    pub ms: &'static str,
    pub gflops: &'static str,
}

pub const GEMM_CLASSES: [GemmClass; 4] = [
    GemmClass {
        span: "gemm.attn_linear",
        category: Category::AttnLinear,
        ms: "gemm.attn_linear.ms",
        gflops: "gemm.attn_linear.gflops",
    },
    GemmClass {
        span: "gemm.attn_bgemm",
        category: Category::AttnBgemm,
        ms: "gemm.attn_bgemm.ms",
        gflops: "gemm.attn_bgemm.gflops",
    },
    GemmClass {
        span: "gemm.fc",
        category: Category::FcGemm,
        ms: "gemm.fc.ms",
        gflops: "gemm.fc.gflops",
    },
    GemmClass {
        span: "gemm.output",
        category: Category::Output,
        ms: "gemm.output.ms",
        gflops: "gemm.output.gflops",
    },
];

/// Which label dimension (0 = `M`, 1 = `N`, 2 = `K`) is the call's `m`,
/// `n` and `k`.
type Layout = [usize; 3];

/// The call is the label.
const AS_LABELLED: Layout = [0, 1, 2];

/// Row-major `[tokens, features]` activations: the call's rows are the
/// label's `N`, its columns the label's `M`.
const SWAP_MN: Layout = [1, 0, 2];

/// Which of the call's operands `a` and `b` are at the activation
/// precision; the others are f32.
type Half = [bool; 2];

const BOTH: Half = [true, true];
const A: Half = [true, false];
const B: Half = [false, true];
const NEITHER: Half = [false, false];

/// How the kernels call each GEMM they trace, keyed by the record's name
/// without its `l<layer>.` prefix.
const CALLS: [(&str, Layout, Half); 30] = [
    // Encoder layer, forward.
    ("attn.gemm.fwd", SWAP_MN, BOTH),
    ("attn.score.fwd", AS_LABELLED, NEITHER),
    ("attn.context.fwd", SWAP_MN, A),
    ("attn_out.gemm.fwd", SWAP_MN, B),
    ("fc1.gemm.fwd", SWAP_MN, BOTH),
    ("fc2.gemm.fwd", SWAP_MN, BOTH),
    // Encoder layer, backward.
    ("fc2.grad_act.bwd", SWAP_MN, B),
    ("fc2.grad_wt.bwd", AS_LABELLED, A),
    ("fc1.grad_act.bwd", SWAP_MN, BOTH),
    ("fc1.grad_wt.bwd", AS_LABELLED, BOTH),
    ("attn_out.grad_act.bwd", SWAP_MN, B),
    ("attn_out.grad_wt.bwd", AS_LABELLED, NEITHER),
    // dprobs = dctx * V^T: labelled (d_h, n, n), called (n, n, d_h).
    ("attn.context.grad_act.bwd", [1, 2, 0], NEITHER),
    // dV = probs^T * dctx: labelled (n, n, d_h), called (n, d_h, n).
    ("attn.context.grad_v.bwd", [0, 2, 1], A),
    ("attn.score.grad_q.bwd", AS_LABELLED, NEITHER),
    ("attn.score.grad_k.bwd", SWAP_MN, NEITHER),
    ("attn.grad_act.bwd", SWAP_MN, B),
    ("attn.grad_wt.bwd", AS_LABELLED, A),
    // Output heads, forward.
    ("mlm.dense.gemm.fwd", SWAP_MN, BOTH),
    ("mlm.decoder.gemm.fwd", SWAP_MN, BOTH),
    ("nsp.pooler.gemm.fwd", SWAP_MN, B),
    ("nsp.classifier.gemm.fwd", SWAP_MN, B),
    // Output heads, backward.
    ("nsp.classifier.grad_act.bwd", SWAP_MN, B),
    ("nsp.classifier.grad_wt.bwd", AS_LABELLED, NEITHER),
    ("nsp.pooler.grad_act.bwd", SWAP_MN, B),
    ("nsp.pooler.grad_wt.bwd", AS_LABELLED, NEITHER),
    ("mlm.decoder.grad_act.bwd", SWAP_MN, B),
    ("mlm.decoder.grad_wt.bwd", AS_LABELLED, B),
    ("mlm.dense.grad_act.bwd", SWAP_MN, BOTH),
    ("mlm.dense.grad_wt.bwd", AS_LABELLED, BOTH),
];

/// A record's name without its `l<layer>.` prefix.
fn call_key(name: &str) -> &str {
    match name.strip_prefix('l').and_then(|rest| rest.split_once('.')) {
        Some((layer, key)) if !layer.is_empty() && layer.bytes().all(|b| b.is_ascii_digit()) => key,
        _ => name,
    }
}

/// Attention score scale for a 64-wide head.
const SCORE_SCALE: f32 = 0.125;

/// One recorded GEMM with operands of the shape and precision the kernel
/// passes, ready to run again through the public `tensor::gemm` entry
/// points.
pub struct Replay {
    /// Index of its class in [`GEMM_CLASSES`].
    pub class: usize,
    /// FLOPs the record counts.
    pub flops: u64,
    ta: Transpose,
    tb: Transpose,
    epilogue: Epilogue,
    batched: bool,
    a: Tensor,
    b: Tensor,
    bias: Tensor,
    /// Output-shaped residual or mask operand of the epilogue.
    full: Vec<f32>,
}

impl Replay {
    /// Build a replay of `rec`: `Ok(None)` when it is not a GEMM of one of
    /// the replayed classes, an error naming it when [`CALLS`] does not say
    /// how it is called.
    pub fn of(rec: &OpRecord, rng: &mut StdRng) -> Result<Option<Replay>, String> {
        let Some(spec) = rec.gemm else { return Ok(None) };
        let Some(class) = GEMM_CLASSES.iter().position(|c| c.category == rec.category) else {
            return Ok(None);
        };
        let key = call_key(&rec.name);
        let &(_, layout, half) = CALLS
            .iter()
            .find(|(k, _, _)| *k == key)
            .ok_or_else(|| format!("no known call for the traced GEMM `{}`", rec.name))?;
        let label = [spec.m, spec.n, spec.k];
        let [m, n, k] = layout.map(|d| label[d]);
        let batched = rec.kind == OpKind::BatchedGemm;
        let operand = |rng: &mut StdRng, t: Transpose, rows: usize, cols: usize, half: bool| {
            let (r, c) = if t == Transpose::No { (rows, cols) } else { (cols, rows) };
            let dims = if batched { vec![spec.batch, r, c] } else { vec![r, c] };
            randn(rng, &dims, 0.02).to_dtype(if half { rec.dtype } else { DType::F32 })
        };
        let a = operand(rng, spec.ta, m, k, half[0]);
        let b = operand(rng, spec.tb, k, n, half[1]);
        let outputs = if batched { spec.batch * m * n } else { m * n };
        Ok(Some(Replay {
            class,
            flops: rec.flops,
            ta: spec.ta,
            tb: spec.tb,
            epilogue: spec.epilogue,
            batched,
            a,
            b,
            bias: Tensor::zeros(&[n]),
            full: vec![0.0; outputs],
        }))
    }

    /// Run the GEMM with the recorded transposes and epilogue.
    pub fn run(&self) -> bertscope_tensor::Result<Tensor> {
        let (ta, tb, a, b) = (self.ta, self.tb, &self.a, &self.b);
        let ep = match self.epilogue {
            Epilogue::BiasGelu => {
                return gemm_bias_gelu(ta, tb, 1.0, a, b, &self.bias).map(|p| p.1)
            }
            Epilogue::None => GemmEpilogue::None,
            Epilogue::Bias => GemmEpilogue::Bias(self.bias.as_slice()),
            Epilogue::BiasResidual => {
                GemmEpilogue::BiasResidual { bias: self.bias.as_slice(), residual: &self.full }
            }
            Epilogue::Scale => GemmEpilogue::Scale(SCORE_SCALE),
            Epilogue::ScaleMask => GemmEpilogue::ScaleMask { scale: SCORE_SCALE, mask: &self.full },
        };
        if self.batched {
            batched_gemm_ep(ta, tb, 1.0, a, b, ep)
        } else {
            gemm_ep(ta, tb, 1.0, a, b, 0.0, None, ep)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_kernels::attention::{
        attention_bwd, attention_fwd, AttentionConfig, AttentionParams,
    };
    use bertscope_kernels::linear::{linear_bwd, linear_fwd, linear_gelu_fwd};
    use bertscope_kernels::testsupport::rand_tensor;
    use bertscope_kernels::KernelCtx;
    use bertscope_model::{BertConfig, Precision};
    use bertscope_tensor::{AccessSet, BufId, GemmSpec, Phase, Tracer};
    use bertscope_train::{Bert, SyntheticCorpus, TrainOptions};
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn replays(tracer: &Tracer) -> Vec<(String, Replay)> {
        let mut rng = StdRng::seed_from_u64(5);
        tracer
            .records()
            .iter()
            .filter_map(|r| Replay::of(r, &mut rng).unwrap().map(|p| (r.name.clone(), p)))
            .collect()
    }

    #[test]
    fn linear_replays_recompute_the_kernels_outputs_from_their_operands() {
        let (t, d_in, d_out) = (6, 4, 10);
        let x = rand_tensor(1, &[t, d_in]);
        let w = rand_tensor(2, &[d_in, d_out]);
        let bias = rand_tensor(3, &[d_out]);
        let dy = rand_tensor(4, &[t, d_out]);
        let fwd = KernelCtx::new("fc1", Category::FcGemm, Phase::Forward);
        let bwd = KernelCtx::new("fc1", Category::FcGemm, Phase::Backward);
        let mut tr = Tracer::new();
        let y = linear_fwd(&mut tr, &fwd, &x, &w, Some(&bias)).unwrap();
        let (_, act) = linear_gelu_fwd(&mut tr, &fwd, &x, &w, &bias).unwrap();
        let (dx, dw, _) = linear_bwd(&mut tr, &bwd, &x, &w, &dy, true).unwrap();
        // The operands and output of each call, in trace order.
        let calls = [(&x, &w, &y), (&x, &w, &act), (&dy, &w, &dx), (&x, &dy, &dw)];
        let found = replays(&tr);
        assert_eq!(found.len(), calls.len());
        for ((name, mut r), (a, b, out)) in found.into_iter().zip(calls) {
            assert_eq!((r.a.dims(), r.b.dims()), (a.dims(), b.dims()), "{name}");
            r.a = a.clone();
            r.b = b.clone();
            r.bias = bias.clone();
            assert_eq!(r.run().unwrap(), *out, "{name}");
        }
    }

    #[test]
    fn attention_replays_multiply_what_the_kernels_multiply() {
        let cfg = AttentionConfig {
            batch: 1,
            seq: 6,
            heads: 2,
            d_model: 8,
            dropout_p: 0.0,
            fused_qkv: false,
            fused_epilogue: false,
            deferred: false,
            dtype: DType::F32,
            layer: 0,
        };
        let (t, d) = (cfg.batch * cfg.seq, cfg.d_model);
        let p = AttentionParams {
            wq: rand_tensor(1, &[d, d]),
            bq: rand_tensor(2, &[d]),
            wk: rand_tensor(3, &[d, d]),
            bk: rand_tensor(4, &[d]),
            wv: rand_tensor(5, &[d, d]),
            bv: rand_tensor(6, &[d]),
            wo: rand_tensor(7, &[d, d]),
            bo: rand_tensor(8, &[d]),
        };
        let x = rand_tensor(9, &[t, d]);
        let mut tr = Tracer::new();
        let (_, state) = attention_fwd(&mut tr, &cfg, &p, &x, None, 1).unwrap();
        attention_bwd(&mut tr, &cfg, &p, &state, &rand_tensor(10, &[t, d])).unwrap();
        // Batch x heads, sequence and head width all differ, so a swapped
        // dimension shows.
        let (bh, n, dh) = (2, 6, 4);
        let (heads, scores) = ([bh, n, dh], [bh, n, n]);
        let expected = [
            ("l0.attn.score.fwd", heads, heads, scores),
            ("l0.attn.context.fwd", scores, heads, heads),
            ("l0.attn.context.grad_act.bwd", heads, heads, scores),
            ("l0.attn.context.grad_v.bwd", scores, heads, heads),
            ("l0.attn.score.grad_q.bwd", scores, heads, heads),
            ("l0.attn.score.grad_k.bwd", scores, heads, heads),
        ];
        let found = replays(&tr);
        for (name, a, b, out) in expected {
            let (_, r) = found.iter().find(|(traced, _)| traced == name).expect(name);
            assert_eq!(r.a.dims(), a.as_slice(), "{name} a");
            assert_eq!(r.b.dims(), b.as_slice(), "{name} b");
            assert_eq!(r.run().unwrap().dims(), out.as_slice(), "{name} output");
        }
    }

    /// One traced training step of a small model whose dimensions all
    /// differ: every GEMM it records replays, and each weight a GEMM reads
    /// is passed at the weight's own shape and precision.
    fn check_a_step(options: TrainOptions) {
        let model = BertConfig {
            layers: 1,
            d_model: 12,
            heads: 2,
            d_ff: 20,
            vocab: 30,
            max_position: 16,
            seq_len: 8,
            batch: 2,
        };
        let mut bert = Bert::new(model, options, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let batch = SyntheticCorpus::new(model.vocab).generate_batch(&mut rng, &model);
        let mut tr = Tracer::new();
        bert.train_step(&mut tr, &batch).unwrap();
        let weights: HashMap<BufId, (Vec<usize>, DType)> = bert
            .param_slots()
            .iter()
            .map(|s| (s.value.buf_id(), (s.value.dims().to_vec(), s.value.dtype())))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (mut replayed, mut weights_read) = (0, 0);
        for rec in tr.records() {
            let Some(r) = Replay::of(rec, &mut rng).unwrap() else { continue };
            r.run().unwrap();
            replayed += 1;
            for (id, operand) in rec.access.reads.iter().zip([&r.a, &r.b]) {
                if let Some((dims, dtype)) = weights.get(id) {
                    assert_eq!(operand.dims(), dims.as_slice(), "{}", rec.name);
                    assert_eq!(operand.dtype(), *dtype, "{}", rec.name);
                    weights_read += 1;
                }
            }
        }
        // The encoder layer traces 8 forward and 16 backward GEMMs, the
        // heads 4 and 8.
        assert_eq!(replayed, 36, "{options:?}");
        // Each forward and activation-gradient GEMM of the six projections
        // of the layer and of the four of the heads reads a weight.
        assert_eq!(weights_read, 20, "{options:?}");
    }

    #[test]
    fn every_gemm_of_an_fp32_eager_step_replays_with_the_weights_it_reads() {
        check_a_step(TrainOptions::default());
    }

    #[test]
    fn every_gemm_of_a_mixed_task_graph_step_replays_with_the_weights_it_reads() {
        check_a_step(TrainOptions {
            precision: Precision::Mixed,
            graph: true,
            ..TrainOptions::default()
        });
    }

    #[test]
    fn gemms_of_other_layers_are_skipped_and_unknown_gemms_refused() {
        let rec = |name: &str, category| OpRecord {
            name: name.into(),
            kind: OpKind::Gemm,
            category,
            phase: Phase::Forward,
            layer: None,
            gemm: Some(GemmSpec::new(Transpose::No, Transpose::No, 4, 4, 4)),
            flops: 128,
            bytes_read: 0,
            bytes_written: 0,
            dtype: DType::F32,
            access: AccessSet::default(),
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(Replay::of(&rec("lamb.stage1", Category::LambStage1), &mut rng).unwrap().is_none());
        let err = Replay::of(&rec("l3.fc1.gemm.recompute", Category::FcGemm), &mut rng);
        assert!(err.err().unwrap().contains("l3.fc1.gemm.recompute"));
        assert_eq!(call_key("l12.attn.context.grad_v.bwd"), "attn.context.grad_v.bwd");
        assert_eq!(call_key("lamb.stage1"), "lamb.stage1");
        assert_eq!(call_key("mlm.decoder.gemm.fwd"), "mlm.decoder.gemm.fwd");
    }
}
