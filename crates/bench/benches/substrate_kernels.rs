//! Criterion benchmarks of the executable substrate's kernels: the GEMM
//! shapes of paper Table 2b/Fig. 6 and the memory-bound non-GEMM kernels of
//! Fig. 7, measured for real on the host CPU.
//!
//! Absolute numbers are host-CPU numbers (the paper's absolute numbers are
//! GPU numbers); what carries over is the *relative structure*: FC GEMMs
//! dwarf attention B-GEMMs, elementwise kernels are cheap per element, and
//! the fused QKV GEMM beats three serial ones.

use bertscope_kernels::activation::gelu_fwd;
use bertscope_kernels::attention::{attention_fwd, AttentionConfig, AttentionParams};
use bertscope_kernels::dropout::dropout_fwd;
use bertscope_kernels::norm::{layernorm_fwd, softmax_fwd};
use bertscope_kernels::KernelCtx;
use bertscope_tensor::init::randn;
use bertscope_tensor::{batched_gemm, gemm, Category, DType, Phase, Tensor, Tracer, Transpose};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scaled-down BERT shapes: 1/8 of BERT-Large in each matrix dimension so a
/// bench iteration stays in the milliseconds on a CPU.
const D_MODEL: usize = 128;
const D_FF: usize = 512;
const TOKENS: usize = 512;
const SEQ: usize = 64;
const HEADS: usize = 8;

fn rng() -> StdRng {
    StdRng::seed_from_u64(42)
}

fn bench_gemm_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_shapes");
    let mut r = rng();
    // FC-1-like: the most compute-intense GEMM.
    let x = randn(&mut r, &[TOKENS, D_MODEL], 1.0);
    let w_fc = randn(&mut r, &[D_MODEL, D_FF], 0.05);
    group.throughput(Throughput::Elements((2 * TOKENS * D_MODEL * D_FF) as u64));
    group.bench_function("fc1_like", |b| {
        b.iter(|| gemm(Transpose::No, Transpose::No, 1.0, &x, &w_fc, 0.0, None).unwrap())
    });
    // Linear-projection-like.
    let w_lin = randn(&mut r, &[D_MODEL, D_MODEL], 0.05);
    group.throughput(Throughput::Elements((2 * TOKENS * D_MODEL * D_MODEL) as u64));
    group.bench_function("linear_like", |b| {
        b.iter(|| gemm(Transpose::No, Transpose::No, 1.0, &x, &w_lin, 0.0, None).unwrap())
    });
    // Attention-score-like batched GEMM: many small matrices.
    let bh = (TOKENS / SEQ) * HEADS;
    let dh = D_MODEL / HEADS;
    let q = randn(&mut r, &[bh, SEQ, dh], 1.0);
    let k = randn(&mut r, &[bh, SEQ, dh], 1.0);
    group.throughput(Throughput::Elements((2 * bh * SEQ * SEQ * dh) as u64));
    group.bench_function("attn_score_bgemm", |b| {
        b.iter(|| batched_gemm(Transpose::No, Transpose::Yes, 1.0, &q, &k).unwrap())
    });
    group.finish();
}

fn bench_memory_bound_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_bound_kernels");
    let mut r = rng();
    let x = randn(&mut r, &[TOKENS, D_FF], 1.0);
    let gelu_ctx = KernelCtx::new("gelu", Category::Gelu, Phase::Forward);
    group.throughput(Throughput::Elements((TOKENS * D_FF) as u64));
    group.bench_function("gelu", |b| {
        b.iter(|| {
            let mut t = Tracer::disabled();
            gelu_fwd(&mut t, &gelu_ctx, &x).unwrap()
        })
    });
    let xs = randn(&mut r, &[TOKENS, D_MODEL], 1.0);
    let sm_ctx = KernelCtx::new("sm", Category::ScaleMaskSoftmaxDropout, Phase::Forward);
    group.throughput(Throughput::Elements((TOKENS * D_MODEL) as u64));
    group.bench_function("softmax", |b| {
        b.iter(|| {
            let mut t = Tracer::disabled();
            softmax_fwd(&mut t, &sm_ctx, &xs).unwrap()
        })
    });
    let gamma = Tensor::ones(&[D_MODEL]);
    let beta = Tensor::zeros(&[D_MODEL]);
    let ln_ctx = KernelCtx::new("ln", Category::DropResidualNorm, Phase::Forward);
    group.bench_function("layernorm", |b| {
        b.iter(|| {
            let mut t = Tracer::disabled();
            layernorm_fwd(&mut t, &ln_ctx, &xs, &gamma, &beta, 1e-5).unwrap()
        })
    });
    let dr_ctx = KernelCtx::new("dr", Category::ScaleMaskSoftmaxDropout, Phase::Forward);
    group.bench_function("dropout", |b| {
        b.iter(|| {
            let mut t = Tracer::disabled();
            dropout_fwd(&mut t, &dr_ctx, &xs, 0.1, 7).unwrap()
        })
    });
    group.finish();
}

fn bench_attention_fused_vs_serial(c: &mut Criterion) {
    // The paper's Fig. 12b subject, measured on real execution.
    let mut group = c.benchmark_group("attention_qkv_fusion");
    let mut r = rng();
    let d = D_MODEL;
    let params = AttentionParams {
        wq: randn(&mut r, &[d, d], 0.05),
        bq: Tensor::zeros(&[d]),
        wk: randn(&mut r, &[d, d], 0.05),
        bk: Tensor::zeros(&[d]),
        wv: randn(&mut r, &[d, d], 0.05),
        bv: Tensor::zeros(&[d]),
        wo: randn(&mut r, &[d, d], 0.05),
        bo: Tensor::zeros(&[d]),
    };
    let x = randn(&mut r, &[TOKENS, d], 1.0);
    for fused in [false, true] {
        let cfg = AttentionConfig {
            batch: TOKENS / SEQ,
            seq: SEQ,
            heads: HEADS,
            d_model: d,
            dropout_p: 0.0,
            fused_qkv: fused,
            fused_epilogue: false,
            dtype: DType::F32,
            layer: 0,
            ..AttentionConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("attention_fwd", if fused { "fused_qkv" } else { "serial_qkv" }),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut t = Tracer::disabled();
                    attention_fwd(&mut t, cfg, &params, &x, None, 0).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_half_precision_quantization(c: &mut Criterion) {
    let mut group = c.benchmark_group("precision");
    let mut r = rng();
    let x = randn(&mut r, &[TOKENS, D_MODEL], 1.0);
    group.throughput(Throughput::Elements((TOKENS * D_MODEL) as u64));
    group.bench_function("f16_round_trip", |b| b.iter(|| x.to_dtype(DType::F16)));
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm_shapes, bench_memory_bound_kernels, bench_attention_fused_vs_serial,
              bench_half_precision_quantization
);
criterion_main!(benches);
