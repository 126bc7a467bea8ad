//! The three benchmark workloads, why each exists, and which layer each one
//! loads.
//!
//! Every workload runs closed loop: the next step is issued when the
//! previous one returns. Each runs from one process with at most two busy
//! threads (the host has two).
//!
//! # Layer to end-to-end mapping
//!
//! | layer (module) | per-layer metrics | should move | loaded by | little or none in |
//! |---|---|---|---|---|
//! | `train::trainer` | `trainer.micro_step_ms`, `trainer.self_ms` | `step_ms_p50` | p1 (a window closes every step) | p2 |
//! | `train::bert` + `train::graph` | `bert.train_step_ms` | `step_ms_p50`, `tokens_per_s` | p1, p2 | dp2 |
//! | `kernels` (non-GEMM) | `kernels.non_gemm_ms` | `step_ms_p50` | p2 | dp2 |
//! | `tensor::gemm` | `gemm.{attn_linear,attn_bgemm,fc,output}.{ms,gflops}` | `step_ms_p50` | `attn_bgemm`: p2; `fc`, `attn_linear`: p1 | dp2 |
//! | `tensor::trace` | `ops.kernels`, `ops.gflop`, `ops.mb`, `ops.gflop.{transformer,embedding,output,lamb}` | `step_ms_p50` | p1, p2 | — |
//! | `tensor::sched` | `sched.{tasks,depth,max_width,achieved_parallelism,busy_ms,elapsed_ms}` | `tokens_per_s`, `step_ms_p50` | p2 | p1 (eager) |
//! | `tensor::pool` | `pool.step_ms_1t`, `pool.speedup_2t` | `tokens_per_s` | p1, p2 | dp2 (below the parallel threshold) |
//! | `tensor::alloc` | `alloc.{fresh_per_step,acquisitions_per_step,reuse_ratio,peak_mb}` | `peak_live_mb`, `setup_s` | p1, p2 | — |
//! | `train::optim` | `optim.lamb_ms` | `tokens_per_s` | p1 | p2 (one update per four micro-steps) |
//! | `train::scaler` | `scaler.unscale_check_ms`, `scaler.skipped_windows` | `tokens_per_s`, `error_rate` | p2 | p1 |
//! | `dist::proc::ring` + `transport` | `ring.{collectives_per_update,wire_kb_per_update,collective_us_p50,collective_us_p90,isolated_us_p50,exposed_us_p50,retries}` | `updates_per_s`, `error_rate` | dp2 | p1, p2 |
//! | `train::checkpoint` | `checkpoint.{capture_ms,save_ms,kb}` | `updates_per_s`, `setup_s` | dp2 | p1, p2 |
//! | `dist::proc::supervisor` | `cluster.restarts`, `cluster.epochs` | `error_rate` | dp2 | p1, p2 |
//!
//! Two of these are derived rather than timed directly:
//!
//! - `trainer.self_ms` is an approximation of the trainer's self time. It
//!   is the trainer's micro-step minus a second replica's separately timed
//!   `Bert::train_step` and, on a window-closing step, minus that replica's
//!   `LossScaler::unscale_check` and `Lamb::step`. These are sibling calls on
//!   other weights, not child spans of the micro-step, which the benchmark
//!   cannot open inside `Trainer`. The value is the small difference of two
//!   noisy samples and can read below zero, so the traced run prints the
//!   quartiles of the per-iteration differences beside the median.
//! - `kernels.non_gemm_ms` is `bert.train_step_ms` minus the `gemm.*.ms`
//!   replays, which `replay.rs` makes in the layout and operand precision
//!   of each kernel's call. The run fails the check
//!   `gemm_replays_within_step` if the replays add up to more than the step.
//!
//! # Modules without a workload
//!
//! `model`, `sim`, `device`, `check` and `core` serve figure reproduction
//! and static checks, not a training run, and no open optimisation targets
//! them; they get no workload.

use bertscope_model::{BertConfig, Precision};
use bertscope_train::{LossScaler, TrainOptions};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of every tuning run, for verifying a later claim on data
/// the change was not written against.
pub const HELD_OUT_SEED: u64 = 7919;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Phase 1 in FP32, eager, one micro-step per update: the plain
    /// single-worker baseline. Square FC and linear GEMMs and the pool's
    /// row-chunk parallelism do most of the work, and LAMB runs every step;
    /// the scheduler, loss scaler, ring and checkpointing are bypassed.
    P1Fp32,
    /// Phase 2 at matched tokens in mixed precision through the task-graph
    /// scheduler, four micro-steps per update. Attention batched GEMMs and
    /// softmax over 512x512 scores dominate, and the linear and FC GEMMs
    /// pack half-precision panels (the attention GEMMs get an f32 operand,
    /// so they do not); every micro-step dispatches through `tensor::sched`,
    /// and LAMB runs once per four micro-steps.
    P2Mixed,
    /// A two-rank thread cluster with backward/AllReduce overlap and a
    /// checkpoint every update, on the tiny model. Model compute is about
    /// 2 ms per micro-step, so the ring, transport, control plane and
    /// checkpoint save carry the work, while the kernels run at tiny,
    /// latency-bound shapes where added per-call overhead shows.
    Dp2Overlap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::P1Fp32, Workload::P2Mixed, Workload::Dp2Overlap];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::P1Fp32 => "p1-fp32",
            Workload::P2Mixed => "p2-mixed",
            Workload::Dp2Overlap => "dp2-overlap",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The training recipe the workload runs on one rank. For dp2 this is
    /// what each rank of the cluster trains, which the traced run times
    /// standalone.
    pub fn recipe(self) -> TrainRecipe {
        // d_head = 128 / 2 = 64, so the attention batched GEMMs take the
        // paper's shapes: 128x128x64 in Phase 1 and 512x512x64 in Phase 2.
        let model = BertConfig {
            layers: 2,
            d_model: 128,
            heads: 2,
            d_ff: 512,
            vocab: 1000,
            max_position: 512,
            seq_len: 128,
            batch: 4,
        };
        match self {
            Workload::P1Fp32 => TrainRecipe {
                model,
                options: TrainOptions::default(),
                lr: 0.001,
                accumulation: 1,
                scaler: LossScaler::none(),
            },
            Workload::P2Mixed => TrainRecipe {
                model: model.phase2(1),
                options: TrainOptions {
                    precision: Precision::Mixed,
                    graph: true,
                    ..TrainOptions::default()
                },
                lr: 0.001,
                accumulation: 4,
                scaler: LossScaler::dynamic(1024.0),
            },
            // What `dist::proc::worker` trains when overlap is on.
            Workload::Dp2Overlap => TrainRecipe {
                model: BertConfig::tiny(),
                options: TrainOptions { deferred: true, graph: true, ..TrainOptions::default() },
                lr: 0.01,
                accumulation: DP2_ACCUMULATION,
                scaler: LossScaler::none(),
            },
        }
    }
}

/// Ranks in the dp2 cluster.
pub const DP2_WORLD: usize = 2;

/// Micro-steps per update on each dp2 rank (`ClusterConfig::new`'s
/// default, pinned so the workload does not follow a change of default).
pub const DP2_ACCUMULATION: usize = 2;

/// Gradient bucket size of the dp2 ring, in f32 elements: the tiny model's
/// gradients span six 16 KiB buckets, so overlap has collectives to hide.
pub const DP2_BUCKET_ELEMS: usize = 4096;

/// Model, options, optimizer and loss scaling of one training replica.
#[derive(Debug, Clone)]
pub struct TrainRecipe {
    /// Model and batch shape.
    pub model: BertConfig,
    /// Execution options.
    pub options: TrainOptions,
    /// LAMB learning rate.
    pub lr: f32,
    /// Micro-steps per optimizer update.
    pub accumulation: usize,
    /// Loss scaler the trainer starts with.
    pub scaler: LossScaler,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_manifest_order() {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["p1-fp32", "p2-mixed", "dp2-overlap"]);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("p3"), None);
    }

    #[test]
    fn phases_train_matched_tokens_at_the_papers_attention_shapes() {
        let p1 = Workload::P1Fp32.recipe();
        let p2 = Workload::P2Mixed.recipe();
        assert_eq!(p1.model.tokens(), 512);
        assert_eq!(p2.model.tokens(), 512);
        assert_eq!((p1.model.seq_len, p2.model.seq_len), (128, 512));
        assert_eq!(p1.model.head_dim(), 64);
        assert_eq!(p2.model.head_dim(), 64);
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }
}
