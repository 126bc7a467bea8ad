//! One training replica: the closed-loop micro-step window the p1/p2
//! end-to-end runs time, and the traced loop that times each layer's
//! public entry point on the workload's own inputs (also run for dp2, on
//! what each of its ranks trains).

use crate::host;
use crate::replay::{Replay, GEMM_CLASSES};
use crate::spans::Spans;
use crate::speed::Reference;
use crate::stats::{
    loss_falls, median, Checks, EndToEnd, Tally, Timed, Values, LOSS_ENDS, MIN_SAMPLES, PER_LAYER,
    WINDOW_LIMIT,
};
use crate::workloads::TrainRecipe;
use bertscope_tensor::{alloc, pool, sched, Group, OpRecord, Tensor, Tracer};
use bertscope_train::{
    Bert, Lamb, Optimizer, PretrainBatch, StepOutput, StepResult, SyntheticCorpus, TrainError,
    Trainer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Pool threads every training run uses: the host's two cores.
pub const POOL_THREADS: usize = 2;

/// Accumulation windows run untimed after set-up, before any timing.
const WARMUP_WINDOWS: usize = 1;

/// Fewest samples of each of its three modes the traced loop takes: enough
/// that the loop alone trains the `2 * LOSS_ENDS` micro-steps `loss_falls`
/// compares.
const MIN_TRACED_SAMPLES: usize = (2 * LOSS_ENDS).div_ceil(3);

/// Mixed into the seed of the data stream, so data and weights are drawn
/// from different streams.
const DATA_STREAM: u64 = 0x5eed_da7a;

/// A model, its trainer and its deterministic batch stream.
pub struct TrainRun {
    recipe: TrainRecipe,
    /// The model being trained.
    pub bert: Bert,
    /// The trainer driving it.
    pub trainer: Trainer<Lamb>,
    corpus: SyntheticCorpus,
    rng: StdRng,
    /// Loss of every micro-step so far.
    losses: Vec<f32>,
    /// Micro-steps that returned an error.
    errors: u64,
}

impl TrainRun {
    /// Build the model and trainer of `recipe`; `seed` draws the weights
    /// and the batches.
    pub fn new(recipe: &TrainRecipe, seed: u64) -> TrainRun {
        TrainRun {
            recipe: recipe.clone(),
            bert: Bert::new(recipe.model, recipe.options, seed),
            trainer: Trainer::new(Lamb::new(recipe.lr), recipe.accumulation)
                .with_scaler(recipe.scaler.clone()),
            corpus: SyntheticCorpus::new(recipe.model.vocab),
            rng: StdRng::seed_from_u64(seed ^ DATA_STREAM),
            losses: Vec::new(),
            errors: 0,
        }
    }

    /// The next batch of the stream.
    pub fn next_batch(&mut self) -> PretrainBatch {
        self.corpus.generate_batch(&mut self.rng, &self.recipe.model)
    }

    /// One micro-step on `batch`, recording its loss or its error.
    pub fn step(
        &mut self,
        tracer: &mut Tracer,
        batch: &PretrainBatch,
    ) -> Result<(StepOutput, StepResult), TrainError> {
        let out = self.trainer.micro_step(tracer, &mut self.bert, batch);
        match &out {
            Ok((o, _)) => self.losses.push(o.loss),
            Err(_) => self.errors += 1,
        }
        out
    }

    /// Run `windows` whole accumulation windows untimed.
    pub fn run_windows(&mut self, windows: usize) -> Result<(), TrainError> {
        for _ in 0..windows * self.recipe.accumulation {
            let batch = self.next_batch();
            self.step(&mut Tracer::disabled(), &batch)?;
        }
        Ok(())
    }

    /// Check that every loss is finite, the loss fell, every micro-step
    /// succeeded and every closed window applied its update; count the
    /// micro-steps as attempted and the errored or skipped ones as failed.
    pub fn check(&self, checks: &mut Checks, tally: &mut Tally) {
        let micro = self.trainer.micro_steps();
        let skipped = self.trainer.skipped_updates();
        let accumulation = self.recipe.accumulation as u64;
        checks.require("micro_steps_succeed", self.errors == 0, || {
            format!("{} micro-steps returned an error", self.errors)
        });
        checks.require("losses_finite", self.losses.iter().all(|l| l.is_finite()), || {
            "a micro-step returned a non-finite loss".into()
        });
        checks.require("loss_falls", loss_falls(&self.losses), || {
            format!("loss did not fall over {} micro-steps", self.losses.len())
        });
        checks.require(
            "expected_updates",
            skipped == 0 && self.trainer.updates() == micro / accumulation,
            || {
                format!(
                    "{} updates and {skipped} skipped windows after {micro} micro-steps \
                     of {accumulation}",
                    self.trainer.updates()
                )
            },
        );
        tally.add(micro, (self.errors + skipped * accumulation).min(micro));
    }
}

/// Time from before model construction to the first completed update, in
/// seconds.
pub fn setup_sample(recipe: &TrainRecipe, seed: u64) -> Result<f64, TrainError> {
    pool::with_threads(POOL_THREADS, || {
        let start = Instant::now();
        let mut run = TrainRun::new(recipe, seed);
        run.run_windows(1)?;
        let elapsed = start.elapsed().as_secs_f64();
        if run.trainer.updates() == 1 {
            Ok(elapsed)
        } else {
            Err(TrainError::InvalidState("the first window did not update".into()))
        }
    })
}

/// Set up, warm up, then time micro-steps in closed loop for `seconds`
/// and at least [`MIN_SAMPLES`] steps, each after a host-speed reference
/// sample and with the CPU time stolen during it. `loss_final` is the loss
/// of the window's `MIN_SAMPLES`-th micro-step, a fixed step for a given
/// seed.
pub fn end_to_end(
    recipe: &TrainRecipe,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    tally: &mut Tally,
) -> EndToEnd {
    pool::with_threads(POOL_THREADS, || {
        let mut run = TrainRun::new(recipe, seed);
        let mut e = EndToEnd::new(1);
        let mut reference = Reference::default();
        if run.run_windows(1 + WARMUP_WINDOWS).is_ok() {
            let first = run.losses.len();
            let start = Instant::now();
            while (start.elapsed().as_secs_f64() < seconds || e.samples.len() < MIN_SAMPLES)
                && start.elapsed() < WINDOW_LIMIT
            {
                let batch = run.next_batch();
                let reference_ms = reference.sample_ms();
                let (step, wall_s, stolen_s) =
                    host::timed(|| run.step(&mut Tracer::disabled(), &batch));
                let Ok((_, result)) = step else { break };
                e.samples.push(Timed { wall_s, stolen_s, reference_ms });
                e.tokens += recipe.model.tokens() as f64;
                e.updates += f64::from(u8::from(result.updated()));
            }
            e.loss_final = run.losses.get(first + MIN_SAMPLES - 1).map_or(f64::NAN, |&l| l.into());
        }
        run.check(checks, tally);
        e
    })
}

/// The traced run of one replica. It sets up and warms up as the
/// end-to-end run does, traces one whole accumulation window for exact
/// operation counts, then cycles through three kinds of micro-step until
/// `seconds` have passed: untraced at two threads (timing, allocator and
/// scheduler counters), untraced with the pool pinned to one thread, and
/// traced, where the benchmark also calls `Bert::train_step`,
/// `LossScaler::unscale_check`, `Lamb::step` and every recorded GEMM on a
/// second replica fed the same batch, each inside its own span.
pub fn traced(
    recipe: &TrainRecipe,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
    tally: &mut Tally,
) -> Values {
    pool::with_threads(POOL_THREADS, || {
        let mut v = Values::default();
        let mut run = TrainRun::new(recipe, seed);
        if spans.time("setup", |_| run.run_windows(1 + WARMUP_WINDOWS)).is_ok() {
            let accumulation = recipe.accumulation as f64;
            let mut window = Tracer::new();
            spans.time("window.traced", |_| {
                for _ in 0..recipe.accumulation {
                    let batch = run.next_batch();
                    let _ = run.step(&mut window, &batch);
                }
            });
            operation_counts(&window, accumulation, &mut v);
            interleaved(&mut run, recipe, seed, seconds, spans, checks, &mut v);
        }
        v.set("scaler.skipped_windows", run.trainer.skipped_updates() as f64);
        run.check(checks, tally);
        v
    })
}

/// `ops.*`: exact operation counts per micro-step of one traced window.
fn operation_counts(window: &Tracer, micro_steps: f64, v: &mut Values) {
    let per_step = |x: u64| x as f64 / micro_steps;
    let records = window.records();
    v.set("ops.kernels", per_step(records.len() as u64));
    v.set("ops.gflop", per_step(records.iter().map(|r| r.flops).sum()) / 1e9);
    v.set("ops.mb", per_step(records.iter().map(OpRecord::bytes_total).sum()) / 1e6);
    let groups = window.by_group();
    for (name, group) in [
        ("ops.gflop.transformer", Group::Transformer),
        ("ops.gflop.embedding", Group::Embedding),
        ("ops.gflop.output", Group::Output),
        ("ops.gflop.lamb", Group::Lamb),
    ] {
        v.set(name, per_step(groups.get(&group).map_or(0, |t| t.flops)) / 1e9);
    }
}

/// The three-mode cycle of [`traced`], and the metrics it yields.
#[allow(clippy::too_many_lines)]
fn interleaved(
    run: &mut TrainRun,
    recipe: &TrainRecipe,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) {
    let mut replica = Bert::new(recipe.model, recipe.options, seed);
    let mut lamb = Lamb::new(recipe.lr);
    let mut replays: Vec<Replay> = Vec::new();
    let mut replay_rng = StdRng::seed_from_u64(seed);
    // Micro-step times untraced at two threads and at one thread.
    let (mut two, mut one): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut traced_closed: Vec<bool> = Vec::new();
    let (mut fresh, mut reuses, mut acquisitions) = (0u64, 0u64, 0u64);
    let mut peak_mib: Vec<f64> = Vec::new();
    let mut sched_runs: Vec<sched::RunReport> = Vec::new();
    let start = Instant::now();
    for k in 0usize.. {
        let enough =
            [two.len(), one.len(), traced_closed.len()].iter().all(|&n| n >= MIN_TRACED_SAMPLES);
        if (enough && start.elapsed().as_secs_f64() >= seconds) || start.elapsed() >= WINDOW_LIMIT {
            break;
        }
        let batch = run.next_batch();
        match k % 3 {
            0 => {
                let before = alloc::stats();
                alloc::reset_peak();
                sched::start_capture();
                let began = Instant::now();
                let step = run.step(&mut Tracer::disabled(), &batch);
                let took = began.elapsed();
                sched_runs.extend(sched::take_captured());
                let after = alloc::stats();
                if step.is_err() {
                    break;
                }
                two.push(took.as_secs_f64() * 1e3);
                fresh += after.fresh_allocs - before.fresh_allocs;
                reuses += after.reuses - before.reuses;
                acquisitions += after.acquisitions() - before.acquisitions();
                peak_mib.push(after.peak_bytes as f64 / (1024.0 * 1024.0));
            }
            1 => {
                let began = Instant::now();
                let step = pool::with_threads(1, || run.step(&mut Tracer::disabled(), &batch));
                let took = began.elapsed();
                if step.is_err() {
                    break;
                }
                one.push(took.as_secs_f64() * 1e3);
            }
            _ => {
                let called = spans.time("iteration", |s| {
                    let mut tracer = Tracer::new();
                    let step = s.time("trainer.micro_step", |_| run.step(&mut tracer, &batch));
                    // A failed micro-step is counted by `TrainRun::check`.
                    let Ok((_, result)) = step else { return Ok(()) };
                    let scaler = run.trainer.scaler().clone();
                    replica.set_loss_scale(scaler.scale());
                    let mut rt = Tracer::new();
                    s.time("bert.train_step", |_| replica.train_step(&mut rt, &batch))
                        .map_err(|e| format!("the replica's train step failed: {e}"))?;
                    let grads: Vec<Tensor> =
                        replica.param_slots().iter().map(|p| p.grad.clone()).collect();
                    s.time("scaler.unscale_check", |_| {
                        black_box(scaler.unscale_check(&mut Tracer::disabled(), &grads));
                    });
                    lamb.set_grad_scale(scaler.scale());
                    s.time("optim.lamb_step", |_| {
                        lamb.step(&mut Tracer::disabled(), &mut replica.param_slots());
                    });
                    if replays.is_empty() {
                        replays = rt
                            .records()
                            .iter()
                            .filter_map(|r| Replay::of(r, &mut replay_rng).transpose())
                            .collect::<Result<_, _>>()?;
                    }
                    // The step's kernels run inside scheduler tasks, one
                    // thread each, when it executes as a task graph.
                    let graph = recipe.options.graph;
                    let replayed = s.time("gemm.replay", |s| {
                        GEMM_CLASSES.iter().enumerate().all(|(class, c)| {
                            s.time(c.span, |_| {
                                let all = || {
                                    replays
                                        .iter()
                                        .filter(|r| r.class == class)
                                        .all(|r| black_box(r.run()).is_ok())
                                };
                                if graph {
                                    pool::run_isolated(all)
                                } else {
                                    all()
                                }
                            })
                        })
                    });
                    traced_closed.push(result != StepResult::Accumulated);
                    if replayed {
                        Ok(())
                    } else {
                        Err("a GEMM replay returned an error".into())
                    }
                });
                let failed = called.is_err();
                checks.require("layer_calls_succeed", !failed, || called.unwrap_err());
                if failed || run.errors > 0 {
                    break;
                }
            }
        }
    }
    if two.is_empty() || one.is_empty() || traced_closed.is_empty() {
        return;
    }

    let two_ms = median(&two);
    let one_ms = median(&one);
    let micro = spans.durations_ms("trainer.micro_step");
    let train = spans.durations_ms("bert.train_step");
    let lamb_ms = spans.durations_ms("optim.lamb_step");
    let unscale = spans.durations_ms("scaler.unscale_check");
    // The trainer's own work, approximately: its micro-step minus the model
    // step and, on a window-closing step, the scaler check and optimizer
    // update, each timed separately on the replica. These are sibling calls
    // on other weights, not child spans of the micro-step, so each
    // difference is small against the noise of the two samples and can read
    // below zero; its quartiles are printed beside the median.
    let trainer_self: Vec<f64> = (0..traced_closed.len())
        .map(|i| {
            let closing = if traced_closed[i] { lamb_ms[i] + unscale[i] } else { 0.0 };
            micro[i] - train[i] - closing
        })
        .collect();
    let mut sorted = trainer_self.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "trainer.self_ms: median {:.3} ms of {} per-iteration differences, quartiles {:.3} \
         and {:.3} ms",
        median(&sorted),
        sorted.len(),
        sorted[sorted.len() / 4],
        sorted[sorted.len() * 3 / 4],
    );
    let train_ms = median(&train);
    v.set("trainer.micro_step_ms", median(&micro));
    v.set("trainer.self_ms", median(&trainer_self));
    v.set("bert.train_step_ms", train_ms);
    let mut gemm_total = 0.0;
    for (class, c) in GEMM_CLASSES.iter().enumerate() {
        let ms = median(&spans.durations_ms(c.span));
        let flops: u64 = replays.iter().filter(|r| r.class == class).map(|r| r.flops).sum();
        gemm_total += ms;
        v.set(c.ms, ms);
        v.set(c.gflops, if ms > 0.0 { flops as f64 / (ms * 1e6) } else { 0.0 });
    }
    checks.require("gemm_replays_within_step", gemm_total <= train_ms, || {
        format!(
            "the GEMM replays of one step take {gemm_total:.3} ms, more than the whole \
             {train_ms:.3} ms step"
        )
    });
    v.set("kernels.non_gemm_ms", train_ms - gemm_total);
    v.set("optim.lamb_ms", median(&lamb_ms));
    v.set("scaler.unscale_check_ms", median(&unscale));
    v.set("pool.step_ms_1t", one_ms);
    v.set("pool.speedup_2t", one_ms / two_ms);
    v.set("trace.overhead", median(&micro) / two_ms - 1.0);

    let steps = two.len() as f64;
    v.set("alloc.fresh_per_step", fresh as f64 / steps);
    v.set("alloc.acquisitions_per_step", acquisitions as f64 / steps);
    v.set(
        "alloc.reuse_ratio",
        if acquisitions == 0 { 0.0 } else { reuses as f64 / acquisitions as f64 },
    );
    v.set("alloc.peak_mb", median(&peak_mib));

    let busy: u64 = sched_runs.iter().flat_map(|r| &r.task_ns).sum();
    let elapsed: u64 = sched_runs.iter().map(|r| r.elapsed_ns).sum();
    let tasks: usize = sched_runs.iter().map(|r| r.labels.len()).sum();
    v.set("sched.tasks", tasks as f64 / steps);
    v.set("sched.depth", sched_runs.iter().map(|r| r.depth).max().unwrap_or(0) as f64);
    v.set("sched.max_width", sched_runs.iter().map(|r| r.max_width).max().unwrap_or(0) as f64);
    v.set(
        "sched.achieved_parallelism",
        if elapsed == 0 { 0.0 } else { busy as f64 / elapsed as f64 },
    );
    v.set("sched.busy_ms", busy as f64 / 1e6 / steps);
    v.set("sched.elapsed_ms", elapsed as f64 / 1e6 / steps);
}

/// Set the ring, checkpoint and cluster metrics to 0, for a workload that
/// runs no cluster.
pub fn bypassed_distributed_layers(v: &mut Values) {
    let cluster_layers = ["ring.", "checkpoint.", "cluster."];
    for d in PER_LAYER.iter().filter(|d| cluster_layers.iter().any(|p| d.name.starts_with(p))) {
        v.set(d.name, 0.0);
    }
}
