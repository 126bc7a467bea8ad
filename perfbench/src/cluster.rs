//! The dp2-overlap workload: repeated two-rank thread clusters with
//! backward/AllReduce overlap and a checkpoint on rank 0 every update.

use crate::host;
use crate::spans::Spans;
use crate::speed::Reference;
use crate::stats::{
    median, percentile, Checks, EndToEnd, Tally, Timed, Values, MIN_SAMPLES, WINDOW_LIMIT,
};
use crate::train::TrainRun;
use crate::workloads::{Workload, DP2_ACCUMULATION, DP2_BUCKET_ELEMS, DP2_WORLD};
use bertscope_dist::proc::ring::form_ring;
use bertscope_dist::proc::worker::batch_for;
use bertscope_dist::{run_thread_cluster, ClusterConfig, ClusterReport, DistError, RingConfig};
use bertscope_kernels::loss::IGNORE_INDEX;
use bertscope_tensor::Tracer;
use bertscope_train::{Bert, Lamb, SyntheticCorpus, TrainCheckpoint, TrainError, Trainer};
use std::net::TcpListener;
use std::path::Path;
use std::time::Instant;

/// Updates each timed cluster run trains. Every run is one timed sample,
/// so runs are kept short enough that a window holds at least
/// [`MIN_SAMPLES`] of them.
pub const UPDATES_PER_RUN: u64 = 3;

/// Updates of the one longer cluster run the traced run reads ring
/// statistics from: 6 buckets x 2 ranks x 20 updates = 240 collectives.
const TRACE_UPDATES: u64 = 20;

/// Collectives timed on the standalone ring.
const ISOLATED_COLLECTIVES: usize = 200;

/// Checkpoints captured and saved standalone.
const CHECKPOINT_SAMPLES: usize = 12;

/// The dp2 cluster: two ranks, `ClusterConfig::new`'s defaults (tiny model,
/// two-step accumulation, checkpoint on rank 0 every update), plus overlap
/// and 4096-element buckets. Checkpoints go to `dir`.
pub fn config(seed: u64, updates: u64, dir: &Path) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(DP2_WORLD, updates, dir.to_path_buf());
    cfg.accumulation = DP2_ACCUMULATION;
    cfg.overlap = true;
    cfg.ring.bucket_elems = DP2_BUCKET_ELEMS;
    cfg.seed = seed;
    cfg
}

/// Run one cluster, check its report and count its operations: every
/// collective and update attempted; collectives that needed a transport
/// retry and updates lost to a recovery incident failed. Returns the
/// report with the run's wall time and the CPU time stolen meanwhile, in
/// seconds.
fn run_checked(
    cfg: &ClusterConfig,
    checks: &mut Checks,
    tally: &mut Tally,
) -> Option<(ClusterReport, f64, f64)> {
    let (result, wall_s, stolen_s) = host::timed(|| run_thread_cluster(cfg));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            checks.require("cluster_runs", false, || e.to_string());
            tally.add(cfg.total_updates, cfg.total_updates);
            return None;
        }
    };
    let target = cfg.total_updates;
    checks.require("cluster_updates", report.updates == target, || {
        format!("{} updates of {target}", report.updates)
    });
    checks.require("cluster_world", report.final_world == DP2_WORLD, || {
        format!("final world {} of {DP2_WORLD}", report.final_world)
    });
    checks.require("cluster_restarts", report.restarts == 0, || {
        format!("{} restarts", report.restarts)
    });
    let stats = report.worker_reports.iter().flat_map(|w| &w.ring_stats);
    let collectives = stats.clone().count() as u64;
    let retried = stats
        .filter(|s| s.transport.retries + s.transport.timeouts + s.transport.corrupt_frames > 0)
        .count() as u64;
    let lost = (report.events.len() as u64).min(target);
    tally.add(collectives + target, retried + lost);
    Some((report, wall_s, stolen_s))
}

/// Batches per rank the final weights are evaluated on: the first
/// [`EVAL_BATCHES`] of each rank's stream, which include every batch the
/// run trained on.
const EVAL_BATCHES: u64 = 64;

/// Loss of `bert` over the evaluation batches, in nats: masked-LM
/// cross-entropy averaged over every masked token plus next-sentence
/// cross-entropy averaged over every batch. A tiny batch holds about four
/// masked tokens, some none, so the masked-LM term is weighted by token
/// rather than by batch.
fn eval_loss(seed: u64, bert: &mut Bert) -> Result<f64, String> {
    let model = Workload::Dp2Overlap.recipe().model;
    let corpus = SyntheticCorpus::new(model.vocab);
    let (mut mlm, mut masked, mut nsp) = (0.0, 0usize, 0.0);
    for rank in 0..DP2_WORLD {
        for attempt in 1..=EVAL_BATCHES {
            let batch = batch_for(&corpus, &model, seed, rank, attempt);
            let out = bert.evaluate(&mut Tracer::disabled(), &batch).map_err(|e| e.to_string())?;
            let tokens = batch.mlm_targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
            mlm += f64::from(out.mlm_loss) * tokens as f64;
            masked += tokens;
            nsp += f64::from(out.nsp_loss);
        }
    }
    Ok(mlm / masked.max(1) as f64 + nsp / (DP2_WORLD as u64 * EVAL_BATCHES) as f64)
}

/// The evaluation loss of the weights every rank starts from, and of the
/// weights in the checkpoint at `path`.
fn initial_and_final_loss(seed: u64, path: &Path) -> Result<(f64, f64), String> {
    let recipe = Workload::Dp2Overlap.recipe();
    let mut bert = Bert::new(recipe.model, recipe.options, seed);
    let initial = eval_loss(seed, &mut bert)?;
    let ckpt = TrainCheckpoint::load(path).map_err(|e| e.to_string())?;
    Trainer::new(Lamb::new(recipe.lr), recipe.accumulation)
        .restore(&ckpt, &mut bert)
        .map_err(|e| e.to_string())?;
    Ok((initial, eval_loss(seed, &mut bert)?))
}

/// Wall time of a cluster configured for one update, in seconds.
pub fn setup_sample(seed: u64, dir: &Path) -> Result<f64, DistError> {
    let began = Instant::now();
    let report = run_thread_cluster(&config(seed, 1, dir))?;
    let wall = began.elapsed().as_secs_f64();
    if report.updates == 1 {
        Ok(wall)
    } else {
        Err(DistError::Protocol(format!("{} updates of 1", report.updates)))
    }
}

/// Run clusters of [`UPDATES_PER_RUN`] updates back to back for `seconds`
/// and at least [`MIN_SAMPLES`] runs, each after a host-speed reference
/// sample and with the CPU time stolen during it. A step is one update:
/// each run's wall time divided by its updates. Every run must end with
/// the same weights; `loss_final` is their mean loss over a fixed set of
/// batches.
pub fn end_to_end(
    seed: u64,
    seconds: f64,
    dir: &Path,
    checks: &mut Checks,
    tally: &mut Tally,
) -> EndToEnd {
    let cfg = config(seed, UPDATES_PER_RUN, dir);
    let tokens_per_micro_step = Workload::Dp2Overlap.recipe().model.tokens();
    let tokens_per_run =
        (UPDATES_PER_RUN as usize * DP2_ACCUMULATION * DP2_WORLD * tokens_per_micro_step) as f64;
    let mut e = EndToEnd::new(UPDATES_PER_RUN as usize);
    let mut first_hash = None;
    let mut reference = Reference::default();
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < seconds || e.samples.len() < MIN_SAMPLES)
        && start.elapsed() < WINDOW_LIMIT
    {
        let reference_ms = reference.sample_ms();
        let Some((report, wall_s, stolen_s)) = run_checked(&cfg, checks, tally) else { break };
        e.samples.push(Timed { wall_s, stolen_s, reference_ms });
        e.tokens += tokens_per_run;
        e.updates += report.updates as f64;
        match first_hash {
            None => {
                first_hash = Some(report.weights_hash);
                check_loss(seed, &report, checks, &mut e.loss_final);
            }
            Some(h) => checks.require("cluster_deterministic", report.weights_hash == h, || {
                format!(
                    "weights hash {:#x} differs from the first run's {h:#x}",
                    report.weights_hash
                )
            }),
        }
    }
    e
}

/// Evaluate the first run's final checkpoint: its loss must be finite and
/// below the loss of the weights the ranks started from.
fn check_loss(seed: u64, report: &ClusterReport, checks: &mut Checks, loss_final: &mut f64) {
    let Some(path) = &report.final_checkpoint else {
        checks.require("cluster_checkpoint", false, || "no checkpoint written".into());
        return;
    };
    match initial_and_final_loss(seed, path) {
        Ok((initial, loss)) => {
            checks.require("losses_finite", loss.is_finite(), || format!("final loss {loss}"));
            checks.require("loss_falls", loss < initial, || {
                format!("final loss {loss} is not below the initial {initial}")
            });
            *loss_final = loss;
        }
        Err(e) => checks.require("cluster_checkpoint", false, || e),
    }
}

/// The cluster layers of the traced run: ring statistics of one longer
/// cluster run, a standalone two-rank ring at the same bucket size, and
/// checkpoint capture and save on a replica.
pub fn traced(
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
    tally: &mut Tally,
) -> Values {
    let mut v = Values::default();
    let cfg = config(seed, TRACE_UPDATES, dir);
    if let Some((report, wall, _)) = spans.time("cluster.run", |_| run_checked(&cfg, checks, tally))
    {
        ring_values(&report, &mut v);
        v.set("cluster.restarts", f64::from(report.restarts));
        v.set("cluster.epochs", f64::from(report.epochs));
        println!(
            "cluster: {:.2} ms per update over {TRACE_UPDATES} updates",
            wall * 1e3 / TRACE_UPDATES as f64
        );
    }
    match spans.time("ring.isolated", |_| isolated_ring_us(&cfg.ring)) {
        Ok(us) => v.set("ring.isolated_us_p50", median(&us)),
        Err(e) => checks.require("isolated_ring", false, || e),
    }
    checkpoint_values(seed, dir, spans, checks, &mut v);
    v
}

/// `ring.*` from every rank's per-collective statistics.
fn ring_values(report: &ClusterReport, v: &mut Values) {
    let updates = report.updates.max(1) as f64;
    let workers = &report.worker_reports;
    let all_us: Vec<f64> =
        workers.iter().flat_map(|w| &w.ring_stats).map(|s| s.elapsed_us as f64).collect();
    let exposed: Vec<f64> =
        workers.iter().flat_map(|w| &w.exposed_comm_us).map(|&us| us as f64).collect();
    let per_rank = |f: &dyn Fn(&bertscope_dist::WorkerReport) -> f64| {
        workers.iter().map(f).sum::<f64>() / workers.len().max(1) as f64
    };
    v.set("ring.collectives_per_update", per_rank(&|w| w.ring_stats.len() as f64) / updates);
    v.set(
        "ring.wire_kb_per_update",
        per_rank(&|w| w.ring_stats.iter().map(|s| s.bytes_sent as f64).sum()) / 1024.0 / updates,
    );
    v.set("ring.collective_us_p50", if all_us.is_empty() { 0.0 } else { median(&all_us) });
    v.set("ring.collective_us_p90", percentile(&all_us, 90).unwrap_or(0.0));
    v.set("ring.exposed_us_p50", if exposed.is_empty() { 0.0 } else { median(&exposed) });
    v.set(
        "ring.retries",
        workers.iter().flat_map(|w| &w.ring_stats).map(|s| s.transport.retries as f64).sum(),
    );
}

/// Collective time of a standalone two-rank ring `AllReducing` one bucket,
/// the slower rank's time per collective, in microseconds.
fn isolated_ring_us(ring_cfg: &RingConfig) -> Result<Vec<f64>, String> {
    let listeners: Vec<TcpListener> = (0..DP2_WORLD)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let per_rank: Vec<Vec<u64>> = std::thread::scope(|s| {
        let ranks: Vec<_> = listeners
            .iter()
            .enumerate()
            .map(|(rank, listener)| {
                let ports = &ports;
                s.spawn(move || -> Result<Vec<u64>, String> {
                    let mut ring =
                        form_ring(listener, ports, rank, 1, ring_cfg).map_err(|e| e.to_string())?;
                    let mut times = Vec::with_capacity(ISOLATED_COLLECTIVES);
                    for _ in 0..ISOLATED_COLLECTIVES {
                        let mut data = vec![rank as f32 + 0.5; DP2_BUCKET_ELEMS];
                        let stats = ring.allreduce(&mut data).map_err(|e| e.to_string())?;
                        // 0.5 + 1.5 is exact in f32.
                        if data.iter().any(|&x| x.to_bits() != 2.0f32.to_bits()) {
                            return Err("standalone AllReduce returned a wrong sum".into());
                        }
                        times.push(stats.elapsed_us);
                    }
                    Ok(times)
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("ring rank thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    Ok((0..ISOLATED_COLLECTIVES)
        .map(|i| per_rank.iter().map(|t| t[i]).max().unwrap_or(0) as f64)
        .collect())
}

/// `checkpoint.*`: capture and save the full training state of a replica
/// that has applied one update, as rank 0 does after every update.
fn checkpoint_values(
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) {
    let mut run = TrainRun::new(&Workload::Dp2Overlap.recipe(), seed);
    if let Err(e) = run.run_windows(1) {
        checks.require("checkpoint_replica", false, || e.to_string());
        return;
    }
    let path = dir.join("replica.bsck");
    let mut saved = Vec::new();
    for _ in 0..CHECKPOINT_SAMPLES {
        let result = spans.time("checkpoint", |s| {
            let ckpt = s.time("checkpoint.capture", |_| run.trainer.checkpoint(&mut run.bert))?;
            s.time("checkpoint.save", |_| ckpt.save(&path))?;
            Ok::<_, TrainError>(ckpt.to_bytes())
        });
        match result {
            Ok(bytes) => saved = bytes,
            Err(e) => {
                checks.require("checkpoint_save", false, || e.to_string());
                return;
            }
        }
    }
    let loaded = TrainCheckpoint::load(&path).map(|c| c.to_bytes());
    checks.require("checkpoint_round_trip", loaded.as_ref().is_ok_and(|b| *b == saved), || {
        format!("the saved checkpoint does not load back as written: {:?}", loaded.err())
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    v.set("checkpoint.capture_ms", median(&spans.durations_ms("checkpoint.capture")));
    v.set("checkpoint.save_ms", median(&spans.durations_ms("checkpoint.save")));
    v.set("checkpoint.kb", bytes as f64 / 1024.0);
}
