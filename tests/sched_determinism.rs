//! Property tests for the operator-graph scheduler: randomly
//! generated task DAGs executed at 1, 2 and 8 worker threads must leave
//! bit-identical buffer contents, every completion order the executor
//! emits must be the one-worker `sched::plan_order` (the orders
//! `racecheck --sched` verifies statically), and each must replay cleanly
//! through the static hazard rules (`check_schedule` over
//! `Schedule::from_completion_order`).

use bertscope_check::{check_schedule, has_errors, report, DepGraph, Schedule};
use bertscope_tensor::sched::{self, TaskGraph};
use bertscope_tensor::{pool, AccessSet, BufId, Category, DType, OpKind, OpRecord, Phase, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// One generated task, as indices into a shared buffer array.
#[derive(Debug, Clone)]
struct TaskSpec {
    reads: Vec<usize>,
    write: usize,
}

/// Derive a random DAG deterministically from `seed`: each task writes one
/// buffer and reads up to three others, so RAW/WAR/WAW conflicts (and
/// independent chains) all occur across the sampled space.
fn gen_tasks(n_tasks: usize, n_bufs: usize, seed: u64) -> Vec<TaskSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_tasks)
        .map(|_| {
            let write = rng.gen_range(0..n_bufs);
            let mut reads = Vec::new();
            for _ in 0..rng.gen_range(0usize..4) {
                let r = rng.gen_range(0..n_bufs);
                if r != write && !reads.contains(&r) {
                    reads.push(r);
                }
            }
            TaskSpec { reads, write }
        })
        .collect()
}

/// Mirror the task specs as one `OpRecord` per task so the emitted
/// completion order can be verified against `bertscope-check`'s own
/// dependence construction.
fn mirror_ops(tasks: &[TaskSpec], ids: &[BufId]) -> Vec<OpRecord> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let reads: Vec<BufId> = t.reads.iter().map(|&r| ids[r]).collect();
            OpRecord {
                name: format!("task{i}"),
                kind: OpKind::ElementWise,
                category: Category::Gelu,
                phase: Phase::Forward,
                layer: None,
                gemm: None,
                flops: 1,
                bytes_read: 4,
                bytes_written: 4,
                dtype: DType::F32,
                access: AccessSet::new(&reads, &[ids[t.write]]),
            }
        })
        .collect()
}

/// Run the DAG once under the current pool configuration. Each task's
/// arithmetic depends on every buffer it reads, so any mis-ordered pair of
/// conflicting tasks changes the final bits. Returns the final buffer
/// contents and the completion order the executor emitted.
fn execute(tasks: &[TaskSpec], ids: &[BufId]) -> (Vec<f32>, Vec<usize>) {
    #[allow(clippy::cast_precision_loss)]
    let cells: Vec<Mutex<f32>> =
        (0..ids.len()).map(|i| Mutex::new(0.125 * (i as f32 + 1.0))).collect();
    let mut graph = TaskGraph::new();
    for (i, t) in tasks.iter().enumerate() {
        let reads: Vec<BufId> = t.reads.iter().map(|&r| ids[r]).collect();
        let spec = t.clone();
        let cells = &cells;
        #[allow(clippy::cast_precision_loss)]
        graph.submit(format!("task{i}"), AccessSet::new(&reads, &[ids[t.write]]), move |_| {
            let mut acc = 0.0625 * (i as f32 + 1.0);
            for &r in &spec.reads {
                acc = acc.mul_add(1.001, *cells[r].lock().expect("cell"));
            }
            *cells[spec.write].lock().expect("cell") = acc;
        });
    }
    let order = graph.run(&mut Tracer::disabled()).completion_order;
    let vals = cells.iter().map(|c| *c.lock().expect("cell")).collect();
    (vals, order)
}

fn bits(vals: &[f32]) -> Vec<u32> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The scheduler's determinism claim, end to end: a random DAG
    /// scheduled at 1, 2 and 8 threads produces bit-identical buffers, and
    /// every emitted completion order is the planner's one-worker order and
    /// hazard-clean under H001–H005.
    #[test]
    fn random_dags_are_bit_identical_and_hazard_clean(
        n_tasks in 2usize..14,
        n_bufs in 2usize..7,
        seed in 0u64..10_000,
    ) {
        let tasks = gen_tasks(n_tasks, n_bufs, seed);
        let ids: Vec<BufId> = (0..n_bufs).map(|_| BufId::fresh()).collect();
        let ops = mirror_ops(&tasks, &ids);
        let graph = DepGraph::build(&ops);
        let accesses: Vec<&AccessSet> = ops.iter().map(|op| &op.access).collect();
        let planned = sched::plan_order(&accesses, 1);

        let (base, base_order) = pool::with_threads(1, || execute(&tasks, &ids));
        for v in &base {
            prop_assert!(v.is_finite(), "non-finite value from serial run");
        }
        let mut orders = vec![(1usize, base_order)];
        for threads in [2usize, 8] {
            let (vals, order) = pool::with_threads(threads, || execute(&tasks, &ids));
            prop_assert_eq!(
                bits(&vals),
                bits(&base),
                "buffers diverged at {} threads (seed {})",
                threads,
                seed
            );
            orders.push((threads, order));
        }
        for (threads, order) in orders {
            prop_assert_eq!(
                &order,
                &planned,
                "emitted order is not the planner's at {} threads (seed {})",
                threads,
                seed
            );
            let sched = Schedule::from_completion_order(&order);
            let findings = check_schedule(&ops, &graph, &sched, "emitted");
            prop_assert!(
                !has_errors(&findings),
                "hazards in emitted order at {} threads (seed {}):\n{}",
                threads,
                seed,
                report(&findings)
            );
        }
    }
}

/// A diamond with a WAW tail pins down the exact semantics once, outside
/// the sampled space: the join must observe both arms, and the tail's
/// overwrite must land last.
#[test]
fn diamond_with_waw_tail_matches_serial_order() {
    let tasks = vec![
        TaskSpec { reads: vec![], write: 0 },
        TaskSpec { reads: vec![0], write: 1 },
        TaskSpec { reads: vec![0], write: 2 },
        TaskSpec { reads: vec![1, 2], write: 3 },
        TaskSpec { reads: vec![], write: 3 },
    ];
    let ids: Vec<BufId> = (0..4).map(|_| BufId::fresh()).collect();
    let (base, _) = pool::with_threads(1, || execute(&tasks, &ids));
    for threads in [2usize, 8] {
        let (vals, order) = pool::with_threads(threads, || execute(&tasks, &ids));
        assert_eq!(bits(&vals), bits(&base), "diamond diverged at {threads} threads");
        let last = *order.last().expect("non-empty order");
        assert_eq!(last, 4, "the WAW tail must retire after the join it overwrites");
    }
}
