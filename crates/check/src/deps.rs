//! Operator-DAG reconstruction from buffer provenance.
//!
//! Every [`OpRecord`] may carry an [`AccessSet`] naming the buffers it
//! reads and writes (minted by `bertscope_tensor::alloc` for traced
//! streams, by `bertscope_model::BufEnv` for analytic ones). From those
//! sets this module rebuilds the true dependence DAG of the stream —
//! producer→consumer (RAW), anti (WAR) and output (WAW) edges — which is
//! what a GPU runtime's stream/event machinery enforces dynamically and
//! this crate verifies statically.
//!
//! Ops whose access set is empty are *opaque*: they contribute no edges and
//! no lifetime events, so un-annotated streams degrade gracefully to
//! vacuous hazard checks rather than false positives.

use bertscope_tensor::{BufId, OpRecord};
use std::collections::BTreeMap;

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write: the consumer reads a value the producer wrote.
    Raw,
    /// Write-after-read: the writer overwrites a value the reader consumed.
    War,
    /// Write-after-write: two writers of the same buffer must stay ordered.
    Waw,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DepKind::Raw => "RAW",
            DepKind::War => "WAR",
            DepKind::Waw => "WAW",
        })
    }
}

/// One dependence edge between two ops (indices into the checked stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Stream index of the earlier op (the dependence source).
    pub from: usize,
    /// Stream index of the later op (must not start before `from`).
    pub to: usize,
    /// Hazard class of the edge.
    pub kind: DepKind,
    /// The buffer the two ops conflict on.
    pub buf: BufId,
}

/// The reconstructed dependence graph of one operator stream.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Number of ops in the stream the graph was built from.
    pub ops: usize,
    /// Every dependence edge, in discovery order (sorted by `to`, then
    /// `from`).
    pub edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Build the dependence graph of `ops` from their access sets.
    ///
    /// Per buffer, the builder tracks the last writer and the readers since
    /// that write: a read depends on the last writer (RAW); a write depends
    /// on those readers (WAR) and on the previous writer (WAW). An op both
    /// reading and writing a buffer (in-place update) orders as a read then
    /// a write; self-edges are never emitted.
    #[must_use]
    pub fn build(ops: &[OpRecord]) -> Self {
        struct BufState {
            last_writer: Option<usize>,
            readers_since: Vec<usize>,
        }
        let mut state: BTreeMap<BufId, BufState> = BTreeMap::new();
        let mut edges = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            for &b in &op.access.reads {
                let s = state
                    .entry(b)
                    .or_insert(BufState { last_writer: None, readers_since: Vec::new() });
                if let Some(w) = s.last_writer {
                    if w != i {
                        edges.push(DepEdge { from: w, to: i, kind: DepKind::Raw, buf: b });
                    }
                }
                s.readers_since.push(i);
            }
            for &b in &op.access.writes {
                let s = state
                    .entry(b)
                    .or_insert(BufState { last_writer: None, readers_since: Vec::new() });
                for &r in &s.readers_since {
                    if r != i {
                        edges.push(DepEdge { from: r, to: i, kind: DepKind::War, buf: b });
                    }
                }
                if let Some(w) = s.last_writer {
                    if w != i {
                        edges.push(DepEdge { from: w, to: i, kind: DepKind::Waw, buf: b });
                    }
                }
                s.last_writer = Some(i);
                s.readers_since.clear();
            }
        }
        edges.sort_by_key(|e| (e.to, e.from, e.kind));
        edges.dedup_by_key(|e| (e.to, e.from, e.kind, e.buf));
        DepGraph { ops: ops.len(), edges }
    }

    /// Successor adjacency lists (by op index).
    #[must_use]
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.ops];
        for e in &self.edges {
            succ[e.from].push(e.to);
        }
        succ
    }

    /// Predecessor adjacency lists (by op index).
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut pred = vec![Vec::new(); self.ops];
        for e in &self.edges {
            pred[e.to].push(e.from);
        }
        pred
    }

    /// ASAP level of every op: 0 for ops with no predecessors, else one
    /// more than the deepest predecessor. This is the max-parallel legal
    /// schedule — every op starts the first step its inputs allow.
    #[must_use]
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.ops];
        // Edges always point forward in the stream, so one in-order pass
        // settles every level.
        for e in &self.edges {
            level[e.to] = level[e.to].max(level[e.from] + 1);
        }
        level
    }

    /// The FLOP total along the heaviest dependence chain — the work that
    /// cannot be parallelized away no matter how many execution streams the
    /// device offers.
    #[must_use]
    pub fn critical_path_flops(&self, ops: &[OpRecord]) -> u64 {
        assert_eq!(ops.len(), self.ops, "graph built from a different stream");
        let mut best = vec![0u64; self.ops];
        for (i, op) in ops.iter().enumerate() {
            best[i] += op.flops;
        }
        // In-order relaxation works because every edge points forward.
        let mut chain = best.clone();
        for e in &self.edges {
            let through = chain[e.from] + ops[e.to].flops;
            chain[e.to] = chain[e.to].max(through);
        }
        chain.into_iter().max().unwrap_or(0)
    }

    /// Drop every edge implied by a longer path (transitive reduction).
    ///
    /// The reduction preserves reachability exactly; hazard checking uses
    /// the full edge set, while reports and DOT-style dumps read better
    /// reduced.
    #[must_use]
    pub fn transitive_reduction(&self) -> Vec<DepEdge> {
        let succ = self.successors();
        let mut keep = Vec::new();
        for e in &self.edges {
            // e is redundant iff some other successor of `from` reaches `to`.
            let redundant = succ[e.from]
                .iter()
                .any(|&mid| mid != e.to && mid < e.to && reaches(&succ, mid, e.to));
            if !redundant {
                keep.push(*e);
            }
        }
        keep.dedup_by_key(|e| (e.to, e.from));
        keep
    }

    /// Summary statistics of the DAG under its ASAP schedule.
    #[must_use]
    pub fn report(&self, ops: &[OpRecord]) -> DagReport {
        let levels = self.asap_levels();
        let depth = levels.iter().copied().max().map_or(0, |d| d + 1);
        let mut width = vec![0usize; depth];
        let annotated = ops.iter().filter(|o| !o.access.is_empty()).count();
        for (i, &l) in levels.iter().enumerate() {
            if !ops[i].access.is_empty() {
                width[l] += 1;
            }
        }
        DagReport {
            ops: self.ops,
            annotated_ops: annotated,
            edges: self.edges.len(),
            depth,
            max_width: width.iter().copied().max().unwrap_or(0),
            critical_path_flops: self.critical_path_flops(ops),
            total_flops: ops.iter().map(|o| o.flops).sum(),
        }
    }
}

fn reaches(succ: &[Vec<usize>], from: usize, to: usize) -> bool {
    // Forward-pointing edges make this a DAG walk bounded by `to`.
    let mut stack = vec![from];
    let mut seen = vec![false; succ.len()];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if n > to || seen[n] {
            continue;
        }
        seen[n] = true;
        stack.extend(succ[n].iter().copied().filter(|&s| s <= to));
    }
    false
}

/// Parallelism statistics of one stream's dependence DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagReport {
    /// Ops in the stream.
    pub ops: usize,
    /// Ops carrying buffer provenance (the rest are opaque).
    pub annotated_ops: usize,
    /// Dependence edges.
    pub edges: usize,
    /// Length of the longest dependence chain, in scheduling steps.
    pub depth: usize,
    /// Most annotated ops runnable in one ASAP step (available parallelism).
    pub max_width: usize,
    /// FLOPs on the heaviest dependence chain.
    pub critical_path_flops: u64,
    /// FLOPs across the whole stream.
    pub total_flops: u64,
}

impl DagReport {
    /// Ratio of total work to critical-path work — the classic
    /// work/span parallelism bound.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        if self.critical_path_flops == 0 {
            1.0
        } else {
            self.total_flops as f64 / self.critical_path_flops as f64
        }
    }
}

impl std::fmt::Display for DagReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops ({} annotated), {} edges, depth {}, max width {}, \
             critical path {:.3e} of {:.3e} FLOPs (parallelism {:.1}x)",
            self.ops,
            self.annotated_ops,
            self.edges,
            self.depth,
            self.max_width,
            self.critical_path_flops as f64,
            self.total_flops as f64,
            self.parallelism()
        )
    }
}

/// Why a claimed permutation cannot be turned into a [`Schedule`]: the
/// executor (or a corrupted report) emitted an order that is not a
/// permutation of `0..len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// An op index exceeds the stream length.
    OutOfRange {
        /// The offending op index.
        op: usize,
        /// The step it was claimed to run at.
        step: usize,
        /// Number of ops in the stream.
        len: usize,
    },
    /// The same op appears at two steps.
    Duplicate {
        /// The offending op index.
        op: usize,
        /// The step it first appeared at.
        first_step: usize,
        /// The later step it reappeared at.
        second_step: usize,
    },
}

impl ScheduleError {
    /// The op index the error is about — callers with the stream in hand
    /// can name the offending task in their diagnostics.
    #[must_use]
    pub fn op(&self) -> usize {
        match *self {
            ScheduleError::OutOfRange { op, .. } | ScheduleError::Duplicate { op, .. } => op,
        }
    }
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ScheduleError::OutOfRange { op, step, len } => {
                write!(f, "not a permutation: op {op} at step {step} out of range for {len} ops")
            }
            ScheduleError::Duplicate { op, first_step, second_step } => {
                write!(
                    f,
                    "not a permutation: op {op} appears at step {first_step} and again at \
                     step {second_step}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A candidate execution schedule: the step at which each op starts. Ops
/// sharing a step are claimed to run concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `step_of[i]` is the step op `i` starts in.
    pub step_of: Vec<usize>,
}

impl Schedule {
    /// The serial program-order schedule: op `i` runs at step `i`.
    #[must_use]
    pub fn program_order(ops: usize) -> Self {
        Schedule { step_of: (0..ops).collect() }
    }

    /// A schedule from explicit per-op steps.
    #[must_use]
    pub fn from_steps(step_of: Vec<usize>) -> Self {
        Schedule { step_of }
    }

    /// The serial schedule that executes ops in the order of `perm`
    /// (`perm[k]` is the op run at step `k`).
    ///
    /// # Panics
    ///
    /// Panics when `perm` is not a permutation of `0..len` — an op index
    /// out of range, or the same op at two steps. Use
    /// [`Schedule::try_from_permutation`] to handle that structurally.
    #[must_use]
    pub fn from_permutation(perm: &[usize]) -> Self {
        match Self::try_from_permutation(perm) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Schedule::from_permutation`]: returns a structured
    /// [`ScheduleError`] instead of panicking when `perm` is not a
    /// permutation of `0..len`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::OutOfRange`] when an op index exceeds the stream,
    /// [`ScheduleError::Duplicate`] when an op appears at two steps.
    pub fn try_from_permutation(perm: &[usize]) -> Result<Self, ScheduleError> {
        let mut step_of = vec![usize::MAX; perm.len()];
        for (step, &op) in perm.iter().enumerate() {
            if op >= perm.len() {
                return Err(ScheduleError::OutOfRange { op, step, len: perm.len() });
            }
            if step_of[op] != usize::MAX {
                return Err(ScheduleError::Duplicate {
                    op,
                    first_step: step_of[op],
                    second_step: step,
                });
            }
            step_of[op] = step;
        }
        Ok(Schedule { step_of })
    }

    /// The serial schedule replaying an executor's observed *completion
    /// order* — e.g. [`bertscope_tensor::sched::RunReport::completion_order`]
    /// from the operator-graph scheduler — so an emitted schedule
    /// can be re-checked against the very hazard rules that gate program
    /// order.
    ///
    /// Semantically [`Schedule::from_permutation`]; the separate name
    /// records intent (a measured retirement order, not a hypothetical).
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of `0..len`. Use
    /// [`Schedule::try_from_completion_order`] to handle that structurally.
    #[must_use]
    pub fn from_completion_order(order: &[usize]) -> Self {
        Self::from_permutation(order)
    }

    /// Fallible [`Schedule::from_completion_order`]: a malformed executor
    /// report (duplicate or out-of-range task index) becomes a structured
    /// [`ScheduleError`] naming the offending op instead of a panic —
    /// `racecheck --sched` surfaces it with the task's name.
    ///
    /// # Errors
    ///
    /// See [`Schedule::try_from_permutation`].
    pub fn try_from_completion_order(order: &[usize]) -> Result<Self, ScheduleError> {
        Self::try_from_permutation(order)
    }

    /// The max-parallel ASAP schedule of a dependence graph.
    #[must_use]
    pub fn asap(graph: &DepGraph) -> Self {
        Schedule { step_of: graph.asap_levels() }
    }
}

/// A buffer lifetime event reconstructed from access order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// The buffer.
    pub buf: BufId,
    /// Op index of the explicit allocation, or of the first write when the
    /// stream carries no explicit alloc events. `None` for *foreign*
    /// buffers (read before any write — weights, inputs, RNG state): they
    /// live across the stream and are exempt from leak detection.
    pub alloc: Option<usize>,
    /// Op index of the explicit release to the pool, when the stream
    /// records one.
    pub free: Option<usize>,
    /// Op index of the last read or write.
    pub last_use: Option<usize>,
}

/// Reconstruct per-buffer lifetimes from explicit `allocs`/`frees` events
/// when present, falling back to first-write/last-use order otherwise.
#[must_use]
pub fn annotate_lifetimes(ops: &[OpRecord]) -> BTreeMap<BufId, Lifetime> {
    let mut lifetimes: BTreeMap<BufId, Lifetime> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        for &b in &op.access.allocs {
            lifetimes
                .entry(b)
                .or_insert(Lifetime { buf: b, alloc: None, free: None, last_use: None })
                .alloc
                .get_or_insert(i);
        }
        for &b in &op.access.reads {
            // A read before any write or alloc marks a foreign buffer:
            // entry stays with alloc == None.
            let lt = lifetimes.entry(b).or_insert(Lifetime {
                buf: b,
                alloc: None,
                free: None,
                last_use: None,
            });
            lt.last_use = Some(i);
        }
        for &b in &op.access.writes {
            let lt = lifetimes.entry(b).or_insert(Lifetime {
                buf: b,
                alloc: Some(i),
                free: None,
                last_use: None,
            });
            // First write allocates, unless the buffer was already foreign
            // (read first) or explicitly allocated.
            lt.last_use = Some(i);
        }
        for &b in &op.access.frees {
            let lt = lifetimes.entry(b).or_insert(Lifetime {
                buf: b,
                alloc: None,
                free: None,
                last_use: None,
            });
            if lt.free.is_none() {
                lt.free = Some(i);
            }
        }
    }
    lifetimes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bertscope_tensor::{AccessSet, Category, DType, OpKind, Phase};

    fn op(name: &str, reads: &[BufId], writes: &[BufId]) -> OpRecord {
        OpRecord {
            access: AccessSet::new(reads, writes),
            name: name.into(),
            kind: OpKind::ElementWise,
            category: Category::Gelu,
            phase: Phase::Forward,
            layer: None,
            gemm: None,
            flops: 10,
            bytes_read: 4,
            bytes_written: 4,
            dtype: DType::F32,
        }
    }

    fn bufs<const N: usize>() -> [BufId; N] {
        std::array::from_fn(|_| BufId::fresh())
    }

    #[test]
    fn raw_war_waw_edges_are_found() {
        let [a, b] = bufs();
        let ops = vec![
            op("w0", &[], &[a]),  // writes a
            op("r0", &[a], &[b]), // reads a (RAW from 0), writes b
            op("w1", &[], &[a]),  // rewrites a: WAR from 1, WAW from 0
        ];
        let g = DepGraph::build(&ops);
        let kinds: Vec<(usize, usize, DepKind)> =
            g.edges.iter().map(|e| (e.from, e.to, e.kind)).collect();
        assert!(kinds.contains(&(0, 1, DepKind::Raw)));
        assert!(kinds.contains(&(1, 2, DepKind::War)));
        assert!(kinds.contains(&(0, 2, DepKind::Waw)));
    }

    #[test]
    fn opaque_ops_contribute_no_edges() {
        let [a] = bufs();
        let ops = vec![op("w", &[], &[a]), op("opaque", &[], &[]), op("r", &[a], &[])];
        let g = DepGraph::build(&ops);
        assert!(g.edges.iter().all(|e| e.from != 1 && e.to != 1));
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn in_place_update_emits_no_self_edge() {
        let [a] = bufs();
        let ops = vec![op("init", &[], &[a]), op("inplace", &[a], &[a])];
        let g = DepGraph::build(&ops);
        assert!(g.edges.iter().all(|e| e.from != e.to));
        // RAW and WAW from the init write.
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn asap_levels_expose_parallelism() {
        let [a, b, c] = bufs();
        // Two independent writers feed one consumer.
        let ops = vec![op("w0", &[], &[a]), op("w1", &[], &[b]), op("r", &[a, b], &[c])];
        let g = DepGraph::build(&ops);
        assert_eq!(g.asap_levels(), vec![0, 0, 1]);
        let rep = g.report(&ops);
        assert_eq!(rep.depth, 2);
        assert_eq!(rep.max_width, 2);
        assert_eq!(rep.total_flops, 30);
        assert_eq!(rep.critical_path_flops, 20);
    }

    #[test]
    fn transitive_reduction_drops_implied_edges() {
        let [a, b] = bufs();
        // 0 -> 1 -> 2 and the direct RAW 0 -> 2 (reads a, which 0 wrote).
        let ops = vec![op("w", &[], &[a]), op("mid", &[a], &[b]), op("end", &[a, b], &[])];
        let g = DepGraph::build(&ops);
        assert_eq!(g.edges.len(), 3);
        let reduced = g.transitive_reduction();
        assert_eq!(reduced.len(), 2, "0->2 is implied by 0->1->2: {reduced:?}");
        assert!(reduced.iter().all(|e| (e.from, e.to) != (0, 2)));
    }

    #[test]
    fn critical_path_tracks_heaviest_chain() {
        let [a, b] = bufs();
        let mut heavy = op("heavy", &[], &[a]);
        heavy.flops = 1000;
        let ops = vec![heavy, op("light", &[], &[b]), op("sink", &[a], &[])];
        let g = DepGraph::build(&ops);
        assert_eq!(g.critical_path_flops(&ops), 1010);
    }

    #[test]
    fn lifetimes_distinguish_foreign_and_local_buffers() {
        let [w, x] = bufs();
        // `w` is read before ever being written (a weight); `x` is written
        // first (a stream-local activation).
        let ops = vec![op("use_w", &[w], &[x]), op("use_x", &[x], &[])];
        let lt = annotate_lifetimes(&ops);
        assert_eq!(lt[&w].alloc, None, "foreign buffer");
        assert_eq!(lt[&x].alloc, Some(0));
        assert_eq!(lt[&x].last_use, Some(1));
        assert_eq!(lt[&x].free, None);
    }

    #[test]
    fn schedule_constructors_agree() {
        assert_eq!(Schedule::program_order(3), Schedule::from_permutation(&[0, 1, 2]));
        let s = Schedule::from_permutation(&[2, 0, 1]);
        assert_eq!(s.step_of, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation: op 0 appears at step 0 and again at step 1")]
    fn bad_permutation_is_rejected() {
        let _ = Schedule::from_permutation(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not a permutation: op 7 at step 2 out of range for 3 ops")]
    fn out_of_range_op_is_rejected() {
        let _ = Schedule::from_permutation(&[0, 1, 7]);
    }

    #[test]
    fn completion_order_replays_as_a_serial_schedule() {
        let s = Schedule::from_completion_order(&[2, 0, 1]);
        assert_eq!(s, Schedule::from_permutation(&[2, 0, 1]));
    }

    #[test]
    fn try_constructors_return_structured_errors() {
        let dup = Schedule::try_from_completion_order(&[0, 0, 1]).unwrap_err();
        assert_eq!(dup, ScheduleError::Duplicate { op: 0, first_step: 0, second_step: 1 });
        assert_eq!(dup.op(), 0);
        assert_eq!(
            dup.to_string(),
            "not a permutation: op 0 appears at step 0 and again at step 1"
        );
        let oor = Schedule::try_from_permutation(&[0, 1, 7]).unwrap_err();
        assert_eq!(oor, ScheduleError::OutOfRange { op: 7, step: 2, len: 3 });
        assert_eq!(oor.op(), 7);
        assert_eq!(oor.to_string(), "not a permutation: op 7 at step 2 out of range for 3 ops");
        assert_eq!(
            Schedule::try_from_completion_order(&[2, 0, 1]).unwrap(),
            Schedule::from_completion_order(&[2, 0, 1])
        );
    }
}
