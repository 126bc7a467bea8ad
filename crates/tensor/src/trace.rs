//! The operation tracer: bertscope's substitute for rocProf.
//!
//! Every kernel in the executable substrate (`bertscope-kernels`,
//! `bertscope-train`) and every node in the analytic operator graph
//! (`bertscope-model`) is described by an [`OpRecord`]: what the operation
//! *manifests as* ([`OpKind`]), which part of BERT it belongs to
//! ([`Category`]), which training phase invoked it ([`Phase`]), its GEMM
//! dimensions when applicable ([`GemmSpec`]), and its FLOP and byte counts.
//!
//! The paper's core methodological claim is that these quantities — not
//! device-specific timings — determine system-design takeaways. They are
//! therefore the common currency of the whole suite: measured traces from
//! real execution are cross-validated against analytic graphs, and both feed
//! the device timing models.

use crate::dtype::DType;
use crate::gemm::Transpose;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identity of one *logical* buffer in the system.
///
/// Ids are minted from a process-global counter shared by the real
/// allocator ([`crate::alloc::Buffer`]) and the analytic graph builder's
/// symbolic buffer environment, so executed traces and analytically-built
/// streams can never alias each other's buffers by accident. A pooled
/// storage reuse mints a *new* id: identity follows the logical buffer,
/// not the backing storage, which is exactly what makes
/// use-after-release-to-pool statically detectable (rule family `L` in
/// `bertscope-check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(u64);

static NEXT_BUF_ID: AtomicU64 = AtomicU64::new(1);

impl BufId {
    /// Mint a fresh, process-unique buffer id.
    #[must_use]
    pub fn fresh() -> BufId {
        BufId(NEXT_BUF_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw numeric id (stable within one process only).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct an id from its raw number — trace deserialization only.
    /// Raw ids are meaningful solely within the stream they were dumped
    /// from; mixing them with freshly minted ids aliases buffers.
    #[must_use]
    pub fn from_raw(raw: u64) -> BufId {
        BufId(raw)
    }
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// The buffer provenance of one op: which logical buffers it reads,
/// writes, allocates and releases.
///
/// This is the input to the static dependence analyses in
/// `bertscope-check`: RAW/WAR/WAW edges come from `reads`/`writes`, and
/// the lifetime rules audit `allocs`/`frees` against every later use. An
/// op whose sets are all empty has *unknown* provenance — the analyses
/// treat it as opaque (no edges, no lifetime events) rather than as a
/// proven-independent op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSet {
    /// Buffers read by the op.
    pub reads: Vec<BufId>,
    /// Buffers written (fully or partially) by the op.
    pub writes: Vec<BufId>,
    /// Buffers whose lifetime begins at this op.
    pub allocs: Vec<BufId>,
    /// Buffers released (returned to the pool) by this op.
    pub frees: Vec<BufId>,
}

impl AccessSet {
    /// An access set with the given reads and writes and no lifetime
    /// events.
    #[must_use]
    pub fn new(reads: &[BufId], writes: &[BufId]) -> AccessSet {
        AccessSet {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            allocs: Vec::new(),
            frees: Vec::new(),
        }
    }

    /// Attach buffers whose lifetime begins at this op.
    #[must_use]
    pub fn with_allocs(mut self, allocs: &[BufId]) -> AccessSet {
        self.allocs = allocs.to_vec();
        self
    }

    /// Attach buffers released by this op.
    #[must_use]
    pub fn with_frees(mut self, frees: &[BufId]) -> AccessSet {
        self.frees = frees.to_vec();
        self
    }

    /// Whether provenance is entirely unknown (all four sets empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.writes.is_empty()
            && self.allocs.is_empty()
            && self.frees.is_empty()
    }

    /// Whether the op touches `id` in any of the four sets.
    #[must_use]
    pub fn touches(&self, id: BufId) -> bool {
        self.reads.contains(&id)
            || self.writes.contains(&id)
            || self.allocs.contains(&id)
            || self.frees.contains(&id)
    }
}

/// How an operation manifests on a device (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// A single general matrix multiplication.
    Gemm,
    /// A batched GEMM: `batch` independent GEMMs launched as one kernel
    /// (BERT's attention-score and attention-output computations).
    BatchedGemm,
    /// An elementwise map over one or more same-shaped operands
    /// (add/mul/scale/mask/GeLU/dropout and the LAMB update arithmetic).
    ElementWise,
    /// A reduction (softmax normalizers, LayerNorm statistics, L2 norms,
    /// loss reductions).
    Reduction,
    /// A data movement with no arithmetic (transpose/reshape/cast
    /// materializations).
    Copy,
    /// An inter-device communication step (AllReduce fragments).
    Comm,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Gemm => "gemm",
            OpKind::BatchedGemm => "batched-gemm",
            OpKind::ElementWise => "elementwise",
            OpKind::Reduction => "reduction",
            OpKind::Copy => "copy",
            OpKind::Comm => "comm",
        };
        f.write_str(s)
    }
}

/// Which component of BERT an operation belongs to. The granularity matches
/// the finest split the paper reports (Fig. 4's hierarchical bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Input embedding layer (token + position + segment lookup and sum).
    Embedding,
    /// Attention linear projections: Q/K/V and the output projection GEMMs.
    AttnLinear,
    /// The batched attention-score (`Q*K^T`) and attention-output
    /// (`scores*V`) GEMMs.
    AttnBgemm,
    /// Scale, mask, softmax and dropout applied to attention scores.
    ScaleMaskSoftmaxDropout,
    /// The two fully-connected feed-forward GEMMs (FC-1, FC-2).
    FcGemm,
    /// The GeLU activation between the FC GEMMs.
    Gelu,
    /// Dropout + residual connection + LayerNorm after each sub-layer.
    DropResidualNorm,
    /// Output heads: masked-LM projection/decoder, NSP pooler/classifier,
    /// and the loss computation.
    Output,
    /// LAMB stage 1: compute per-parameter update direction from gradients,
    /// momentum and velocity (paper Fig. 7 `LAMBStage1`).
    LambStage1,
    /// LAMB stage 2: apply trust-ratio-scaled update to the weights.
    LambStage2,
    /// The global gradient-norm reduction LAMB requires before any update.
    GradNorm,
    /// Mixed-precision loss-scaler bookkeeping: the fused unscale +
    /// finiteness check over all gradients, the overflow marker of a skipped
    /// step, and the scale-factor rescale. Real AMP stacks launch these as
    /// distinct kernels, so they belong in the operator stream.
    LossScale,
    /// Gradient/activation communication (AllReduce) in distributed training.
    Comm,
}

impl Category {
    /// The coarse group used in the paper's top-level breakdown (Fig. 3).
    #[must_use]
    pub fn group(self) -> Group {
        match self {
            Category::Embedding => Group::Embedding,
            Category::AttnLinear
            | Category::AttnBgemm
            | Category::ScaleMaskSoftmaxDropout
            | Category::FcGemm
            | Category::Gelu
            | Category::DropResidualNorm => Group::Transformer,
            Category::Output => Group::Output,
            Category::LambStage1
            | Category::LambStage2
            | Category::GradNorm
            | Category::LossScale => Group::Lamb,
            Category::Comm => Group::Comm,
        }
    }

    /// All categories, in display order.
    #[must_use]
    pub fn all() -> &'static [Category] {
        &[
            Category::Embedding,
            Category::AttnLinear,
            Category::AttnBgemm,
            Category::ScaleMaskSoftmaxDropout,
            Category::FcGemm,
            Category::Gelu,
            Category::DropResidualNorm,
            Category::Output,
            Category::LambStage1,
            Category::LambStage2,
            Category::GradNorm,
            Category::LossScale,
            Category::Comm,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Embedding => "embedding",
            Category::AttnLinear => "attn-linear",
            Category::AttnBgemm => "attn-bgemm",
            Category::ScaleMaskSoftmaxDropout => "scale+mask+sm+dr",
            Category::FcGemm => "fc-gemm",
            Category::Gelu => "gelu",
            Category::DropResidualNorm => "dr+rc+ln",
            Category::Output => "output",
            Category::LambStage1 => "lamb-stage1",
            Category::LambStage2 => "lamb-stage2",
            Category::GradNorm => "grad-norm",
            Category::LossScale => "loss-scale",
            Category::Comm => "comm",
        };
        f.write_str(s)
    }
}

/// Coarse layer groups, matching Fig. 3's stacked bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// All Transformer-encoder-layer work.
    Transformer,
    /// Input embedding layer.
    Embedding,
    /// Output classification heads and loss.
    Output,
    /// The LAMB optimizer update (both stages plus the gradient norm).
    Lamb,
    /// Inter-device communication.
    Comm,
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Group::Transformer => "transformer",
            Group::Embedding => "embedding",
            Group::Output => "output",
            Group::Lamb => "lamb",
            Group::Comm => "comm",
        };
        f.write_str(s)
    }
}

/// Training phase that invoked an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass (activation- and weight-gradient computation).
    Backward,
    /// Forward work re-executed during backprop under activation
    /// checkpointing (paper §4).
    Recompute,
    /// Optimizer (weight update) phase.
    Update,
    /// Communication (distributed training).
    Communication,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Forward => "fwd",
            Phase::Backward => "bwd",
            Phase::Recompute => "recompute",
            Phase::Update => "update",
            Phase::Communication => "comm",
        };
        f.write_str(s)
    }
}

/// An epilogue fused into a GEMM kernel: extra elementwise work applied to
/// each output tile while it is still register/cache resident, instead of
/// being launched as separate kernels afterwards (the companion accelerator
/// paper's bias+activation / residual / scale+mask fusions).
///
/// The variant determines the *merged* FLOP and byte accounting of a fused
/// [`GemmSpec`]: extra FLOPs per output element plus any extra operand
/// reads, so conservation rules keep balancing over fused streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Epilogue {
    /// Plain GEMM, no fused tail.
    #[default]
    None,
    /// `out += bias` (bias broadcast over the token dimension).
    Bias,
    /// `out += bias` followed by GeLU. The kernel writes *two* outputs:
    /// the pre-activation (needed by the backward pass) and the activated
    /// tensor, so written bytes double.
    BiasGelu,
    /// `out += bias; out += residual` — the residual-add feeding LayerNorm.
    BiasResidual,
    /// `out *= scale` (attention score scaling by `1/sqrt(d_h)`).
    Scale,
    /// `out = out * scale + mask` — the attention scale+mask pair fused
    /// ahead of softmax.
    ScaleMask,
}

impl Epilogue {
    /// Extra FLOPs per output element contributed by the fused tail.
    #[must_use]
    pub const fn flops_per_element(self) -> u64 {
        match self {
            Epilogue::None => 0,
            Epilogue::Bias | Epilogue::Scale => 1,
            // bias add + the 12-FLOP GeLU evaluation.
            Epilogue::BiasGelu => 13,
            Epilogue::BiasResidual | Epilogue::ScaleMask => 2,
        }
    }

    /// Trace-label suffix (empty for [`Epilogue::None`]).
    #[must_use]
    pub const fn label_suffix(self) -> &'static str {
        match self {
            Epilogue::None => "",
            Epilogue::Bias => "+bias",
            Epilogue::BiasGelu => "+bias+gelu",
            Epilogue::BiasResidual => "+bias+res",
            Epilogue::Scale => "+scale",
            Epilogue::ScaleMask => "+scale+mask",
        }
    }
}

/// The `(transposeA, transposeB, M, N, K, batch)` descriptor of a GEMM —
/// exactly the label format of the paper's Fig. 6 — plus the fused
/// [`Epilogue`], if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmSpec {
    /// Whether operand A is transposed.
    pub ta: Transpose,
    /// Whether operand B is transposed.
    pub tb: Transpose,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Number of independent GEMMs launched as one batched kernel
    /// (1 for a plain GEMM).
    pub batch: usize,
    /// Elementwise tail fused into the kernel ([`Epilogue::None`] for a
    /// plain GEMM).
    pub epilogue: Epilogue,
}

impl GemmSpec {
    /// A plain (non-batched) GEMM descriptor.
    #[must_use]
    pub fn new(ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize) -> Self {
        GemmSpec { ta, tb, m, n, k, batch: 1, epilogue: Epilogue::None }
    }

    /// A batched GEMM descriptor.
    #[must_use]
    pub fn batched(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        batch: usize,
    ) -> Self {
        GemmSpec { ta, tb, m, n, k, batch, epilogue: Epilogue::None }
    }

    /// The same descriptor with a fused epilogue attached.
    #[must_use]
    pub fn with_epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Output elements across the whole batch: `m * n * batch`.
    #[must_use]
    pub fn out_elements(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.batch as u64
    }

    /// Multiply-accumulate FLOP count of the contraction alone:
    /// `2 * m * n * k * batch` — independent of any fused epilogue.
    #[must_use]
    pub fn mac_flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64 * self.batch as u64
    }

    /// Total FLOP count: the contraction plus the fused epilogue's
    /// per-output-element work.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.mac_flops() + self.epilogue.flops_per_element() * self.out_elements()
    }

    /// Extra operand elements the fused epilogue reads beyond the two GEMM
    /// operands: bias vectors are `m` per batch slice; residual and mask
    /// tensors are full `m x n` per slice.
    #[must_use]
    pub fn epilogue_read_elements(&self) -> u64 {
        let bias = (self.m * self.batch) as u64;
        let full = self.out_elements();
        match self.epilogue {
            Epilogue::None | Epilogue::Scale => 0,
            Epilogue::Bias | Epilogue::BiasGelu => bias,
            Epilogue::BiasResidual => bias + full,
            Epilogue::ScaleMask => full,
        }
    }

    /// Bytes read from memory: both operands once (ideal reuse within the
    /// kernel) plus the fused epilogue's operands, at the given precision.
    #[must_use]
    pub fn bytes_read(&self, dtype: DType) -> u64 {
        let per_batch = (self.m * self.k + self.k * self.n) as u64;
        (per_batch * self.batch as u64 + self.epilogue_read_elements()) * dtype.size_bytes()
    }

    /// Bytes written: the output matrix at the given precision —
    /// doubled for [`Epilogue::BiasGelu`], whose kernel stores both the
    /// pre-activation and the activated output.
    #[must_use]
    pub fn bytes_written(&self, dtype: DType) -> u64 {
        let copies = if self.epilogue == Epilogue::BiasGelu { 2 } else { 1 };
        self.out_elements() * copies * dtype.size_bytes()
    }

    /// Arithmetic intensity in ops/byte at a uniform precision — the y-axis
    /// of the paper's Fig. 6.
    #[must_use]
    pub fn arithmetic_intensity(&self, dtype: DType) -> f64 {
        self.flops() as f64 / (self.bytes_read(dtype) + self.bytes_written(dtype)) as f64
    }

    /// The paper's Fig. 6 label format: `ta,tb,M,N,K[,batch]`, with the
    /// fused-epilogue suffix appended when one is present.
    #[must_use]
    pub fn label(&self) -> String {
        let ep = self.epilogue.label_suffix();
        if self.batch > 1 {
            format!(
                "{}{},{},{},{},b{}{ep}",
                self.ta.letter(),
                self.tb.letter(),
                self.m,
                self.n,
                self.k,
                self.batch
            )
        } else {
            format!("{}{},{},{},{}{ep}", self.ta.letter(), self.tb.letter(), self.m, self.n, self.k)
        }
    }
}

impl fmt::Display for GemmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One traced kernel invocation (or one analytic graph node).
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Human-readable kernel name, e.g. `"fc1.fwd"`.
    pub name: String,
    /// Manifestation of the operation.
    pub kind: OpKind,
    /// BERT component the operation belongs to.
    pub category: Category,
    /// Training phase that invoked it.
    pub phase: Phase,
    /// Transformer layer index, when the op belongs to one.
    pub layer: Option<usize>,
    /// GEMM dimensions for `Gemm`/`BatchedGemm` kinds.
    pub gemm: Option<GemmSpec>,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes read from memory.
    pub bytes_read: u64,
    /// Bytes written to memory.
    pub bytes_written: u64,
    /// Element precision of the operation's data.
    pub dtype: DType,
    /// Buffer provenance (read/write/alloc/free sets). Empty when unknown;
    /// the static analyses treat such ops as opaque.
    pub access: AccessSet,
}

impl OpRecord {
    /// Total bytes moved.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity (ops per byte moved). Zero-traffic ops report 0.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes_total();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Whether the op manifests as (batched) matrix multiplication.
    #[must_use]
    pub fn is_gemm(&self) -> bool {
        matches!(self.kind, OpKind::Gemm | OpKind::BatchedGemm)
    }
}

/// Collects [`OpRecord`]s during execution or graph construction.
///
/// A disabled tracer ([`Tracer::disabled`]) skips all bookkeeping so
/// performance benchmarks of the substrate pay no tracing cost.
///
/// # Concurrency
///
/// Tracing is deliberately confined to the thread that *launches* a kernel:
/// pool workers (see [`crate::pool`]) execute chunk bodies that never touch
/// the tracer, so [`Tracer::record`] stays a plain `&mut self` `Vec` push —
/// no locks, no atomics, and no contention regardless of the pool size.
/// One logical kernel is one record no matter how many chunks it was split
/// into. The pool configuration that produced a trace is captured in
/// [`Tracer::meta`] (keys `pool.threads` / `host.parallelism`) so profiles
/// remain reproducible.
///
/// ```
/// use bertscope_tensor::{AccessSet, Tracer, OpRecord, OpKind, Category, Phase, DType};
/// let mut tr = Tracer::new();
/// tr.record(OpRecord {
///     name: "gelu.fwd".into(),
///     kind: OpKind::ElementWise,
///     category: Category::Gelu,
///     phase: Phase::Forward,
///     layer: Some(0),
///     gemm: None,
///     flops: 8,
///     bytes_read: 4,
///     bytes_written: 4,
///     dtype: DType::F32,
///     access: AccessSet::default(),
/// });
/// assert_eq!(tr.records().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    records: Vec<OpRecord>,
    /// Allocator live bytes observed right after each record was pushed
    /// (parallel to `records`). Sampled on the launching thread, after the
    /// kernel's worker tasks joined, so each sample counts live tensors
    /// only — never in-flight worker scratch — and is therefore identical
    /// at any pool size.
    live_samples: Vec<i64>,
    /// Allocator live bytes when the tracer was created (the weights and
    /// other long-lived state already resident before the traced region).
    baseline_bytes: i64,
    enabled: bool,
    meta: BTreeMap<String, String>,
}

impl Tracer {
    /// A tracer that records every op, stamped with the execution-environment
    /// metadata (worker-pool size, host parallelism) of the run.
    #[must_use]
    pub fn new() -> Self {
        let mut meta = BTreeMap::new();
        meta.insert("pool.threads".to_string(), crate::pool::current_threads().to_string());
        meta.insert(
            "host.parallelism".to_string(),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).to_string(),
        );
        Tracer {
            records: Vec::new(),
            live_samples: Vec::new(),
            baseline_bytes: crate::alloc::live_bytes(),
            enabled: true,
            meta,
        }
    }

    /// A tracer that drops all records (zero overhead in hot loops).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            records: Vec::new(),
            live_samples: Vec::new(),
            baseline_bytes: 0,
            enabled: false,
            meta: BTreeMap::new(),
        }
    }

    /// Execution-environment metadata captured when the tracer was created
    /// (e.g. `pool.threads`, `host.parallelism`).
    #[must_use]
    pub fn meta(&self) -> &BTreeMap<String, String> {
        &self.meta
    }

    /// Attach or overwrite one metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Whether this tracer records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append a record (no-op when disabled).
    ///
    /// In debug builds the record is validated at the source: a kernel that
    /// touches no memory cannot exist, and a GEMM's FLOP count is fully
    /// determined by its spec. The full rule set (conservation, dataflow,
    /// phase legality) lives in `bertscope-check`; these asserts catch the
    /// two cheapest-to-check invariants at the instant of recording, where
    /// the backtrace still points at the producer.
    pub fn record(&mut self, rec: OpRecord) {
        if self.enabled {
            debug_assert!(
                rec.bytes_read + rec.bytes_written > 0,
                "op `{}` moves zero bytes",
                rec.name
            );
            if let Some(spec) = rec.gemm {
                let macs = 2 * spec.m as u64 * spec.n as u64 * spec.k as u64 * spec.batch as u64;
                let out = spec.m as u64 * spec.n as u64 * spec.batch as u64;
                debug_assert_eq!(
                    rec.flops,
                    macs + spec.epilogue.flops_per_element() * out,
                    "op `{}`: recorded FLOPs disagree with GEMM spec {}",
                    rec.name,
                    spec
                );
            }
            self.records.push(rec);
            self.live_samples.push(crate::alloc::live_bytes());
        }
    }

    /// The records collected so far.
    #[must_use]
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Allocator live bytes observed right after each record was pushed —
    /// `live_bytes_after()[i]` is the measured memory state following
    /// `records()[i]`.
    #[must_use]
    pub fn live_bytes_after(&self) -> &[i64] {
        &self.live_samples
    }

    /// Allocator live bytes when this tracer was created.
    #[must_use]
    pub fn baseline_bytes(&self) -> i64 {
        self.baseline_bytes
    }

    /// The measured memory profile of the traced region: the peak live
    /// bytes observed at any record boundary, overall and split per
    /// [`Phase`] and [`Category`]. Samples are taken on the launch thread
    /// after each kernel's worker tasks joined, so the profile is
    /// bit-identical at any pool size (see [`crate::pool`]).
    #[must_use]
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut profile = MemoryProfile {
            baseline_bytes: self.baseline_bytes.max(0).unsigned_abs(),
            peak_bytes: self.baseline_bytes.max(0).unsigned_abs(),
            min_live_bytes: self.baseline_bytes,
            peak_by_phase: BTreeMap::new(),
            peak_by_category: BTreeMap::new(),
        };
        for (rec, &live) in self.records.iter().zip(&self.live_samples) {
            let live_u = live.max(0).unsigned_abs();
            profile.peak_bytes = profile.peak_bytes.max(live_u);
            profile.min_live_bytes = profile.min_live_bytes.min(live);
            let by_phase = profile.peak_by_phase.entry(rec.phase).or_default();
            *by_phase = (*by_phase).max(live_u);
            let by_cat = profile.peak_by_category.entry(rec.category).or_default();
            *by_cat = (*by_cat).max(live_u);
        }
        profile
    }

    /// Number of kernel launches recorded — the paper's "kernel count"
    /// metric for fusion and checkpointing studies.
    #[must_use]
    pub fn kernel_count(&self) -> usize {
        self.records.len()
    }

    /// Drop all records, keeping the enabled state and re-baselining the
    /// memory profile at the current live byte count.
    pub fn clear(&mut self) {
        self.records.clear();
        self.live_samples.clear();
        if self.enabled {
            self.baseline_bytes = crate::alloc::live_bytes();
        }
    }

    /// Consume the tracer and return its records.
    #[must_use]
    pub fn into_records(self) -> Vec<OpRecord> {
        self.records
    }

    /// Append `child`'s records together with the live-byte samples taken
    /// when `child` recorded them, so the memory profile reflects the bytes
    /// live while each op ran, not when the records were merged. `phase`,
    /// when given, relabels every moved record (a recomputed forward
    /// becomes [`Phase::Recompute`]). No-op when this tracer is disabled.
    pub fn merge(&mut self, child: Tracer, phase: Option<Phase>) {
        if !self.enabled {
            return;
        }
        let Tracer { mut records, live_samples, .. } = child;
        if let Some(phase) = phase {
            for rec in &mut records {
                rec.phase = phase;
            }
        }
        self.records.append(&mut records);
        self.live_samples.extend(live_samples);
    }

    /// Aggregate totals per [`Category`].
    #[must_use]
    pub fn by_category(&self) -> BTreeMap<Category, Totals> {
        summarize(&self.records, |r| r.category)
    }

    /// Aggregate totals per coarse [`Group`].
    #[must_use]
    pub fn by_group(&self) -> BTreeMap<Group, Totals> {
        summarize(&self.records, |r| r.category.group())
    }
}

/// Measured run-level memory profile: the allocator's live-byte high-water
/// mark over a traced region, overall and per [`Phase`] / [`Category`].
///
/// Produced by [`Tracer::memory_profile`]; cross-validated against the
/// analytical footprint model (`bertscope-sim`'s `memory::footprint`) by
/// the memory-measurement test suite, and exported next to the kernel
/// trace by `bertscope-core`'s `memory_profile_json`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryProfile {
    /// Live bytes already resident when tracing began (weights, gradients,
    /// optimizer state from earlier steps).
    pub baseline_bytes: u64,
    /// Peak live bytes observed at any record boundary (at least the
    /// baseline).
    pub peak_bytes: u64,
    /// Minimum live bytes observed — [`i64`] so that an accounting bug
    /// that drives the counter negative is representable (and caught by
    /// rule `M001` in `bertscope-check`).
    pub min_live_bytes: i64,
    /// Peak live bytes observed after ops of each phase.
    pub peak_by_phase: BTreeMap<Phase, u64>,
    /// Peak live bytes observed after ops of each category.
    pub peak_by_category: BTreeMap<Category, u64>,
}

impl MemoryProfile {
    /// Peak bytes attributable to the traced region itself: the overall
    /// peak minus what was already live at the baseline. For a traced
    /// training step whose weights/gradients/optimizer state pre-exist,
    /// this is the measured *activation* peak.
    #[must_use]
    pub fn peak_over_baseline(&self) -> u64 {
        self.peak_bytes.saturating_sub(self.baseline_bytes)
    }
}

/// Aggregated FLOPs/bytes/launch counts for a set of ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Number of kernel launches.
    pub kernels: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

impl Totals {
    /// Total bytes moved.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Aggregate arithmetic intensity (ops/byte), 0 when no traffic.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes_total();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Totals) {
        self.kernels += other.kernels;
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// Group records by an arbitrary key and accumulate [`Totals`].
pub fn summarize<K: Ord, F: Fn(&OpRecord) -> K>(
    records: &[OpRecord],
    key: F,
) -> BTreeMap<K, Totals> {
    let mut out: BTreeMap<K, Totals> = BTreeMap::new();
    for r in records {
        let t = out.entry(key(r)).or_default();
        t.kernels += 1;
        t.flops += r.flops;
        t.bytes_read += r.bytes_read;
        t.bytes_written += r.bytes_written;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cat: Category, flops: u64, bytes: u64) -> OpRecord {
        OpRecord {
            name: format!("{cat}"),
            kind: OpKind::ElementWise,
            category: cat,
            phase: Phase::Forward,
            layer: None,
            gemm: None,
            flops,
            bytes_read: bytes,
            bytes_written: bytes,
            dtype: DType::F32,
            access: AccessSet::default(),
        }
    }

    #[test]
    fn gemm_spec_flops_and_bytes() {
        // FC-1 of BERT-Large Ph1-B32: 4096 x 4096 x 1024.
        let g = GemmSpec::new(Transpose::No, Transpose::No, 4096, 4096, 1024);
        assert_eq!(g.flops(), 2 * 4096 * 4096 * 1024);
        assert_eq!(g.bytes_read(DType::F32), (4096 * 1024 + 1024 * 4096) * 4);
        assert_eq!(g.bytes_written(DType::F32), 4096 * 4096 * 4);
        // Intensity in f16 is double the f32 intensity (same flops, half bytes).
        let ai32 = g.arithmetic_intensity(DType::F32);
        let ai16 = g.arithmetic_intensity(DType::F16);
        assert!((ai16 / ai32 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fused_epilogue_accounting() {
        // FC-1 forward with fused bias+GeLU: paper-layout m = d_out, n = tokens.
        let base = GemmSpec::new(Transpose::No, Transpose::No, 4096, 512, 1024);
        let fused = base.with_epilogue(Epilogue::BiasGelu);
        let out = 4096u64 * 512;
        assert_eq!(fused.mac_flops(), base.flops());
        assert_eq!(fused.flops(), base.flops() + 13 * out);
        // Reads gain the bias vector; writes double (pre-act + activation).
        assert_eq!(fused.bytes_read(DType::F32), base.bytes_read(DType::F32) + 4096 * 4);
        assert_eq!(fused.bytes_written(DType::F32), 2 * base.bytes_written(DType::F32));
        assert!(fused.label().ends_with("+bias+gelu"));

        // Scale+mask on the batched attention-score shape.
        let scores = GemmSpec::batched(Transpose::No, Transpose::Yes, 128, 128, 64, 512)
            .with_epilogue(Epilogue::ScaleMask);
        let elems = 128u64 * 128 * 512;
        assert_eq!(scores.flops(), scores.mac_flops() + 2 * elems);
        assert_eq!(scores.epilogue_read_elements(), elems);
        assert!(scores.label().ends_with("b512+scale+mask"));

        // Bias+residual reads bias and the full residual tensor.
        let fc2 = GemmSpec::new(Transpose::No, Transpose::No, 1024, 512, 4096)
            .with_epilogue(Epilogue::BiasResidual);
        assert_eq!(fc2.epilogue_read_elements(), 1024 + 1024 * 512);
        assert_eq!(fc2.bytes_written(DType::F16), 1024 * 512 * 2);
        // Plain scale adds flops but no reads.
        let sc = base.with_epilogue(Epilogue::Scale);
        assert_eq!(sc.epilogue_read_elements(), 0);
        assert_eq!(sc.flops(), base.flops() + out);
    }

    #[test]
    fn batched_spec_scales_with_batch() {
        let g = GemmSpec::batched(Transpose::No, Transpose::Yes, 128, 128, 64, 512);
        assert_eq!(g.flops(), 2 * 128 * 128 * 64 * 512);
        assert!(g.label().contains("b512"));
        assert!(g.label().starts_with("nt"));
    }

    #[test]
    fn attention_bgemm_is_much_less_intense_than_fc() {
        // Paper Fig. 6: FC GEMMs are extremely compute-intense; attention
        // B-GEMMs have very low ops/byte.
        let fc = GemmSpec::new(Transpose::No, Transpose::No, 4096, 4096, 1024);
        let attn = GemmSpec::batched(Transpose::No, Transpose::Yes, 128, 128, 64, 512);
        assert!(fc.arithmetic_intensity(DType::F32) > 5.0 * attn.arithmetic_intensity(DType::F32));
    }

    #[test]
    fn category_groups_match_figure3() {
        assert_eq!(Category::FcGemm.group(), Group::Transformer);
        assert_eq!(Category::AttnBgemm.group(), Group::Transformer);
        assert_eq!(Category::LambStage1.group(), Group::Lamb);
        assert_eq!(Category::GradNorm.group(), Group::Lamb);
        assert_eq!(Category::Output.group(), Group::Output);
        assert_eq!(Category::Embedding.group(), Group::Embedding);
        assert_eq!(Category::Comm.group(), Group::Comm);
        assert_eq!(Category::LossScale.group(), Group::Lamb);
        assert_eq!(Category::all().len(), 13);
    }

    #[test]
    fn tracer_records_and_summarizes() {
        let mut tr = Tracer::new();
        tr.record(rec(Category::Gelu, 100, 50));
        tr.record(rec(Category::Gelu, 100, 50));
        tr.record(rec(Category::LambStage1, 10, 500));
        let by_cat = tr.by_category();
        assert_eq!(by_cat[&Category::Gelu].kernels, 2);
        assert_eq!(by_cat[&Category::Gelu].flops, 200);
        assert_eq!(by_cat[&Category::LambStage1].bytes_total(), 1000);
        let by_group = tr.by_group();
        assert_eq!(by_group[&Group::Transformer].kernels, 2);
        assert_eq!(by_group[&Group::Lamb].kernels, 1);
        assert_eq!(tr.kernel_count(), 3);
        tr.clear();
        assert_eq!(tr.kernel_count(), 0);
    }

    #[test]
    fn tracer_meta_records_pool_configuration() {
        let tr = crate::pool::with_threads(3, Tracer::new);
        assert_eq!(tr.meta()["pool.threads"], "3");
        assert!(tr.meta().contains_key("host.parallelism"));
        let mut tr = Tracer::new();
        tr.set_meta("model", "bert-large");
        assert_eq!(tr.meta()["model"], "bert-large");
        assert!(Tracer::disabled().meta().is_empty());
    }

    #[test]
    fn disabled_tracer_drops_records() {
        let mut tr = Tracer::disabled();
        tr.record(rec(Category::Gelu, 1, 1));
        let mut child = Tracer::new();
        child.record(rec(Category::Gelu, 1, 1));
        tr.merge(child, None);
        assert_eq!(tr.kernel_count(), 0);
        assert!(!tr.is_enabled());
        assert!(tr.live_bytes_after().is_empty());
        assert_eq!(tr.memory_profile(), MemoryProfile::default());
    }

    #[test]
    fn tracer_samples_live_bytes_per_record() {
        // Concurrent tests in this binary share the global allocator, so
        // assertions here are structural/directional; exact peak equality
        // is covered by the serialized memory_profile integration suite.
        let mut tr = Tracer::new();
        tr.record(rec(Category::Gelu, 1, 1));
        let held = crate::alloc::Buffer::zeroed(1 << 16);
        tr.record(rec(Category::LambStage1, 1, 1));
        // A merged child keeps the samples it took while recording, and
        // its records take the phase the merge assigns.
        let mut child = Tracer::new();
        child.record(rec(Category::Gelu, 1, 1));
        let child_samples = child.live_bytes_after().to_vec();
        tr.merge(child, Some(Phase::Backward));
        assert_eq!(tr.live_bytes_after()[2..], child_samples[..]);
        assert_eq!(tr.records()[2].phase, Phase::Backward);
        assert_eq!(tr.live_bytes_after().len(), tr.records().len());
        let profile = tr.memory_profile();
        assert!(profile.peak_bytes >= profile.baseline_bytes);
        assert!(profile.peak_by_phase.contains_key(&Phase::Forward));
        assert!(profile.peak_by_phase.contains_key(&Phase::Backward));
        assert!(profile.peak_by_category.contains_key(&Category::LambStage1));
        // The held buffer is live at the second sample, so the forward-phase
        // peak must cover at least its bytes plus nothing negative.
        assert!(profile.peak_by_phase[&Phase::Forward] >= u64::from(held.len() as u32) * 4);
        tr.clear();
        assert!(tr.live_bytes_after().is_empty());
        assert_eq!(tr.memory_profile().peak_by_phase.len(), 0);
    }

    #[test]
    fn peak_over_baseline_saturates() {
        let p = MemoryProfile { baseline_bytes: 100, peak_bytes: 140, ..Default::default() };
        assert_eq!(p.peak_over_baseline(), 40);
        let q = MemoryProfile { baseline_bytes: 200, peak_bytes: 140, ..Default::default() };
        assert_eq!(q.peak_over_baseline(), 0);
    }

    #[test]
    fn totals_merge_and_intensity() {
        let mut a = Totals { kernels: 1, flops: 100, bytes_read: 10, bytes_written: 10 };
        let b = Totals { kernels: 2, flops: 50, bytes_read: 20, bytes_written: 10 };
        a.merge(&b);
        assert_eq!(a.kernels, 3);
        assert_eq!(a.flops, 150);
        assert!((a.arithmetic_intensity() - 3.0).abs() < 1e-12);
        assert_eq!(Totals::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn op_record_helpers() {
        let mut r = rec(Category::FcGemm, 16, 4);
        assert!(!r.is_gemm());
        r.kind = OpKind::Gemm;
        assert!(r.is_gemm());
        assert_eq!(r.bytes_total(), 8);
        assert!((r.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(OpKind::BatchedGemm.to_string(), "batched-gemm");
        assert_eq!(Phase::Recompute.to_string(), "recompute");
        assert_eq!(Group::Lamb.to_string(), "lamb");
        assert_eq!(GemmSpec::new(Transpose::Yes, Transpose::No, 2, 3, 4).to_string(), "tn,2,3,4");
    }
}
