//! Sample statistics, failure accounting, the metric catalogue and the
//! one-line JSON result every run ends with.

use crate::speed;
use std::fmt::Write as _;
use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so `step_ms_p90` needs 100 samples.
pub const SAMPLES_BEYOND: usize = 10;

/// Fewest timed samples a run collects: enough for the 90th percentile
/// under the ten-beyond rule.
pub const MIN_SAMPLES: usize = 100;

/// A timed window that has not reached [`MIN_SAMPLES`] steps stops anyway
/// here, so a run always ends well inside its time limit.
pub const WINDOW_LIMIT: Duration = Duration::from_secs(120);

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// The `pct`-th percentile by nearest rank, or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    let rank = (pct * n).div_ceil(100).max(1);
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Operations attempted and failed over a run; `failed / attempted` is the
/// run's error rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or whose work was thrown away.
    pub failed: u64,
}

impl Tally {
    /// Count `attempted` more operations, `failed` of which failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        assert!(failed <= attempted, "{failed} failures among {attempted} attempts");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The correctness checks a run failed, each with its name and what was
/// seen.
#[derive(Debug, Default)]
pub struct Checks(Vec<(&'static str, String)>);

impl Checks {
    /// Record check `name` as failed unless `ok`.
    pub fn require(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.0.push((name, detail()));
        }
    }

    /// Every failed check, in the order it failed.
    pub fn failures(&self) -> &[(&'static str, String)] {
        &self.0
    }
}

/// Losses at each end of a window that [`loss_falls`] compares.
pub const LOSS_ENDS: usize = 20;

/// Whether the median of the last [`LOSS_ENDS`] losses is below the median
/// of the first: the model learned over the window. Medians, not means: a
/// tiny batch that happens to mask no token scores only its next-sentence
/// loss, about 0.69 nats against about 5 for the others, and a few of those
/// among the first losses can pull their mean below the trained model's.
pub fn loss_falls(losses: &[f32]) -> bool {
    if losses.len() < 2 * LOSS_ENDS {
        return false;
    }
    let median_of = |s: &[f32]| median(&s.iter().map(|&l| f64::from(l)).collect::<Vec<_>>());
    median_of(&losses[losses.len() - LOSS_ENDS..]) < median_of(&losses[..LOSS_ENDS])
}

/// One timed sample: its wall time, the CPU time the hypervisor stole
/// from the machine's CPUs meanwhile, and the host-speed reference
/// measured next to it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time, in seconds.
    pub wall_s: f64,
    /// CPU time stolen from all CPUs over the sample, in seconds.
    pub stolen_s: f64,
    /// Host-speed reference time measured just before the sample, in ms.
    pub reference_ms: f64,
}

impl Timed {
    /// Wall time less the stolen CPU time, in seconds. On two CPUs a steal
    /// from either delays a step that keeps both busy, so the two CPUs'
    /// stolen time adds up.
    fn net_s(self) -> f64 {
        (self.wall_s - self.stolen_s).max(0.0)
    }
}

/// What an untraced run measured, in the same form for every workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Each timed sample: one micro-step for the training workloads, one
    /// cluster run for dp2.
    pub samples: Vec<Timed>,
    /// Steps each sample holds: 1 for a micro-step, the updates of one
    /// cluster run for dp2, whose step is one update.
    pub steps_per_sample: usize,
    /// Tokens trained over the timed samples.
    pub tokens: f64,
    /// Optimizer updates completed over the timed samples.
    pub updates: f64,
    /// Each set-up sample, its reference the median of several taken in
    /// its process just before it.
    pub setup: Vec<Timed>,
    /// High-water mark of live tensor memory over the run, as the
    /// program's allocator accounts it, in MiB.
    pub peak_live_mib: f64,
    /// Loss at a fixed step of the run, in nats.
    pub loss_final: f64,
}

impl EndToEnd {
    /// An empty record whose samples will each hold `steps_per_sample`
    /// steps.
    pub fn new(steps_per_sample: usize) -> EndToEnd {
        assert!(steps_per_sample > 0, "a sample holds at least one step");
        EndToEnd {
            samples: Vec::new(),
            steps_per_sample,
            tokens: 0.0,
            updates: 0.0,
            setup: Vec::new(),
            peak_live_mib: 0.0,
            loss_final: f64::NAN,
        }
    }

    /// Every end-to-end metric. Its timings are net of stolen CPU time and
    /// at the nominal host speed ([`speed::scale`]). Fails when too few
    /// steps were timed for the 90th percentile.
    pub fn values(&self) -> Result<Values, String> {
        let net: Vec<f64> = self.samples.iter().map(|t| t.net_s()).collect();
        let reference: Vec<f64> = self.samples.iter().map(|t| t.reference_ms).collect();
        let setup: Vec<f64> =
            self.setup.iter().map(|t| t.net_s() * speed::factor(t.reference_ms)).collect();
        self.values_of(&speed::scale(&net, &reference), &setup)
    }

    /// The same metrics from the wall times as measured.
    pub fn unscaled_values(&self) -> Result<Values, String> {
        let wall = |t: &[Timed]| t.iter().map(|t| t.wall_s).collect::<Vec<_>>();
        self.values_of(&wall(&self.samples), &wall(&self.setup))
    }

    /// Hypervisor-stolen CPU time over the timed samples, in seconds.
    pub fn stolen_s(&self) -> f64 {
        self.samples.iter().map(|t| t.stolen_s).sum()
    }

    fn values_of(&self, sample_s: &[f64], setup_s: &[f64]) -> Result<Values, String> {
        let per_step = self.steps_per_sample as f64;
        let step_s: Vec<f64> = sample_s.iter().map(|s| s / per_step).collect();
        let p90 = percentile(&step_s, 90).ok_or_else(|| {
            format!("{} timed steps leave fewer than {SAMPLES_BEYOND} beyond p90", step_s.len())
        })?;
        let busy_s: f64 = sample_s.iter().sum();
        let mut v = Values::default();
        v.set("tokens_per_s", self.tokens / busy_s);
        v.set("updates_per_s", self.updates / busy_s);
        v.set("step_ms_p50", median(&step_s) * 1e3);
        v.set("step_ms_p90", p90 * 1e3);
        v.set("setup_s", median(setup_s));
        v.set("peak_live_mb", self.peak_live_mib);
        v.set("loss_final", self.loss_final);
        Ok(v)
    }
}

/// A metric's name and unit as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("tokens_per_s", "tokens/s"),
    def("updates_per_s", "updates/s"),
    def("step_ms_p50", "ms"),
    def("step_ms_p90", "ms"),
    def("setup_s", "s"),
    def("peak_live_mb", "MiB"),
    def("loss_final", "nats"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("trainer.micro_step_ms", "ms"),
    def("trainer.self_ms", "ms"),
    def("bert.train_step_ms", "ms"),
    def("kernels.non_gemm_ms", "ms"),
    def("gemm.attn_linear.ms", "ms"),
    def("gemm.attn_linear.gflops", "GFLOP/s"),
    def("gemm.attn_bgemm.ms", "ms"),
    def("gemm.attn_bgemm.gflops", "GFLOP/s"),
    def("gemm.fc.ms", "ms"),
    def("gemm.fc.gflops", "GFLOP/s"),
    def("gemm.output.ms", "ms"),
    def("gemm.output.gflops", "GFLOP/s"),
    def("ops.kernels", "count"),
    def("ops.gflop", "GFLOP"),
    def("ops.mb", "MB"),
    def("ops.gflop.transformer", "GFLOP"),
    def("ops.gflop.embedding", "GFLOP"),
    def("ops.gflop.output", "GFLOP"),
    def("ops.gflop.lamb", "GFLOP"),
    def("sched.tasks", "count"),
    def("sched.depth", "count"),
    def("sched.max_width", "count"),
    def("sched.achieved_parallelism", "ratio"),
    def("sched.busy_ms", "ms"),
    def("sched.elapsed_ms", "ms"),
    def("pool.step_ms_1t", "ms"),
    def("pool.speedup_2t", "ratio"),
    def("alloc.fresh_per_step", "count"),
    def("alloc.acquisitions_per_step", "count"),
    def("alloc.reuse_ratio", "ratio"),
    def("alloc.peak_mb", "MiB"),
    def("optim.lamb_ms", "ms"),
    def("scaler.unscale_check_ms", "ms"),
    def("scaler.skipped_windows", "count"),
    def("ring.collectives_per_update", "count"),
    def("ring.wire_kb_per_update", "KiB"),
    def("ring.collective_us_p50", "us"),
    def("ring.collective_us_p90", "us"),
    def("ring.isolated_us_p50", "us"),
    def("ring.exposed_us_p50", "us"),
    def("ring.retries", "count"),
    def("checkpoint.capture_ms", "ms"),
    def("checkpoint.save_ms", "ms"),
    def("checkpoint.kb", "KiB"),
    def("cluster.restarts", "count"),
    def("cluster.epochs", "count"),
    def("trace.overhead", "ratio"),
];

/// Measured values keyed by metric name, checked against a catalogue when
/// rendered.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` for the metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.0.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.0.push((name, value));
    }

    /// Take over every value of `other`.
    pub fn merge(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Pair every metric of `catalogue` with its value, in catalogue order.
    /// Fails when a metric is missing, not finite, or not in the catalogue.
    pub fn resolve(&self, catalogue: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        if let Some((extra, _)) =
            self.0.iter().find(|(n, _)| !catalogue.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|d| match self.get(d.name) {
                Some(v) if v.is_finite() => Ok((*d, v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", d.name)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its value and unit, as one JSON object.
pub fn render_result(correct: bool, tally: Tally, metrics: &[(MetricDef, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid metric name: a letter or digit, then at most 63 more
    /// letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let b = name.as_bytes();
        !b.is_empty()
            && b.len() <= 64
            && b[0].is_ascii_alphanumeric()
            && b.iter().all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(c))
    }

    /// A valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.bytes().all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90), Some(90.0));
        assert_eq!(percentile(&samples[..99], 90), None);
        assert_eq!(percentile(&samples[..10], 50), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50), None);
        assert_eq!(MIN_SAMPLES, 100, "the run length must leave ten samples beyond p90");
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.add(40, 0);
        t.add(10, 5);
        assert_eq!(t, Tally { attempted: 50, failed: 5 });
        assert!((t.error_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "failures among")]
    fn more_failures_than_attempts_is_a_bug() {
        Tally::default().add(1, 2);
    }

    #[test]
    fn every_catalogued_name_and_unit_is_valid_and_unique() {
        for catalogue in [END_TO_END, PER_LAYER] {
            for (i, d) in catalogue.iter().enumerate() {
                assert!(valid_name(d.name), "bad name {}", d.name);
                assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
                assert!(!catalogue[..i].iter().any(|e| e.name == d.name), "{} twice", d.name);
            }
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("tokens per s"));
    }

    #[test]
    fn catalogue_matches_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json beside the benchmark directory")
            .split_whitespace()
            .collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\",", d.name, d.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("{\"name\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + 3, "workloads + metrics");
    }

    #[test]
    fn resolve_rejects_missing_unknown_and_non_finite_values() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let err = v.resolve(END_TO_END).unwrap_err();
        assert!(err.contains("tokens_per_s was not measured"), "{err}");
        v.set("bogus", 1.0);
        assert!(v.resolve(END_TO_END).unwrap_err().contains("bogus"));
        let mut nan = Values::default();
        for d in END_TO_END {
            nan.set(d.name, if d.name == "loss_final" { f64::NAN } else { 1.0 });
        }
        assert!(nan.resolve(END_TO_END).unwrap_err().contains("loss_final is not finite"));
    }

    fn near(v: &Values, name: &str, want: f64) {
        let got = v.get(name).unwrap();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0), "{name}: {got} vs {want}");
    }

    #[test]
    fn end_to_end_emits_every_metric_once_p90_has_its_samples() {
        // The host runs at half the nominal speed throughout, and the
        // hypervisor steals 1 ms of CPU time during every sample.
        let slow = 2.0 * speed::NOMINAL_MS;
        let timed = |net_s: f64| Timed { wall_s: net_s + 1e-3, stolen_s: 1e-3, reference_ms: slow };
        let mut e = EndToEnd::new(1);
        e.samples = (1..=99).map(|i| timed(f64::from(i) / 1e3)).collect();
        e.tokens = 99.0 * 512.0;
        e.updates = 24.0;
        e.setup = [0.3, 0.1, 0.2].map(timed).to_vec();
        e.peak_live_mib = 80.0;
        e.loss_final = 6.5;
        assert!(e.values().unwrap_err().contains("99 timed steps"));
        e.samples.push(timed(0.1));
        e.tokens += 512.0;
        let v = e.values().unwrap();
        assert_eq!(v.resolve(END_TO_END).unwrap().len(), END_TO_END.len());
        // Net of the stolen time the samples add up to 5.05 s, which the
        // nominal host runs faster by the scale factor.
        let f = speed::factor(slow);
        near(&v, "step_ms_p50", 50.5 * f);
        near(&v, "step_ms_p90", 90.0 * f);
        near(&v, "setup_s", 0.2 * f);
        near(&v, "tokens_per_s", 100.0 * 512.0 / 5.05 / f);
        near(&v, "updates_per_s", 24.0 / 5.05 / f);
        near(&v, "peak_live_mb", 80.0);
        near(&v, "loss_final", 6.5);
        let raw = e.unscaled_values().unwrap();
        near(&raw, "step_ms_p50", 51.5);
        near(&raw, "step_ms_p90", 91.0);
        near(&raw, "setup_s", 0.201);
        near(&raw, "tokens_per_s", 100.0 * 512.0 / 5.15);
        assert!((e.stolen_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_sample_of_several_steps_is_timed_per_step() {
        // dp2: each sample is a cluster run of three updates taking 0.3 s.
        let mut e = EndToEnd::new(3);
        e.samples =
            vec![Timed { wall_s: 0.3, stolen_s: 0.0, reference_ms: speed::NOMINAL_MS }; 100];
        e.setup = vec![Timed { wall_s: 0.1, stolen_s: 0.0, reference_ms: speed::NOMINAL_MS }];
        e.tokens = 100.0 * 3.0 * 256.0;
        e.updates = 300.0;
        let v = e.values().unwrap();
        near(&v, "step_ms_p50", 100.0);
        near(&v, "step_ms_p90", 100.0);
        near(&v, "updates_per_s", 10.0);
        near(&v, "tokens_per_s", 2560.0);
    }

    #[test]
    fn stolen_time_beyond_the_wall_time_counts_as_none_left() {
        let t = Timed { wall_s: 0.01, stolen_s: 0.02, reference_ms: speed::NOMINAL_MS };
        assert_eq!(t.net_s(), 0.0);
    }

    #[test]
    fn loss_falls_compares_the_ends_of_the_window() {
        let falling: Vec<f32> = (0..50).map(|i| 7.0 - 0.01 * i as f32).collect();
        assert!(loss_falls(&falling));
        let flat = vec![7.0f32; 50];
        assert!(!loss_falls(&flat));
        assert!(!loss_falls(&falling[..2 * LOSS_ENDS - 1]));
        // Batches with no masked token among the first losses do not make
        // a trained model look worse than the untrained one.
        let mut unmasked_first = vec![5.2f32; 25];
        unmasked_first[..6].fill(0.69);
        unmasked_first.extend([4.5f32; 25]);
        assert!(loss_falls(&unmasked_first));
    }

    #[test]
    fn checks_keep_each_failure_with_its_name() {
        let mut c = Checks::default();
        c.require("fine", true, || unreachable!());
        c.require("updates", false, || "3 of 4".into());
        assert_eq!(c.failures(), &[("updates", "3 of 4".to_string())]);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut v = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            v.set(d.name, 0.25 + i as f64);
        }
        let line =
            render_result(true, Tally { attempted: 7, failed: 1 }, &v.resolve(END_TO_END).unwrap());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 1, "));
        for (i, d) in END_TO_END.iter().enumerate() {
            let want = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                0.25 + i as f64,
                d.unit
            );
            assert!(line.contains(&want), "{line} lacks {want}");
        }
        assert!(line.ends_with("}}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
