//! `perfbench`: the end-to-end and per-layer benchmark of bertscope's
//! training workloads.
//!
//! ```text
//! perfbench --workload <p1-fp32|p2-mixed|dp2-overlap> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times the workload with tracing off and prints the
//! end-to-end metrics, its timings net of the CPU time the hypervisor
//! stole and scaled to a nominal host speed (see `speed.rs`); with
//! `--trace 1` it runs the traced loop and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and a failed
//! correctness check exits non-zero after naming the check on standard
//! error. Everything the run writes goes under `.perfbench/` in the
//! working directory. See `workloads.rs` for why each workload exists and
//! which layer it loads.

mod cluster;
mod host;
mod replay;
mod spans;
mod speed;
mod stats;
mod train;
mod workloads;

use bertscope_tensor::alloc;
use host::{loadavg_1m, peak_rss_mib, CpuTimes};
use spans::Spans;
use speed::Reference;
use stats::{render_result, Checks, Tally, Timed, Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <p1-fp32|p2-mixed|dp2-overlap> [--seed N] [--seconds S] \
         [--trace 0|1]\n(--seed defaults to {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out \
         for verifying claims)"
    )
}

/// Set-up samples per untraced run. Each runs in a fresh process, so every
/// sample pays model init, the lazy pool spawn and allocator warm-up.
const SETUP_SAMPLES: usize = 5;

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// Share of `--seconds` the traced run spends in its timed loop; set-up
/// and the exact-count window take the rest.
const TRACED_LOOP_SHARE: f64 = 0.75;

/// Where the benchmark writes, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child role: time one set-up and print it.
    setup_only: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, setup_only })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    if args.setup_only {
        let reference_ms = Reference::default().median_ms(speed::SAMPLES_BEFORE_SETUP);
        let (sample, _, stolen_s) = host::timed(|| setup_sample(&args, &run_dir));
        let _ = std::fs::remove_dir_all(&run_dir);
        return match sample {
            Ok(s) => {
                println!("setup_s {s} {stolen_s} {reference_ms}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let cpu_start = CpuTimes::read();
    let load_start = loadavg_1m();
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let (catalogue, values) = if args.trace {
        (PER_LAYER, traced(&args, &run_dir, &mut checks, &mut tally))
    } else {
        (END_TO_END, end_to_end(&args, &run_dir, &mut checks, &mut tally))
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    let steal = cpu_start.zip(CpuTimes::read()).map(|(a, b)| a.steal_share(b));
    // The process's peak resident set is printed but not gated: on
    // p2-mixed it reads about 62 MiB in some runs and 77 to 104 MiB in
    // others, as the two scheduler threads free different buffers into
    // their own allocator pools.
    println!(
        "host: {} CPUs, load average {} at start, CPU steal {} of the run",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        load_start.map_or_else(|| "unknown".into(), |l| format!("{l:.2}")),
        steal.map_or_else(|| "unknown".into(), |s| format!("{:.2}%", s * 100.0)),
    );
    println!(
        "peak_rss_mb = {} MiB (peak resident set, not gated)",
        peak_rss_mib().map_or_else(|| "unknown".into(), |m| format!("{m:.1}")),
    );
    println!(
        "error_rate = {} ratio ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    let metrics = match values.resolve(catalogue) {
        Ok(m) => m,
        Err(e) => {
            checks.require("metrics_complete", false, || e);
            Vec::new()
        }
    };
    for (d, v) in &metrics {
        println!("{} = {v} {}", d.name, d.unit);
    }
    let correct = checks.failures().is_empty();
    println!("{}", render_result(correct, tally, &metrics));
    for (name, detail) in checks.failures() {
        eprintln!("perfbench: correctness check {name} failed: {detail}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set-up sample of the workload, in seconds.
fn setup_sample(args: &Args, run_dir: &Path) -> Result<f64, String> {
    match args.workload {
        Workload::Dp2Overlap => {
            cluster::setup_sample(args.seed, run_dir).map_err(|e| e.to_string())
        }
        w => train::setup_sample(&w.recipe(), args.seed).map_err(|e| e.to_string()),
    }
}

/// [`SETUP_SAMPLES`] set-up samples, each from a fresh child process.
fn setup_samples(args: &Args, checks: &mut Checks) -> Vec<Timed> {
    let failed = Timed { wall_s: f64::NAN, stolen_s: 0.0, reference_ms: f64::NAN };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            checks.require("setup", false, || format!("cannot find own executable: {e}"));
            return vec![failed];
        }
    };
    let seed = args.seed.to_string();
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed, "--setup-only"])
            .stderr(Stdio::inherit())
            .output();
        let sample = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let fields = text.lines().last()?.strip_prefix("setup_s ")?;
            let v: Vec<f64> = fields.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
            match v[..] {
                [wall_s, stolen_s, reference_ms] => Some(Timed { wall_s, stolen_s, reference_ms }),
                _ => None,
            }
        });
        let Some(s) = sample else {
            checks.require("setup", false, || "a set-up child failed".into());
            return vec![failed];
        };
        samples.push(s);
    }
    samples
}

fn end_to_end(args: &Args, run_dir: &Path, checks: &mut Checks, tally: &mut Tally) -> Values {
    let setup = setup_samples(args, checks);
    let mut e = match args.workload {
        Workload::Dp2Overlap => {
            cluster::end_to_end(args.seed, args.seconds, run_dir, checks, tally)
        }
        w => train::end_to_end(&w.recipe(), args.seed, args.seconds, checks, tally),
    };
    e.setup = setup;
    e.peak_live_mib = alloc::stats().peak_bytes as f64 / MIB;
    println!(
        "timed steps: {} (set-up samples: {})",
        e.samples.len() * e.steps_per_sample,
        e.setup.len()
    );
    if let (Ok(raw), false) = (e.unscaled_values(), e.samples.is_empty()) {
        let reference: Vec<f64> = e.samples.iter().map(|t| t.reference_ms).collect();
        println!(
            "host speed: reference unit {:.3} ms median ({} ms nominal), {:.3} s of CPU time \
             stolen during the timed steps; as measured, unscaled: step_ms_p50 {:.3} ms, \
             step_ms_p90 {:.3} ms, tokens_per_s {:.1}, updates_per_s {:.3}, setup_s {:.4} s",
            stats::median(&reference),
            speed::NOMINAL_MS,
            e.stolen_s(),
            raw.get("step_ms_p50").unwrap_or(f64::NAN),
            raw.get("step_ms_p90").unwrap_or(f64::NAN),
            raw.get("tokens_per_s").unwrap_or(f64::NAN),
            raw.get("updates_per_s").unwrap_or(f64::NAN),
            raw.get("setup_s").unwrap_or(f64::NAN),
        );
    }
    e.values().unwrap_or_else(|err| {
        checks.require("timed_steps", false, || err);
        Values::default()
    })
}

fn traced(args: &Args, run_dir: &Path, checks: &mut Checks, tally: &mut Tally) -> Values {
    let mut spans = Spans::default();
    let mut v = Values::default();
    match args.workload {
        Workload::Dp2Overlap => {
            v.merge(cluster::traced(args.seed, run_dir, &mut spans, checks, tally));
        }
        _ => train::bypassed_distributed_layers(&mut v),
    }
    let loop_seconds = args.seconds * TRACED_LOOP_SHARE;
    v.merge(train::traced(
        &args.workload.recipe(),
        args.seed,
        loop_seconds,
        &mut spans,
        checks,
        tally,
    ));
    if args.workload == Workload::Dp2Overlap {
        let get = |name: &str| v.get(name).unwrap_or(f64::NAN);
        println!(
            "update parts (ms): checkpoint.save {:.3}, checkpoint.capture {:.3}, \
             {} micro-steps {:.3}, ring exposed {:.3} (isolated collective {:.3})",
            get("checkpoint.save_ms"),
            get("checkpoint.capture_ms"),
            workloads::DP2_ACCUMULATION,
            workloads::DP2_ACCUMULATION as f64 * get("trainer.micro_step_ms"),
            get("ring.exposed_us_p50") / 1e3,
            get("ring.isolated_us_p50") / 1e3,
        );
    }
    let path: PathBuf =
        Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", args.workload.name(), args.seed));
    match spans.write_json(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => checks.require("spans_written", false, || format!("{}: {e}", path.display())),
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_full_command_line_parses() {
        let a = parse("--workload p2-mixed --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::P2Mixed);
        assert_eq!((a.seed, a.seconds, a.trace, a.setup_only), (7, 30.0, true, false));
        let d = parse("--workload dp2-overlap").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(OUT_DIR)
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut checks, mut tally) = (Checks::default(), Tally::default());
        let mut spans = Spans::default();
        for w in Workload::ALL {
            let mut v = Values::default();
            match w {
                Workload::Dp2Overlap => {
                    v.merge(cluster::traced(1, &dir, &mut spans, &mut checks, &mut tally));
                }
                _ => train::bypassed_distributed_layers(&mut v),
            }
            v.merge(train::traced(&w.recipe(), 1, 0.0, &mut spans, &mut checks, &mut tally));
            let line = render_result(true, tally, &v.resolve(PER_LAYER).unwrap());
            for d in PER_LAYER {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)), "{}", d.name);
                assert!(line.contains(&format!("\"unit\": \"{}\"}}", d.unit)), "{}", d.unit);
            }
        }
        let mut e =
            train::end_to_end(&Workload::Dp2Overlap.recipe(), 1, 0.0, &mut checks, &mut tally);
        e.setup = vec![Timed { wall_s: 0.1, stolen_s: 0.0, reference_ms: speed::NOMINAL_MS }];
        e.peak_live_mib = 1.0;
        assert_eq!(e.values().unwrap().resolve(END_TO_END).unwrap().len(), END_TO_END.len());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(tally.attempted > 0 && tally.failed == 0, "{tally:?}");
        let failed: Vec<_> = checks.failures().iter().map(|(n, _)| *n).collect();
        assert!(failed.iter().all(|n| *n == "loss_falls"), "{:?}", checks.failures());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").unwrap_err().contains("--workload is required"));
        assert!(parse("--workload p3").unwrap_err().contains("unknown workload"));
        assert!(parse("--workload p1-fp32 --trace 2").unwrap_err().contains("0 or 1"));
        assert!(parse("--workload p1-fp32 --seconds -1").is_err());
        assert!(parse("--workload p1-fp32 --seed").unwrap_err().contains("needs a value"));
        assert!(parse("--workload p1-fp32 --fast 1").unwrap_err().contains("unknown argument"));
    }
}
