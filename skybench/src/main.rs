//! `skybench`: one end-to-end and per-layer benchmark for every path a
//! SkyNet-rs user can run — f32 detection, INT8 detection, a training
//! step, and the serving engine under steady and bursty open-loop load.
//!
//! ```text
//! cargo run --release --offline --manifest-path skybench/Cargo.toml -- --seed 42
//! cargo run --release --offline --manifest-path skybench/Cargo.toml -- \
//!     --workload detect_f32 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is a JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or the per-layer metrics with
//! `--trace 1`). Without it every workload runs in a child process of
//! its own, so set-up time and peak memory are per workload; a list of
//! seeds (`--seed 1,2,3`) repeats each workload and prints the spread.
//!
//! Each run builds SkyNet C (width ÷8) from the fixed model seed, sets
//! it up several times, checks the correctness gates outside the timed
//! region, then measures for `--seconds`, in slices between probes of a
//! reference clock ([`refclock`]). `--seed` changes only the inputs. The
//! exit code is non-zero when a gate fails.

mod detect;
mod host;
mod refclock;
mod serve;
mod stats;
mod trace;
mod train;

use refclock::{RefClock, SLICE};
use skynet_core::skynet::{SkyNetConfig, Variant};
use skynet_data::dacsdc::{DacSdc, DacSdcConfig};
use skynet_nn::Act;
use skynet_tensor::crc32::Crc32;
use skynet_tensor::Tensor;
use stats::Tally;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{Extras, Layers, Tracer};

/// Seed of the model weights (and of the INT8 calibration frames), so
/// every run measures the same model whatever `--seed` is.
pub const MODEL_SEED: u64 = 42;

/// Set-ups per run: at least [`SETUP_REPS_MIN`], then more while their
/// wall time stays under [`SETUP_BUDGET`], up to [`SETUP_REPS_MAX`].
/// `setup_s` reports their median.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// A traced run measures this fraction of `--seconds` untraced, then the
/// same again traced, and compares their `latency_ms_p50`.
const TRACE_FRACTION: f64 = 0.2;

/// Where the traced run writes its per-layer tables and Chrome traces.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench_results/skybench");

/// End-to-end metrics with their units, reported with telemetry off. The
/// times are in reference time (see [`refclock`]); each run also prints
/// them in wall time, with its highest supported tail percentile and its
/// error rate, which are not bounded (see `bench_results/skybench/README.md`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Bundles in SkyNet C: five backbone bundles plus Bundle 6.
pub const BUNDLES: usize = 6;

/// The model every workload runs: SkyNet C at width ÷8 with ReLU6.
pub fn model_config() -> SkyNetConfig {
    SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(8)
}

/// `n` synthetic DAC-SDC frames of `h×w`, generated from `seed`.
pub fn frames(seed: u64, n: usize, h: usize, w: usize) -> Vec<skynet_core::Sample> {
    DacSdc::new(DacSdcConfig {
        height: h,
        width: w,
        seed,
        ..DacSdcConfig::default()
    })
    .generate(n)
}

/// Error text for a failure the run cannot continue past.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Folds tensors' bytes into a CRC.
pub fn crc_tensors<'a>(crc: &mut Crc32, tensors: impl IntoIterator<Item = &'a Tensor>) {
    for t in tensors {
        for v in t.as_slice() {
            crc.update(&v.to_le_bytes());
        }
    }
}

/// One correctness gate: checked outside the timed region.
#[derive(Debug)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// How a segment is timed.
pub enum Timing<'a> {
    /// Reference probes between slices; every time is also scaled to
    /// reference time. The end-to-end metrics use this.
    Reference,
    /// Wall time only, telemetry off: the traced run's baseline.
    Wall,
    /// Wall time only, with telemetry on.
    Traced(&'a mut Tracer),
}

impl Timing<'_> {
    pub fn traced(&self) -> bool {
        matches!(self, Timing::Traced(_))
    }

    /// Ends a slice: probes the reference clock or drains the span
    /// buffers. Returns the slice's scale to reference time (1 when the
    /// segment is not probed).
    pub fn end_slice(&mut self, clock: &mut Option<RefClock>) -> f64 {
        if let Timing::Traced(tr) = self {
            tr.drain();
        }
        clock.as_mut().map_or(1.0, RefClock::end_slice)
    }

    /// The reference clock a segment with this timing probes.
    pub fn clock(&self) -> Option<RefClock> {
        matches!(self, Timing::Reference).then(RefClock::start)
    }
}

/// One timed segment of a workload.
#[derive(Debug, Default)]
pub struct Segment {
    /// Per-operation latency, ms of wall time.
    pub latencies_ms: Vec<f64>,
    /// Each latency's scale from wall time to reference time.
    pub scales: Vec<f64>,
    /// Wall time the workload had work to do, probes excluded.
    pub busy: Duration,
    /// The same in reference time, seconds.
    pub busy_ref_s: f64,
    /// Wall time of the whole segment, probes included.
    pub elapsed: Duration,
    /// Items completed (frames, images or fresh responses) for throughput.
    pub items: u64,
    /// Operations (frames, steps or requests) for per-layer normalisation.
    pub ops: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Operations whose output differed from the reference (a subset of
    /// `tally.failed`).
    pub wrong: u64,
    /// CRC of inputs generated for this segment (the serve schedule).
    pub inputs_crc: Option<u32>,
    /// Each slice's scale to reference time.
    pub slice_scales: Vec<f64>,
    /// Load-generator numbers for the per-layer report.
    pub extras: Extras,
}

impl Segment {
    /// Adds a finished slice: its samples from `first` on get `scale`.
    pub fn end_slice(&mut self, first: usize, busy: Duration, scale: f64) {
        debug_assert_eq!(self.scales.len(), first);
        self.scales.resize(self.latencies_ms.len(), scale);
        self.busy += busy;
        self.busy_ref_s += busy.as_secs_f64() * scale;
        self.slice_scales.push(scale);
    }

    /// `(throughput per second, p50 ms, p90 ms)` over the whole segment:
    /// items per busy second, and percentiles of the latencies, either in
    /// reference time or in wall time.
    fn summary(&self, reference: bool) -> Result<(f64, f64, f64), String> {
        let (busy_s, lat) = if reference {
            let lat = self.latencies_ms.iter().zip(&self.scales);
            (self.busy_ref_s, lat.map(|(l, s)| l * s).collect())
        } else {
            (self.busy.as_secs_f64(), self.latencies_ms.clone())
        };
        let lat = stats::sorted(lat);
        let p50 = stats::median(&lat).ok_or("no latency sample")?;
        let p90 = stats::percentile(&lat, 90.0).ok_or("no latency sample")?;
        Ok((self.items as f64 / busy_s, p50, p90))
    }
}

/// Runs `op(i)` for `i = 0, 1, …` back to back for `dur`, in slices of
/// [`SLICE`]; `op` returns whether its output was right. Used by every
/// closed loop.
pub fn closed_loop(
    dur: Duration,
    items_per_op: u64,
    mut timing: Timing,
    mut op: impl FnMut(usize) -> bool,
) -> Segment {
    let mut seg = Segment::default();
    let mut clock = timing.clock();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < dur {
        let first = seg.latencies_ms.len();
        let slice = Instant::now();
        while slice.elapsed() < SLICE && start.elapsed() < dur {
            let t = Instant::now();
            let ok = op(i);
            seg.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            seg.tally.record(ok);
            seg.wrong += u64::from(!ok);
            i += 1;
        }
        let busy = slice.elapsed();
        let scale = timing.end_slice(&mut clock);
        seg.end_slice(first, busy, scale);
    }
    seg.elapsed = start.elapsed();
    seg.items = i as u64 * items_per_op;
    seg.ops = i as u64;
    seg
}

/// A workload: inputs from the seed, a timed set-up, gates, a timed loop.
pub trait Bench {
    type Inputs;
    type State;
    /// Generates the inputs; returns them with their CRC.
    fn prepare(&self, seed: u64) -> Result<(Self::Inputs, u32), String>;
    /// Builds everything a user builds before the first result.
    fn setup(&self, inputs: &Self::Inputs) -> Result<Self::State, String>;
    /// Correctness gates run before measuring.
    fn gates(&self, state: &mut Self::State, inputs: &Self::Inputs) -> Result<Vec<Gate>, String>;
    /// Runs the workload for `dur`, opening `bench.*` spans when traced.
    fn measure(
        &self,
        state: &mut Self::State,
        inputs: &Self::Inputs,
        dur: Duration,
        timing: Timing,
    ) -> Result<Segment, String>;
    /// Tears the state down; returns gates that need the torn-down state.
    fn finish(&self, _state: Self::State) -> Result<Vec<Gate>, String> {
        Ok(Vec::new())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DetectF32,
    DetectInt8,
    TrainStep,
    ServeSteady,
    ServeBurst,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::DetectF32,
        Workload::DetectInt8,
        Workload::TrainStep,
        Workload::ServeSteady,
        Workload::ServeBurst,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DetectF32 => "detect_f32",
            Workload::DetectInt8 => "detect_int8",
            Workload::TrainStep => "train_step",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeBurst => "serve_burst",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// Everything a single-workload run reports.
struct Report {
    /// Each set-up's `(wall, reference)` time in seconds.
    setup_s: Vec<(f64, f64)>,
    gates: Vec<Gate>,
    inputs_digest: u32,
    segment: Segment,
    layers: Option<Layers>,
}

fn execute<B: Bench>(bench: B, seed: u64, dur: Duration, traced: bool) -> Result<Report, String> {
    let (inputs, frames_crc) = bench.prepare(seed)?;
    let mut gates = Vec::new();
    let mut setup_s = Vec::new();
    let mut clock = RefClock::start();
    let mut spent = Duration::ZERO;
    let mut state = None;
    while setup_s.len() < SETUP_REPS_MIN || (setup_s.len() < SETUP_REPS_MAX && spent < SETUP_BUDGET)
    {
        if let Some(old) = state.take() {
            // Earlier set-ups are torn down too; only failures are news.
            gates.extend(bench.finish(old)?.into_iter().filter(|g| !g.pass));
        }
        let t = Instant::now();
        state = Some(bench.setup(&inputs)?);
        let wall = t.elapsed();
        spent += wall;
        let scale = clock.end_slice();
        setup_s.push((wall.as_secs_f64(), wall.as_secs_f64() * scale));
    }
    drop(clock);
    let mut state = state.expect("SETUP_REPS_MIN > 0");
    gates.extend(bench.gates(&mut state, &inputs)?);

    let mut digest = Crc32::new();
    digest.update(&frames_crc.to_le_bytes());
    let (segment, layers) = if traced {
        let short = dur.mul_f64(TRACE_FRACTION);
        let untraced = bench.measure(&mut state, &inputs, short, Timing::Wall)?;
        let mut tracer = Tracer::start();
        let segment = bench.measure(&mut state, &inputs, short, Timing::Traced(&mut tracer))?;
        let layers = tracer.finish(
            &segment,
            untraced.summary(false)?.1,
            segment.summary(false)?.1,
        )?;
        if let Some(c) = untraced.inputs_crc {
            digest.update(&c.to_le_bytes());
        }
        (segment, Some(layers))
    } else {
        (
            bench.measure(&mut state, &inputs, dur, Timing::Reference)?,
            None,
        )
    };
    if let Some(c) = segment.inputs_crc {
        digest.update(&c.to_le_bytes());
    }
    gates.extend(bench.finish(state)?);
    Ok(Report {
        setup_s,
        gates,
        inputs_digest: digest.finalize(),
        segment,
        layers,
    })
}

struct Args {
    workload: Option<Workload>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seeds: vec![42],
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value("--workload")?)?),
            "--seed" => {
                args.seeds = value("--seed")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad seed {s:?}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                let s = value("--seconds")?;
                args.seconds = s.parse().map_err(|e| format!("bad --seconds {s:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seeds.is_empty() {
        return Err("--seed needs at least one value".into());
    }
    if args.workload.is_some() && args.seeds.len() != 1 {
        return Err("--workload takes exactly one seed".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("skybench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its report; returns
/// whether every gate passed and every output was correct.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let seed = args.seeds[0];
    let dur = Duration::from_secs_f64(args.seconds);
    let report = match w {
        Workload::DetectF32 => execute(detect::Detect { int8: false }, seed, dur, args.trace),
        Workload::DetectInt8 => execute(detect::Detect { int8: true }, seed, dur, args.trace),
        Workload::TrainStep => execute(train::Train, seed, dur, args.trace),
        Workload::ServeSteady => execute(serve::Serve::steady(), seed, dur, args.trace),
        Workload::ServeBurst => execute(serve::Serve::burst(), seed, dur, args.trace),
    }?;
    let seg = &report.segment;
    let name = w.name();

    println!("{name} host {}", host::fingerprint(seed));
    println!("{name} inputs_digest {:#010x}", report.inputs_digest);
    for g in &report.gates {
        let verdict = if g.pass { "pass" } else { "FAIL" };
        println!("{name} gate.{} {verdict} {}", g.name, g.detail);
    }
    let correct = report.gates.iter().all(|g| g.pass) && seg.wrong == 0;
    let setup_median = |pick: fn(&(f64, f64)) -> f64| {
        stats::median(&stats::sorted(report.setup_s.iter().map(pick).collect())).unwrap_or(0.0)
    };

    let metrics: Vec<(&str, f64, &str)> = match &report.layers {
        Some(layers) => {
            let coverage = layers
                .metrics
                .iter()
                .find(|(n, _, _)| *n == "trace.coverage")
                .map_or(0.0, |m| m.1);
            if coverage < 0.90 {
                return Err(format!(
                    "benchmark spans cover {:.1} % of the traced wall time (need >= 90 %)",
                    100.0 * coverage
                ));
            }
            std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
            let write = |file: String, body: &str| {
                let path = format!("{TRACE_DIR}/{file}");
                std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))
            };
            write(format!("trace_{name}.json"), &layers.chrome_json)?;
            write(
                format!("layers_{name}.md"),
                &layers_markdown(name, &report, layers, seed),
            )?;
            layers.metrics.clone()
        }
        None => {
            let (rate, p50, _) = seg.summary(true)?;
            let values = [setup_median(|s| s.1), rate, p50, host::peak_rss_mb()?];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        }
    };
    if let Some((n, v, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {n} is not finite ({v})"));
    }
    if seg.tally.attempted == 0 {
        return Err("no operation completed in the timed segment".into());
    }

    println!(
        "{name} samples {} attempted {} failed {} setups {} elapsed_s {:.3}",
        seg.latencies_ms.len(),
        seg.tally.attempted,
        seg.tally.failed,
        report.setup_s.len(),
        seg.elapsed.as_secs_f64(),
    );
    for (n, v, u) in &metrics {
        println!("{name}.{n} {v} {u}");
    }
    if report.layers.is_none() {
        // Not bounded: p90 in reference time, the bounded times in wall
        // time, the reference clock's median scale, the highest
        // percentile the sample supports, and the error rate (also
        // carried by `failed` / `attempted`).
        println!("{name}.latency_ms_p90 {} ms", seg.summary(true)?.2);
        let (rate, p50, p90) = seg.summary(false)?;
        println!("{name}.setup_s.wall {} s", setup_median(|s| s.0));
        println!("{name}.throughput_per_s.wall {rate} 1/s");
        println!("{name}.latency_ms_p50.wall {p50} ms");
        println!("{name}.latency_ms_p90.wall {p90} ms");
        let scale = stats::median(&stats::sorted(seg.slice_scales.clone())).unwrap_or(0.0);
        println!("{name}.host_scale {scale} ratio");
        let sorted = stats::sorted(seg.latencies_ms.clone());
        if let Some(p) = stats::tail_percentile(sorted.len()).filter(|&p| p > 90.0) {
            let v = stats::percentile(&sorted, p).unwrap_or(0.0);
            println!("{name}.latency_ms_p{p}.wall {v} ms");
        }
        println!("{name}.error_rate {} ratio", seg.tally.error_rate());
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        seg.tally.attempted, seg.tally.failed
    );
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// The `layers_<workload>.md` report of a traced run.
fn layers_markdown(name: &str, report: &Report, layers: &Layers, seed: u64) -> String {
    let seg = &report.segment;
    let mut md = format!("# skybench traced run: `{name}`\n\n");
    let _ = writeln!(
        md,
        "Host: {}. Traced segment: {:.2} s, {} operations. Inputs digest {:#010x}.\n",
        host::fingerprint(seed),
        seg.elapsed.as_secs_f64(),
        seg.ops,
        report.inputs_digest
    );
    md.push_str("## Per-layer metrics\n\n| metric | value | unit |\n|---|---:|---|\n");
    for (n, v, u) in &layers.metrics {
        let _ = writeln!(md, "| `{n}` | {v:.4} | {u} |");
    }
    md.push_str("\n## Spans (all threads)\n\n");
    md.push_str(&layers.table);
    md
}

/// Runs every workload (for every seed) in a child process, forwards
/// the children's output, and prints each metric's median and spread.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut ok = true;
    let mut summary = String::from("| workload | metric | unit | runs | median | q1 | q3 | spread |\n|---|---|---|---:|---:|---:|---:|---:|\n");
    for w in Workload::ALL {
        let prefix = format!("{}.", w.name());
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for &seed in &args.seeds {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
                let mut f = line.split_whitespace();
                if let (Some(n), Some(v), Some(u), None) = (f.next(), f.next(), f.next(), f.next())
                {
                    if let (Some(n), Ok(v)) = (n.strip_prefix(&prefix), v.parse::<f64>()) {
                        match values.iter_mut().find(|(m, _, _)| m == n) {
                            Some(entry) => entry.2.push(v),
                            None => values.push((n.to_string(), u.to_string(), vec![v])),
                        }
                    }
                }
            }
            if !out.status.success() {
                println!("{} seed {seed}: FAILED ({})", w.name(), out.status);
                ok = false;
            }
        }
        for (metric, unit, v) in &values {
            let [q1, q2, q3] = stats::quartiles(v).unwrap_or([v[0]; 3]);
            let spread = stats::spread(v).map_or("-".into(), |s| format!("{:.2} %", 100.0 * s));
            let _ = writeln!(
                summary,
                "| {} | `{metric}` | {unit} | {} | {q2:.4} | {q1:.4} | {q3:.4} | {spread} |",
                w.name(),
                v.len()
            );
        }
    }
    println!("\n{summary}");
    println!(
        "skybench: {} in {:.1} s",
        if ok { "all gates passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name every metric
    /// and workload this binary reports.
    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = END_TO_END
            .iter()
            .chain(trace::PER_LAYER.iter())
            .map(|&(n, _)| n)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
    }
}
