//! `perfbench` — the repository benchmark for the sharded vProfile IDS.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One generator thread synthesizes the workload's traffic from the seed,
//! then, for `--seconds`, repeats timed passes: set up the engine and a
//! two-worker pipeline, feed the pass's chunks through the public `feed`
//! and drain `events()` in the same loop. Every event is checked against
//! a reference (see `check`). With `--trace 0` the last stdout line holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, from the same passes plus single-threaded passes through the
//! per-layer calls (see `trace`). A failed output check exits non-zero.

mod check;
mod drive;
mod metrics;
mod procfs;
mod trace;
mod workload;

use check::{FrameClass, Tally};
use drive::Pass;
use metrics::{median, percentile, Report};
use procfs::CpuTicks;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Mode, Recorder};
use workload::{Engine, Input, Pipeline, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench \
                     --workload <replay_clean|replay_poison_update|replay_fusion|paced_fusion> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
                "--seconds" => match value.parse() {
                    Ok(s) if s > 0 => seconds = s,
                    _ => return Err("--seconds needs a positive integer".into()),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = false,
                    "1" => trace = true,
                    _ => return Err("--trace takes 0 or 1".into()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Timed passes plus, for each, the set-up time it paid, the resident
/// memory it added and the share of the machine's CPU time the hypervisor
/// stole during its set-up and pass.
struct Timed {
    passes: Vec<Pass>,
    setup_s: Vec<f64>,
    rss_growth_mb: Vec<f64>,
    steal_frac: Vec<f64>,
    tally: Tally,
}

/// Indices of the quarter of the passes (rounded up) with the least
/// steal, in pass order. On a shared virtual machine the hypervisor stalls
/// the program's threads while other guests run, and a pass's throughput
/// falls with the steal during it; the end-to-end figures come from these
/// passes so that stretches of steal inside a run move them less.
fn least_stolen(steal_frac: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal_frac.len()).collect();
    order.sort_by(|&a, &b| steal_frac[a].total_cmp(&steal_frac[b]));
    order.truncate(steal_frac.len().div_ceil(4));
    order.sort_unstable();
    order
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let input = Input::generate(workload, args.seed)?;
    let engine = workload::train(&input)?;
    let closing = workload::pass_closing_chunks(&input);
    let expected = expected_classes(&input, &engine, &closing)?;
    let digest = check::digest(&expected);
    eprintln!(
        "digest {} {} {} {digest:016x}",
        workload.name(),
        args.seed,
        expected.len()
    );
    let committed_ok = match check::committed_digest(workload.name(), args.seed) {
        Some(committed) if committed != (expected.len() as u64, digest) => {
            eprintln!(
                "error: committed digest {:?} differs from the reference pass",
                committed
            );
            false
        }
        _ => true,
    };

    let timed = timed_passes(&input, &closing, &expected, args)?;
    print_context(args, &input, &expected, &timed);
    let failed = timed.tally.failed();
    let mut report = Report::new(
        committed_ok && failed == 0,
        timed.tally.expected,
        failed,
        args.trace,
    );
    if args.trace {
        per_layer(&mut report, &input, &engine, &timed, args)?;
    } else {
        end_to_end(&mut report, &timed)?;
    }
    report.finish()?;
    Ok(report)
}

/// The classes every timed pass must reproduce. With updates off: the
/// single-threaded engine over the same chunks. With updates on the
/// output depends on the worker count, so a two-worker reference pass
/// (untimed) supplies them, and a committed digest pins them for the
/// listed seeds.
fn expected_classes(
    input: &Input,
    engine: &Engine,
    closing: &[(u64, usize)],
) -> Result<Vec<FrameClass>, String> {
    match engine {
        Engine::Single(single) if !input.workload.updates_on() => {
            Ok(workload::single_engine_classes(single, input))
        }
        _ => {
            let pipeline = Pipeline::spawn(engine.clone());
            Ok(drive::run_pass(input, pipeline, closing, None, false)?.classes)
        }
    }
}

/// Repeats set-up plus one pass until `--seconds` would be exceeded (at
/// least one pass).
fn timed_passes(
    input: &Input,
    closing: &[(u64, usize)],
    expected: &[FrameClass],
    args: &Args,
) -> Result<Timed, String> {
    let paced = input
        .workload
        .is_paced()
        .then(|| Duration::from_secs_f64(input.chunk_interval_s()));
    let began = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut timed = Timed {
        passes: Vec::new(),
        setup_s: Vec::new(),
        rss_growth_mb: Vec::new(),
        steal_frac: Vec::new(),
        tally: Tally::default(),
    };
    let mut longest = Duration::ZERO;
    while timed.passes.is_empty() || began.elapsed() + longest <= budget {
        let steal_before = procfs::host_steal().map_err(|e| e.to_string())?;
        let pass_began = Instant::now();
        let engine = workload::train(input)?;
        let trained_s = pass_began.elapsed().as_secs_f64();
        // The pass's memory is measured from here: the pipeline's threads,
        // rings, engine copies and in-flight chunks and events.
        let rss_before = procfs::rss_mb().map_err(|e| e.to_string())?;
        let spawning = Instant::now();
        let pipeline = Pipeline::spawn(engine);
        timed
            .setup_s
            .push(trained_s + spawning.elapsed().as_secs_f64());
        let mut pass = drive::run_pass(input, pipeline, closing, paced, args.trace)?;
        timed.tally = timed.tally.plus(check::compare(expected, &pass.classes));
        timed.rss_growth_mb.push(pass.rss_max_mb - rss_before);
        let steal_after = procfs::host_steal().map_err(|e| e.to_string())?;
        timed.steal_frac.push(
            (steal_after.0 - steal_before.0) as f64
                / (steal_after.1 - steal_before.1).max(1) as f64,
        );
        pass.shed(args.trace);
        timed.passes.push(pass);
        longest = longest.max(pass_began.elapsed());
    }
    Ok(timed)
}

fn sum_cpu<'a>(
    passes: impl IntoIterator<Item = &'a Pass>,
    of: impl Fn(&Pass) -> CpuTicks,
) -> CpuTicks {
    passes
        .into_iter()
        .fold(CpuTicks::default(), |acc, p| acc.plus(of(p)))
}

fn total_frames<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    passes.into_iter().map(|p| p.frames as f64).sum()
}

/// Each figure is taken per pass and reported as the median over the
/// least-stolen quarter of the passes (see [`least_stolen`]).
fn end_to_end(report: &mut Report, timed: &Timed) -> Result<(), String> {
    let quiet = least_stolen(&timed.steal_frac);
    let per_pass =
        |of: &dyn Fn(usize) -> f64| median(&quiet.iter().map(|&i| of(i)).collect::<Vec<_>>());
    let passes: Vec<&Pass> = quiet.iter().map(|&i| &timed.passes[i]).collect();
    report.push(
        "frames_per_s",
        per_pass(&|i| timed.passes[i].frames as f64 / timed.passes[i].elapsed_s),
    )?;
    // CPU is read in 10 ms ticks, too coarse for one pass: total it.
    let cpu = sum_cpu(passes.iter().copied(), |p| p.pipeline_cpu);
    report.push(
        "cpu_us_per_frame",
        cpu.seconds() * 1e6 / total_frames(passes.iter().copied()),
    )?;
    report.push("setup_s", per_pass(&|i| timed.setup_s[i]))?;
    // VmHWM would be set by input synthesis, which is not the program's:
    // each pass's figure is the largest VmRSS the generator sampled during
    // the pass minus the VmRSS just before its pipeline was spawned.
    report.push("peak_rss_mb", per_pass(&|i| timed.rss_growth_mb[i]))?;
    Ok(())
}

fn per_layer(
    report: &mut Report,
    input: &Input,
    engine: &Engine,
    timed: &Timed,
    args: &Args,
) -> Result<(), String> {
    let passes = &timed.passes;
    let frames = total_frames(passes);
    let per_frame = |total: u64| total as f64 / frames;
    let stage = |of: fn(&vprofile_ids::StageBreakdown) -> u64| {
        per_frame(passes.iter().map(|p| of(&p.stats.stage_ns)).sum())
    };
    let counter = |of: &dyn Fn(&Pass) -> u64| passes.iter().map(of).sum::<u64>();
    let per_pass = |of: &dyn Fn(&Pass) -> u64| {
        median(&passes.iter().map(|p| of(p) as f64).collect::<Vec<_>>())
    };

    report.push("splitter.router_ns_per_frame", stage(|s| s.router_ns))?;
    report.push("framer.frame_ns_per_frame", stage(|s| s.frame_ns))?;
    report.push("extract.extract_ns_per_frame", stage(|s| s.extract_ns))?;
    report.push("score.score_ns_per_frame", stage(|s| s.score_ns))?;
    report.push("reorder.merge_ns_per_frame", stage(|s| s.merge_ns))?;
    report.push(
        "extract.failures_frac",
        per_frame(counter(&|p| p.stats.extraction_failures)),
    )?;
    report.push(
        "score.anomaly_frac",
        per_frame(counter(&|p| p.stats.anomalies)),
    )?;
    report.push("update.retrain_due_events", per_pass(&|p| p.retrain_due))?;
    report.push(
        "fusion.voter_disagreements",
        per_pass(&|p| p.stats.voter_disagreements.iter().sum()),
    )?;
    report.push(
        "fusion.drift_verdicts",
        per_pass(&|p| p.stats.drift_verdicts),
    )?;
    report.push("fusion.voter_outages", per_pass(&|p| p.stats.voter_outages))?;
    report.push(
        "pipeline.feed_block_s",
        median(&passes.iter().map(|p| p.feed_block_s).collect::<Vec<_>>()),
    )?;
    report.push(
        "pipeline.queue_depth_max",
        passes.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
    )?;
    let shard_frames: Vec<u64> = (0..workload::WORKERS)
        .map(|s| {
            passes
                .iter()
                .map(|p| p.stats.shard_frames.get(s).copied().unwrap_or(0))
                .sum()
        })
        .collect();
    let mean = shard_frames.iter().sum::<u64>() as f64 / shard_frames.len() as f64;
    let skew = shard_frames.iter().copied().max().unwrap_or(0) as f64 / mean;
    report.push("shard.skew", skew)?;
    report.push(
        "shard.sheds",
        counter(&|p| p.stats.shard_sheds.iter().sum()) as f64,
    )?;
    report.push(
        "health.degraded_frac",
        per_frame(counter(&|p| p.stats.degraded)),
    )?;
    report.push(
        "health.restarts",
        counter(&|p| p.stats.restarts.iter().map(|&r| u64::from(r)).sum()) as f64,
    )?;
    let cpu = sum_cpu(passes, |p| p.pipeline_cpu);
    let stage_total: u64 = passes
        .iter()
        .map(|p| {
            let s = p.stats.stage_ns;
            s.router_ns + s.frame_ns + s.extract_ns + s.score_ns + s.shadow_ns + s.merge_ns
        })
        .sum();
    report.push("cpu.sys_frac", cpu.system as f64 / cpu.total() as f64)?;
    report.push(
        "cpu.unattributed_frac",
        1.0 - stage_total as f64 * 1e-9 / cpu.seconds(),
    )?;
    report.push("cpu.pipeline_us_per_frame", cpu.seconds() * 1e6 / frames)?;
    report.push(
        "cpu.generator_us_per_frame",
        sum_cpu(passes, |p| p.generator_cpu).seconds() * 1e6 / frames,
    )?;
    report.push("host.steal_frac", median(&timed.steal_frac))?;
    report.push(
        "gen.late_max_ms",
        passes.iter().map(|p| p.late_max_s).fold(0.0, f64::max) * 1e3,
    )?;
    report.push(
        "latency_p50_us",
        median(&passes.iter().map(|p| p.latency_p50_us).collect::<Vec<_>>()),
    )?;
    report.push(
        "latency_p90_us",
        median(&passes.iter().map(|p| p.latency_p90_us).collect::<Vec<_>>()),
    )?;
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    report.push("latency_p99_us", percentile(&latencies, 0.99))?;
    report.push("latency_max_us", percentile(&latencies, 1.0))?;
    report.push(
        "frames_failed_frac",
        timed.tally.failed() as f64 / timed.tally.expected.max(1) as f64,
    )?;

    // Single-threaded passes: the plain job as the baseline, repeated for
    // at least a second so its CPU spans a hundred 10 ms ticks; then the
    // per-layer calls untraced and traced, alternated twice; the ratio of
    // their faster runs is the tracing overhead.
    let mut idle = Recorder::with_capacity(0);
    let mut plain = trace::st_pass(input, engine, Mode::Plain, &mut idle);
    while plain.wall_s < 1.0 {
        let again = trace::st_pass(input, engine, Mode::Plain, &mut idle);
        plain.frames += again.frames;
        plain.wall_s += again.wall_s;
        plain.cpu_s += again.cpu_s;
    }
    let mut layered_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut recorder = Recorder::with_capacity(0);
    let mut traced_frames = 0;
    let frames_per_pass = passes.first().map_or(0, |p| p.frames);
    for _ in 0..2 {
        layered_s = layered_s.min(trace::st_pass(input, engine, Mode::Layered, &mut idle).wall_s);
        // Two spans per chunk and at most five per frame.
        recorder = Recorder::with_capacity(2 * input.chunk_count() + 5 * frames_per_pass);
        let traced = trace::st_pass(input, engine, Mode::Traced, &mut recorder);
        traced_s = traced_s.min(traced.wall_s);
        traced_frames = traced.frames;
    }
    let own = recorder.self_ns();
    let span_ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / traced_frames as f64;
    // The pipeline's `quarantined_sas` gauge moves only on breaker
    // transitions, so drift-guard quarantines are read from the
    // single-threaded engine instead.
    report.push("update.quarantined_sas", plain.quarantined as f64)?;
    report.push("trace.st_frames_per_s", plain.frames as f64 / plain.wall_s)?;
    report.push(
        "trace.st_cpu_us_per_frame",
        plain.cpu_s * 1e6 / plain.frames as f64,
    )?;
    report.push("trace.overhead_frac", traced_s / layered_s - 1.0)?;
    report.push("trace.framer_ns_per_frame", span_ns("framer"))?;
    report.push("trace.peek_ns_per_frame", span_ns("peek"))?;
    report.push("trace.extract_ns_per_frame", span_ns("extract"))?;
    // The engine span re-extracts the window it was handed, so its
    // scoring share is the engine span minus the separately timed
    // extraction of the same window.
    let engine_ns = span_ns("engine");
    let score_ns = if engine_ns > 0.0 {
        engine_ns - span_ns("extract")
    } else {
        0.0
    };
    report.push("trace.score_ns_per_frame", score_ns)?;
    report.push("trace.fusion_ns_per_frame", span_ns("fusion"))?;
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.tsv",
        input.workload.name(),
        args.seed
    ));
    recorder
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "trace: {} spans written to {}; single-thread {:.3} us/frame CPU vs pipeline {:.3}",
        recorder.len(),
        path.display(),
        plain.cpu_s * 1e6 / plain.frames as f64,
        cpu.seconds() * 1e6 / frames
    );
    Ok(())
}

/// The run's context and the measured shape of the workload's input, on
/// stderr as one JSON object.
fn print_context(args: &Args, input: &Input, expected: &[FrameClass], timed: &Timed) {
    let frames = expected.len().max(1) as f64;
    let anomalies = expected
        .iter()
        .filter(|c| c.is_anomalous() && !c.is_extraction_failure())
        .count() as f64;
    let failures = expected
        .iter()
        .filter(|c| c.is_extraction_failure())
        .count() as f64;
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    eprintln!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"available_parallelism\": {cores}, \
         \"cpu_model\": \"{}\", \"workers\": {}, \"chunk_samples\": {}, \
         \"paced_frames_per_s\": {}, \"frames_per_replay\": {}, \"replays_per_pass\": {}, \
         \"frames_per_pass\": {}, \"anomaly_share\": {:.4}, \"extraction_failure_share\": {:.4}, \
         \"passes\": {}}}",
        input.workload.name(),
        args.seed,
        procfs::cpu_model(),
        workload::WORKERS,
        input.workload.chunk_len(),
        if input.workload.is_paced() {
            workload::PACED_FRAMES_PER_S
        } else {
            0.0
        },
        input.replay_frames,
        input.workload.cycles(),
        expected.len(),
        anomalies / frames,
        failures / frames,
        timed.passes.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_figures_come_from_the_least_stolen_quarter_of_the_passes() {
        let steal = [0.30, 0.0, 0.05, 0.01, 0.20, 0.0, 0.12, 0.02, 0.4];
        assert_eq!(least_stolen(&steal), [1, 3, 5]);
        assert_eq!(least_stolen(&[0.1, 0.2, 0.0, 0.3]), [2]);
        assert_eq!(least_stolen(&[0.4]), [0]);
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let line = "--workload paced_fusion --seed 7 --seconds 3 --trace 1";
        let args = Args::parse(line.split(' ').map(String::from)).expect("valid");
        assert_eq!(args.workload, Workload::PacedFusion);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(Args::parse(["--workload".to_string()]).is_err());
        assert!(Args::parse(["--workload", "nope"].map(String::from)).is_err());
        assert!(Args::parse(["--seed", "1"].map(String::from)).is_err());
    }
}
