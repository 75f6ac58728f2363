//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--repro PATH] [--work DIR]
//! ```
//!
//! Four workloads, each generated from `--seed` (see README.md for why
//! each exists and which layer metric should move which end-to-end
//! metric):
//!
//! * `fig9-sweep` — `repro fig9` at n=1500, in-process;
//! * `cold-8k` — the fig3 case-study cell at n=8000, two rounds;
//! * `scenario-surface` — `repro scenario` at n=1000, in-process;
//! * `serve-mix` — a closed loop of two clients against `repro serve`.
//!
//! With `--trace 0` the last stdout line reports the end-to-end
//! metrics of untraced runs; with `--trace 1` it reports the per-layer
//! metrics of a traced run, and the spans are written to
//! `<work>/traces/` as Chrome trace-event JSON. Every output is
//! checked; a failed check makes the run exit 1.

mod cold8k;
mod fig9;
mod report;
mod scenario;
mod serve_mix;
mod stats;
mod trace;
mod world;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["fig9-sweep", "cold-8k", "scenario-surface", "serve-mix"];

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "run_s",
    "peak_rss_mib",
    "job_p50_ms",
    "job_p90_ms",
    "cached_p50_ms",
];

/// The per-layer metrics every traced run reports, with units. A
/// layer the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("asgraph.generate_s", "s"),
    ("atlas.build_s", "s"),
    ("atlas.mib", "MiB"),
    ("atlas.compression", "ratio"),
    ("atlas.hit_rate", "ratio"),
    ("atlas.get_us", "us"),
    ("atlas.bfs_us", "us"),
    ("tree.compute_us", "us"),
    ("delta.project_us", "us"),
    ("flows.fold_us", "us"),
    ("delta.hits", "count"),
    ("delta.fallbacks", "count"),
    ("delta.touched_fraction", "ratio"),
    ("engine.busy_s", "s"),
    ("engine.passes", "count"),
    ("engine.pass_p50_s", "s"),
    ("engine.trees", "count"),
    ("engine.reuse_rate", "ratio"),
    ("engine.scaling_2t", "ratio"),
    ("sim.self_s", "s"),
    ("metrics.secure_path_s", "s"),
    ("scenario.select_s", "s"),
    ("scenario.surface_s", "s"),
    ("scenario.scenarios", "count"),
    ("scenario.fixpoint_iters", "count"),
    ("scenario.iters_per_scenario", "count"),
    ("scenario.simulate_us", "us"),
    ("scenario.quarantined", "count"),
    ("joblog.submit_ms", "ms"),
    ("joblog.start_ms", "ms"),
    ("joblog.complete_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.atlas_cache_hit_rate", "ratio"),
    ("serve.result_cache_hits", "count"),
    ("trace.overhead_s", "s"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed-body iterations per run, at least: the first computes every
/// job for the first time, the later ones repeat them warm.
const MIN_ITERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: Option<PathBuf>,
    work: PathBuf,
}

fn absolute(p: &str) -> Result<PathBuf, String> {
    std::path::absolute(p).map_err(|e| format!("{p}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut work = absolute(".bench_build/perfbench")?;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            // Absolute, since children run in their own directories.
            "--repro" => repro = Some(absolute(value)?),
            "--work" => work = absolute(value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        repro,
        work,
    })
}

/// Everything a workload needs while it runs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Records spans in `--trace 1` runs; disabled otherwise.
    pub tracer: Tracer,
    /// Always disabled: the untraced iterations of a traced run.
    pub quiet: Tracer,
    pub report: Report,
    /// A fresh scratch directory, removed at exit.
    pub tmp: PathBuf,
    pub repro: Option<PathBuf>,
    /// Peak resident MiB of each set-up and each untraced iteration.
    setup_peaks: Vec<f64>,
    iter_peaks: Vec<f64>,
}

/// Reset the kernel's high-water mark (VmHWM) to the current resident
/// size, so the next read gives the peak of the phase in between.
fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// `peak_rss_mib` of an in-process workload: the larger of the
    /// median set-up peak and the median iteration peak. Medians of
    /// per-phase peaks, because a single process-wide VmHWM also
    /// catches how much freed memory the allocator happened to keep,
    /// which varied by ±15% between identical runs.
    pub fn peak_rss(&self) -> f64 {
        let m = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
        println!(
            "[perfbench] peak RSS MiB per set-up {:.1?}, per iteration {:.1?}",
            self.setup_peaks, self.iter_peaks
        );
        m(&self.setup_peaks).max(m(&self.iter_peaks))
    }

    /// Run `setup` [`SETUP_REPS`] times (once when tracing), dropping
    /// each product before building the next so peak memory holds one.
    /// Returns the last product and the median seconds.
    pub fn repeat_setup<T>(&mut self, mut setup: impl FnMut(&Tracer) -> T) -> (T, f64) {
        let reps = if self.traced() { 1 } else { SETUP_REPS };
        let mut secs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            reset_peak();
            let t = Instant::now();
            last = Some(setup(&self.tracer));
            secs.push(t.elapsed().as_secs_f64());
            self.setup_peaks
                .extend(world::peak_rss_mib("self").filter(|_| !self.traced()));
        }
        let product = last.expect("at least one set-up");
        (product, stats::median(&secs).expect("at least one set-up"))
    }

    /// Run the timed body: untraced, at least [`MIN_ITERS`] times and
    /// until `--seconds` have passed; with tracing, [`MIN_ITERS`]
    /// untraced iterations and then one traced one (returned
    /// separately). `body` gets the tracer to record into.
    pub fn iterate<T>(&mut self, mut body: impl FnMut(&Tracer) -> T) -> Iters<T> {
        let mut it = Iters {
            outs: Vec::new(),
            secs: Vec::new(),
            traced: None,
        };
        // Untraced, stop before an iteration that would end past
        // `--seconds` (judged by the last one's length).
        let start = Instant::now();
        while it.outs.len() < MIN_ITERS
            || (!self.traced()
                && start.elapsed().as_secs_f64() + it.secs.last().copied().unwrap_or(0.0)
                    <= self.seconds)
        {
            reset_peak();
            let t = Instant::now();
            let out = body(&self.quiet);
            it.secs.push(t.elapsed().as_secs_f64());
            it.outs.push(out);
            self.iter_peaks.extend(world::peak_rss_mib("self"));
        }
        if self.traced() {
            let t = Instant::now();
            let out = body(&self.tracer);
            it.traced = Some((out, t.elapsed().as_secs_f64()));
        }
        it
    }
}

/// Outputs and wall seconds of the body's iterations.
pub struct Iters<T> {
    pub outs: Vec<T>,
    pub secs: Vec<f64>,
    pub traced: Option<(T, f64)>,
}

impl<T> Iters<T> {
    /// Report `run_s` (median iteration), or in a traced run the
    /// tracing overhead: the traced iteration against the median of the
    /// untraced repeats (both warm).
    pub fn report_run(&self, r: &mut Report, traced: bool) {
        println!("[perfbench] iteration seconds {:.3?}", self.secs);
        match &self.traced {
            Some((_, t)) if traced => {
                let warm = stats::median(&self.secs[1..]).expect("at least two iterations");
                r.metric("trace.overhead_s", t - warm, "s");
                println!("[trace] traced run_s {t:.4} s vs untraced {warm:.4} s");
            }
            _ => r.metric(
                "run_s",
                stats::median(&self.secs).expect("at least one iteration"),
                "s",
            ),
        }
    }
}

/// Job latency metrics of an in-process workload, where a job is one
/// run of the workload's command: one timed-body iteration. `job_*`
/// cover every iteration; `cached_p50_ms` covers the repeats, which
/// recompute with the process warm (in-process there is no result
/// cache).
pub fn latency_metrics<T>(r: &mut Report, iters: &Iters<T>) {
    let ms: Vec<f64> = iters.secs.iter().map(|s| s * 1e3).collect();
    job_latency_metrics(r, &ms, &ms[1..]);
}

/// `job_p50_ms`, `job_p90_ms` over `jobs_ms` and `cached_p50_ms` over
/// `cached_ms`, with the sample counts printed.
pub fn job_latency_metrics(r: &mut Report, jobs_ms: &[f64], cached_ms: &[f64]) {
    let p50 = stats::median(jobs_ms).unwrap_or(0.0);
    let (p90, beyond) = stats::percentile(jobs_ms, 0.9).unwrap_or((0.0, 0));
    let cached = stats::median(cached_ms).unwrap_or(0.0);
    r.metric("job_p50_ms", p50, "ms");
    r.metric("job_p90_ms", p90, "ms");
    r.metric("cached_p50_ms", cached, "ms");
    println!(
        "[perfbench] {} jobs, {} cached; job_p90_ms has {beyond} sample(s) beyond it{}",
        jobs_ms.len(),
        cached_ms.len(),
        if beyond < stats::MIN_BEYOND {
            " (fewer than 10: read it as a maximum, not a percentile)"
        } else {
            ""
        }
    );
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Who measured what, where: printed with every record and written
/// into every trace, so numbers from different hosts or commits are
/// never mixed silently.
fn identity(a: &Args) -> String {
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = if a.workload == "serve-mix" {
        serve_mix::DAEMON_THREADS
    } else {
        world::THREADS
    };
    format!(
        "{{\"commit\":\"{}\",\"cpu\":\"{}\",\"cores\":{cores},\"rustc\":\"{}\",\
         \"threads\":{},\"seed\":{},\"workload\":\"{}\",\"trace\":{}}}",
        json_str(&commit),
        json_str(&cpu_model()),
        json_str(&rustc_version()),
        threads,
        a.seed,
        a.workload,
        u8::from(a.trace)
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ident = identity(&args);
    println!("[identity] {ident}");
    let run_id = format!("{}-seed{}-{}", args.workload, args.seed, std::process::id());
    let tmp = args.work.join("tmp").join(&run_id);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        quiet: Tracer::new(false),
        report: Report::default(),
        tmp: tmp.clone(),
        repro: args.repro.clone(),
        setup_peaks: Vec::new(),
        iter_peaks: Vec::new(),
    };
    match args.workload.as_str() {
        "fig9-sweep" => fig9::run(&mut ctx),
        "cold-8k" => cold8k::run(&mut ctx),
        "scenario-surface" => scenario::run(&mut ctx),
        "serve-mix" => serve_mix::run(&mut ctx),
        _ => unreachable!("workload names are validated at parse time"),
    }
    let _ = std::fs::remove_dir_all(&tmp);

    if args.trace {
        let spans = ctx.tracer.spans();
        for (name, (count, total, own)) in trace::by_name(&spans) {
            println!("[trace] {name}: {count} span(s), {total:.4} s total, {own:.4} s self");
        }
        let dir = args.work.join("traces");
        let path = dir.join(format!("{run_id}.trace.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&spans, &run_id, &ident)));
        match written {
            Ok(()) => println!(
                "[trace] {} span(s) written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => ctx
                .report
                .fail(format!("writing trace {}: {e}", path.display())),
        }
    }
    if args.trace {
        let idle: Vec<(&str, &str)> = PER_LAYER
            .into_iter()
            .filter(|(name, _)| ctx.report.get(name).is_none())
            .collect();
        for &(name, unit) in &idle {
            ctx.report.metric(name, 0.0, unit);
        }
        if !idle.is_empty() {
            let names: Vec<&str> = idle.iter().map(|(n, _)| *n).collect();
            println!(
                "[trace] not exercised by {}: {}",
                args.workload,
                names.join(", ")
            );
        }
    } else {
        for name in END_TO_END {
            if ctx.report.get(name).is_none() {
                ctx.report
                    .fail(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    ctx.report.check_finite();
    ctx.report.print_metrics();
    println!("{}", ctx.report.json_line());
    if !ctx.report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload cold-8k --seed 5 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "cold-8k");
        assert_eq!(a.seed, 5);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 5 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload cold-8k --seed 5 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload cold-8k --seed 5 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cold-8k --seconds 1 --trace 0")).is_err());
    }
}
