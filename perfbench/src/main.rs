//! End-to-end benchmark of the Elivagar search funnel.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload funnel_4q --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Drives one workload in-process through the public API for
//! `--seconds` of measured time, checks every job's output, and prints a
//! run header, a human-readable report, and — as the last line — one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

mod check;
mod closed;
mod serve;
mod speed;
mod stats;
mod trace;

use closed::{ClosedLoop, JobKind};
use serve::ServeLoop;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{ObsDelta, Tracer};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Runs repetition `k` of set-up once `k / SETUP_REPS` of the measured
/// window has passed, so the median samples the whole window rather than
/// one moment of a machine whose speed drifts. Returns the seconds spent,
/// which the caller keeps out of the window.
pub fn interleaved_setup(
    setup_s: &mut Vec<f64>,
    elapsed_s: f64,
    seconds: f64,
    set_up: impl FnOnce(),
) -> f64 {
    let k = setup_s.len();
    if k >= SETUP_REPS || elapsed_s < seconds * k as f64 / SETUP_REPS as f64 {
        return 0.0;
    }
    let t = Instant::now();
    set_up();
    let spent = t.elapsed().as_secs_f64();
    setup_s.push(spent);
    spent
}

/// How far a run may go past `--seconds` to collect the jobs its tail
/// percentile needs without host steal; after that it times every job.
pub const STEAL_GRACE_S: f64 = 5.0;

/// Untimed work between set-up and the measured window.
pub const WARMUP: std::time::Duration = std::time::Duration::from_secs(2);
/// Warm-up jobs take their seeds from this index of the job stream on,
/// apart from the measured jobs.
pub const WARMUP_BASE: usize = 1 << 32;

/// End-to-end metrics, `(name, unit)`, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("search_executions", "count"),
    ("noisy_accuracy", "fraction"),
];

/// Per-layer metrics, `(name, unit)`, printed by every `--trace 1` run. A
/// layer a workload does not run reads 0. Times and counts are per
/// completed job unless the name says otherwise.
const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.load_s", "s"),
    ("search.busy_s", "s"),
    ("search.share", "fraction"),
    ("search.generate_s", "s"),
    ("search.cnr_s", "s"),
    ("search.repcap_s", "s"),
    ("search.cnr_accept_ratio", "fraction"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_s", "s"),
    ("sim.runtime.dispatches", "count"),
    ("sim.runtime.steals", "count"),
    ("sim.runtime.submitter_wait_s", "s"),
    ("sim.engine.samples", "count"),
    ("sim.engine.fused_ops", "count"),
    ("sim.engine.fusion_s", "s"),
    ("sim.engine.ns_per_sample", "ns"),
    ("sim.engine.bytes_computed", "B"),
    ("sim.adjoint.ns_per_sample", "ns"),
    ("sim.frame.trajectories", "count"),
    ("sim.frame.ns_per_trajectory", "ns"),
    ("sim.trajectory.ns_per_trajectory", "ns"),
    ("ml.train.busy_s", "s"),
    ("ml.train.share", "fraction"),
    ("ml.train.epochs", "count"),
    ("ml.cohort.batch_s", "s"),
    ("ml.cohort.pruned", "count"),
    ("ml.eval.busy_s", "s"),
    ("ml.eval.share", "fraction"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.stores", "count"),
    ("cache.corrupt_discarded", "count"),
    ("cache.lookup_s", "s"),
    ("cache.open_s", "s"),
    ("serve.open_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.tick_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.slices_per_job", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("baselines.qnas_s", "s"),
    ("baselines.evals", "count"),
    ("baselines.nat_train_s", "s"),
    ("compiler.route_s", "s"),
    ("compiler.swaps", "count"),
    ("job.self_s", "s"),
    ("obs.trace_overhead", "fraction"),
];

/// The 4-qubit Table 2 tasks on a Table 3 device.
const TASKS_4Q: &[(&str, &str)] = &[
    ("moons", "ibm-lagos"),
    ("bank", "ibm-lagos"),
    ("mnist-4", "ibm-lagos"),
    ("fmnist-4", "ibm-lagos"),
    ("vowel-4", "ibm-lagos"),
];

/// The workloads, in `BENCHMARK.json` order. Why each exists is in
/// `perfbench/README.md`.
enum Workload {
    Closed(ClosedLoop),
    Serve(ServeLoop),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // `elivagar-cli search` defaults: 24 candidates, RepCap over 8
        // samples per class and 8 inits, 60 epochs, 400/120 samples, 60
        // noisy trajectories.
        "funnel_4q" => Workload::Closed(ClosedLoop {
            tasks: TASKS_4Q,
            kind: JobKind::Funnel {
                candidates: 24,
                repcap_per_class: 8,
                repcap_inits: 8,
                epochs: 60,
                train_n: 400,
                test_n: 120,
                trajectories: 60,
            },
            tail_p: 80,
            reference_jobs: 50,
        }),
        "funnel_10q" => Workload::Closed(ClosedLoop {
            tasks: &[("mnist-10", "ibm-guadalupe")],
            // Cut from the CLI defaults so that a job takes well under a
            // second and a run holds the 40 jobs its p75 needs.
            kind: JobKind::Funnel {
                candidates: 12,
                repcap_per_class: 4,
                repcap_inits: 4,
                epochs: 5,
                train_n: 64,
                test_n: 32,
                trajectories: 4,
            },
            tail_p: 75,
            reference_jobs: 40,
        }),
        "serve_shared_cache" => Workload::Serve(ServeLoop::shared_cache(TASKS_4Q)),
        "baselines_4q" => Workload::Closed(ClosedLoop {
            tasks: &[
                ("mnist-4", "ibm-perth"),
                ("fmnist-4", "ibm-nairobi"),
                ("bank", "ibmq-jakarta"),
            ],
            kind: JobKind::Baselines {
                super_epochs: 3,
                nat_epochs: 20,
                train_n: 96,
                test_n: 48,
                trajectories: 32,
            },
            tail_p: 90,
            reference_jobs: 100,
        }),
        _ => return None,
    })
}

/// Command-line arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} expects a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Run {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Job timings of one run. They exclude set-up, speed samples and any
/// layer replays.
#[derive(Default)]
pub struct Timings {
    /// Latency of every timed job: completed, and not left out for host
    /// steal.
    pub latencies: Vec<f64>,
    /// Wall and CPU seconds over the jobs the rate covers: on the
    /// one-client loops the timed ones, on the serve loop the whole window.
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Timings {
    pub fn add(&mut self, latency: f64, cpu: f64) {
        self.latencies.push(latency);
        self.wall_s += latency;
        self.cpu_s += cpu;
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Set-up repetitions as measured.
    pub setup_s: Vec<f64>,
    /// Job timings as measured, at the host's speed of the moment.
    pub measured: Timings,
    /// The same timings at reference speed (`speed.rs`): the ones the
    /// bounded metrics report.
    pub reference: Timings,
    /// Jobs the rate covers: on the one-client loops the timed ones, on the
    /// serve loop every completed job.
    pub jobs_done: u64,
    /// Jobs attempted, warm-up jobs included.
    pub attempted: u64,
    /// Untimed warm-up jobs among `attempted`.
    pub warmup_jobs: u64,
    /// Jobs that errored, were rejected, dead-lettered, or failed a check.
    pub failed: u64,
    /// Completed jobs left out of the timings because the host stole CPU
    /// while they ran (see [`Ticks::stolen_until`]).
    pub stolen_jobs: u64,
    pub search_executions: f64,
    pub noisy_accuracy: f64,
    /// Host speed samples over the measured window (`speed.rs`), filled
    /// in by the workload loop.
    pub speed: Option<speed::Speed>,
    pub tail_p: u32,
    pub job_digest: u64,
    pub largest_state_bytes: usize,
    /// Extra report lines.
    pub notes: Vec<String>,
    pub layers: Option<Layers>,
    pub spans: Option<Tracer>,
}

/// Per-layer metric values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.0
            .insert(name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }
}

/// Per-job seed `index` of the stream seeded by `seed` (SplitMix64).
pub fn job_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// FNV-1a digest of the generated job list.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User plus system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// System-wide CPU ticks from `/proc/stat`, all CPUs together.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ticks {
    /// Time the hypervisor ran something else while this machine's CPUs
    /// wanted to run.
    steal: u64,
    total: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Ticks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of CPU ticks stolen between `self` and `later`.
    pub fn steal_share(&self, later: &Ticks) -> f64 {
        let total = later.total.saturating_sub(self.total).max(1);
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }

    /// Whether the hypervisor stole a noticeable share of the machine
    /// between `self` and `later`: more than 5% of the ticks, and at least
    /// two of them. A job run across such a stretch is slowed by the host,
    /// not by the program, so timings leave it out.
    pub fn stolen_until(&self, later: &Ticks) -> bool {
        let steal = later.steal.saturating_sub(self.steal);
        steal >= 2 && steal * 20 > later.total.saturating_sub(self.total)
    }
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Stage busy time from the search's own histograms (summed over
/// threads, not critical path), per completed job.
pub fn search_histograms(layers: &mut Layers, all: &ObsDelta, jobs: f64) {
    layers.set("search.generate_s", all.hist_s("generate") / jobs);
    layers.set("search.cnr_s", all.hist_s("cnr_eval") / jobs);
    layers.set("search.repcap_s", all.hist_s("repcap_eval") / jobs);
}

/// Layer counters and histogram totals read from `elivagar_obs`. Counts
/// come from `reference` (the deterministic reference jobs, so they
/// repeat exactly for a seed); times from `all` (every measured job).
pub fn obs_counts(
    layers: &mut Layers,
    all: &ObsDelta,
    reference: &ObsDelta,
    jobs: f64,
    reference_jobs: f64,
) {
    let count = |name: &str| reference.counter(name) / reference_jobs;
    // Accepted over CNR-judged candidates: equal to accepted / `cnr.evals`
    // without a cache, and still a ratio when cache hits skip evaluations.
    let accepted = reference.counter("search.cnr_accepted");
    layers.set(
        "search.cnr_accept_ratio",
        accepted / (accepted + reference.counter("search.cnr_rejected")),
    );
    layers.set("checkpoint.saves", count("checkpoint.saves"));
    layers.set("checkpoint.bytes", count("checkpoint.bytes"));
    layers.set("checkpoint.save_s", all.hist_s("checkpoint_save") / jobs);
    layers.set("sim.runtime.dispatches", count("pool.dispatches"));
    layers.set("sim.runtime.steals", all.counter("pool.steals") / jobs);
    layers.set(
        "sim.runtime.submitter_wait_s",
        all.counter("pool.submitter_wait_ns") * 1e-9 / jobs,
    );
    layers.set("sim.engine.samples", count("engine.samples"));
    layers.set("sim.engine.fused_ops", count("engine.fused_ops"));
    layers.set("sim.engine.fusion_s", all.hist_s("fusion") / jobs);
    layers.set("sim.frame.trajectories", count("frame.trajectories"));
    layers.set("ml.train.epochs", count("train.epochs"));
    layers.set("ml.cohort.batch_s", all.hist_s("train_batch") / jobs);
    layers.set("ml.cohort.pruned", count("train.pruned"));
    layers.set("cache.lookups", count("cache.lookups"));
    layers.set(
        "cache.hit_ratio",
        reference.counter("cache.hits") / reference.counter("cache.lookups"),
    );
    layers.set("cache.stores", count("cache.stores"));
    layers.set("cache.corrupt_discarded", count("cache.corrupt_discarded"));
    layers.set("cache.lookup_s", all.hist_s("cache_lookup") / jobs);
    layers.set("baselines.evals", count("baselines.evals"));
}

fn machine_cache(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let started = Instant::now();
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <funnel_4q|funnel_10q|serve_shared_cache|baselines_4q> \
                 --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let Some(workload) = workload(&run.workload) else {
        eprintln!("perfbench: unknown workload {}", run.workload);
        std::process::exit(2);
    };
    // All load comes from this one process, with the pool at one thread
    // per core; the pool reads this once, on first use.
    let ticks0 = Ticks::now();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var(elivagar_repro::sim::THREADS_ENV, nproc.to_string());

    let out = match &workload {
        Workload::Closed(w) => {
            let mut out = w.run(&run, started);
            out.largest_state_bytes = w.largest_state_bytes();
            out
        }
        Workload::Serve(w) => w.run(&run, started),
    };

    println!(
        "== perfbench {} (seed {}, {} s, trace {}) ==",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!(
        "nproc {nproc}  ELIVAGAR_THREADS {}  pool threads {}  commit {}",
        std::env::var(elivagar_repro::sim::THREADS_ENV).unwrap_or_default(),
        elivagar_repro::sim::num_threads(),
        commit()
    );
    let ticks1 = Ticks::now();
    println!(
        "L2 {}  L3 {}  host CPU steal during the run {:.1}%",
        machine_cache(2),
        machine_cache(3),
        100.0 * ticks0.steal_share(&ticks1)
    );
    println!(
        "job list digest {:016x}  largest state {} B  tail percentile p{}",
        out.job_digest, out.largest_state_bytes, out.tail_p
    );
    for note in &out.notes {
        println!("{note}");
    }
    // Set-up is scaled by the run's speed factor; jobs by their own.
    let factor = out.speed.as_ref().map_or(1.0, speed::Speed::factor);
    if let Some(speed) = &out.speed {
        println!(
            "host speed factor {factor:.4}: calibration median {:.6} s over {} samples, reference {} s",
            speed.median_s(),
            speed.len(),
            speed::REFERENCE_S
        );
    }

    // Latency samples: completed jobs, less any left out for host steal.
    let timed = out.reference.latencies.len();
    let errors_pct = out.failed as f64 / out.attempted.max(1) as f64;
    let tail_ok = stats::samples_beyond(timed, out.tail_p) >= 10;
    if out.stolen_jobs > 0 {
        println!(
            "{} completed jobs ran while the host stole over 5% of the CPU and are left out of the timings",
            out.stolen_jobs
        );
    }
    println!(
        "jobs attempted {} ({} warm-up)  timed {}  failed {}  error_rate {errors_pct}  \
         samples beyond p{} {}{}  (highest percentile with 10 beyond: {})",
        out.attempted,
        out.warmup_jobs,
        timed,
        out.failed,
        out.tail_p,
        stats::samples_beyond(timed, out.tail_p),
        if tail_ok {
            ""
        } else {
            " (fewer than 10: tail not reportable)"
        },
        stats::tail_percentile(timed, 10).map_or("none".into(), |p| format!("p{p}"))
    );

    let metrics: Vec<(&str, &str, f64)> = if run.trace {
        let layers = out
            .layers
            .as_ref()
            .expect("traced runs fill per-layer metrics");
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, layers.0.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let jobs = out.jobs_done.max(1) as f64;
        let timings = |t: &Timings, setup_s: f64| {
            let q = |p: f64| stats::nearest_rank(&t.latencies, p).unwrap_or(0.0);
            [
                setup_s,
                jobs / t.wall_s,
                q(0.5),
                q(f64::from(out.tail_p) / 100.0),
                t.cpu_s / jobs,
            ]
        };
        let setup_s = stats::median(&out.setup_s).unwrap_or(0.0);
        let measured = timings(&out.measured, setup_s);
        let at_host: Vec<String> = END_TO_END
            .iter()
            .zip(measured)
            .map(|(&(n, _), v)| format!("{n} {v:.6}"))
            .collect();
        println!("measured at host speed: {}", at_host.join("  "));
        let values = timings(&out.reference, setup_s * factor)
            .into_iter()
            .chain([
                proc_status_kb("VmHWM:") / 1024.0,
                out.search_executions,
                out.noisy_accuracy,
            ]);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        let label = if *name == "job_tail_s" {
            format!("{name} (p{})", out.tail_p)
        } else {
            name.to_string()
        };
        println!("  {label:<36} {value:>16.6} {unit}");
    }

    if let Some(spans) = &out.spans {
        let path = std::path::Path::new(".bench_state")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", run.workload, run.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("wrote {} spans to {}", spans.spans().len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let correct = out.failed == 0 && timed > 0 && tail_ok;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each closed loop names the highest percentile with ten samples
    /// beyond it at its minimum job count.
    #[test]
    fn closed_loop_tails_follow_the_ten_beyond_rule() {
        for name in ["funnel_4q", "funnel_10q", "baselines_4q"] {
            let Some(Workload::Closed(w)) = workload(name) else {
                panic!("{name} is a closed loop");
            };
            assert_eq!(
                stats::tail_percentile(w.min_jobs(), 10),
                Some(w.tail_p),
                "{name}"
            );
        }
    }
}
