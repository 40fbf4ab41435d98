//! Workload `serve_shared_cache`: a closed loop of three clients, each
//! submitting its next job to one in-process `Daemon` (`submit` between
//! `tick`s) as soon as its previous one ends, with per-job checkpoints and
//! one shared result cache. Every third job repeats an earlier job's spec
//! (cache reads); the rest are new (cache writes and fsync'd checkpoints).
//!
//! It is a closed loop because the host it was built on changes speed for
//! minutes at a time: an open loop at a fixed rate turns a slow phase into
//! a growing queue, and one mostly idle pays the host's wake-up latency on
//! every arrival, neither of which the program controls. Three jobs in
//! flight keep the daemon busy and its tenants interleaved.

use crate::stats::{median, samples_needed};
use crate::trace::{ObsMark, Tracer};
use crate::{check, job_seed, Layers, Outcome, Run, Ticks};
use elivagar_repro::datasets::{load_sized, spec, BenchmarkSpec, Dataset};
use elivagar_repro::device::{circuit_noise, device_by_name, Device};
use elivagar_repro::elivagar::{run_search, Cache, CacheHandle, RunOptions, SearchConfig};
use elivagar_repro::ml::{accuracy, noisy_accuracy, QuantumClassifier, TrainConfig};
use elivagar_serve::{Daemon, JobResult, JobSpec, JobState, ServeConfig, TickOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct ServeLoop {
    tasks: &'static [(&'static str, &'static str)],
    /// One client per tenant, each with one job in flight.
    tenants: &'static [&'static str],
    candidates: usize,
    train_size: usize,
    test_size: usize,
    train_epochs: usize,
    /// A repeat copies the spec of a new job at least this many jobs
    /// earlier, so the original has finished and every lookup hits.
    repeat_lag: usize,
    tail_p: u32,
    /// Jobs whose deterministic outputs (executions, accuracies) are
    /// reported: the first ones of the seeded stream.
    reference_jobs: usize,
    /// Noisy trajectories when the client evaluates each distinct winner.
    trajectories: usize,
}

/// The job list is generated up front for this many jobs per second of
/// the run, about twice the daemon's capacity on these jobs (17–21 jobs/s
/// on 2 vCPUs); a run that reaches its end stops early and says so.
const MAX_JOBS_PER_S: f64 = 40.0;

/// Give up on jobs still pending after this long, so the run always ends
/// well inside its time limit.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// One job of the stream.
struct Job {
    spec: JobSpec,
    /// Index of the job whose spec this one repeats.
    repeats: Option<usize>,
}

/// What the client saw of one job, in seconds of the measured window.
#[derive(Clone)]
struct Seen {
    submitted_s: f64,
    /// Host CPU ticks at submission, to tell whether the host stole CPU
    /// while the job ran.
    submitted_ticks: Ticks,
    /// The last speed sample before submission.
    speed_from: usize,
    first_tick_s: Option<f64>,
    done_s: Option<f64>,
    stolen: bool,
    /// The last speed sample before completion.
    speed_to: usize,
    slices: u64,
    slice_s: f64,
}

impl ServeLoop {
    pub fn shared_cache(tasks: &'static [(&'static str, &'static str)]) -> Self {
        ServeLoop {
            tasks,
            tenants: &["tenant-a", "tenant-b", "tenant-c"],
            candidates: 12,
            train_size: 64,
            test_size: 16,
            train_epochs: 20,
            repeat_lag: 13,
            tail_p: 80,
            reference_jobs: 60,
            trajectories: 32,
        }
    }

    fn min_jobs(&self) -> usize {
        self.reference_jobs.max(samples_needed(self.tail_p, 10))
    }

    fn schedule(&self, run: &Run) -> Vec<Job> {
        let n = ((run.seconds * MAX_JOBS_PER_S) as usize).max(self.min_jobs());
        let mut rng = StdRng::seed_from_u64(job_seed(run.seed, usize::MAX));
        let mut out: Vec<Job> = Vec::with_capacity(n);
        let mut originals: Vec<usize> = Vec::new();
        for k in 0..n {
            let mut spec = JobSpec::named(format!("j{k:04}"));
            spec.tenant = self.tenants[k % self.tenants.len()].to_string();
            let old = originals.partition_point(|&i| i + self.repeat_lag <= k);
            // One in three: the median then lies inside the uncached jobs'
            // latencies, not on the edge between cached and uncached.
            let repeats = if k % 3 == 2 && old > 0 {
                Some(originals[rng.random_range(0..old)])
            } else {
                None
            };
            let (bench, device) = match repeats {
                Some(i) => {
                    spec.seed = out[i].spec.seed;
                    (out[i].spec.benchmark.clone(), out[i].spec.device.clone())
                }
                None => {
                    spec.seed = job_seed(run.seed, k);
                    let (b, d) = self.tasks[originals.len() % self.tasks.len()];
                    originals.push(k);
                    (b.to_string(), d.to_string())
                }
            };
            spec.benchmark = bench;
            spec.device = device;
            spec.candidates = self.candidates;
            spec.train_size = self.train_size;
            spec.test_size = self.test_size;
            spec.train_epochs = Some(self.train_epochs);
            out.push(Job { spec, repeats });
        }
        out
    }

    pub fn run(&self, run: &Run, started: Instant) -> Outcome {
        let mut out = Outcome {
            tail_p: self.tail_p,
            ..Outcome::default()
        };
        let jobs = self.schedule(run);
        out.job_digest = crate::digest(
            &jobs[..self.min_jobs()]
                .iter()
                .map(|j| {
                    let s = &j.spec;
                    format!(
                        "{} {} {} {} {}",
                        s.id, s.tenant, s.benchmark, s.device, s.seed
                    )
                })
                .collect::<Vec<_>>(),
        );
        out.largest_state_bytes = self
            .tasks
            .iter()
            .map(|(b, _)| 16usize << spec(b).expect("known benchmark").qubits)
            .max()
            .expect("at least one task");

        let root = PathBuf::from(".bench_state").join(format!(
            "{}-seed{}-pid{}",
            run.workload,
            run.seed,
            std::process::id()
        ));
        let cache_dir = root.join("cache");
        let state_dir = root.join("daemon");
        let result = self.drive(run, started, &jobs, &cache_dir, &state_dir, &mut out);
        // Commit the deletions before exiting, so that the next run's
        // fsyncs do not wait on this run's file-system journal.
        let removed = std::fs::remove_dir_all(&root).and_then(|()| {
            std::fs::File::open(root.parent().expect("root has a parent"))?.sync_all()
        });
        if let Err(e) = removed {
            eprintln!("could not remove {}: {e}", root.display());
        }
        if let Err(e) = result {
            eprintln!("serve workload aborted: {e}");
            out.failed = out.failed.max(1);
        }
        out
    }

    fn drive(
        &self,
        run: &Run,
        started: Instant,
        jobs: &[Job],
        cache_dir: &Path,
        state_dir: &Path,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let mut layers = Layers::default();
        let mut tracer = Tracer::new();

        // Set-up, timed from process start; the other repetitions reopen a
        // second daemon state directory while the measured window runs.
        let mut set_up_times = Vec::new();
        let (mut daemon, times) = set_up(&jobs[0].spec, cache_dir, state_dir)?;
        out.setup_s.push(started.elapsed().as_secs_f64());
        set_up_times.push(times);
        let rep_dir = state_dir.with_file_name("set-up-daemon");

        // Warm-up: untimed in-process searches of specs outside the job
        // list (uncached), so the measured window starts with the pool,
        // the allocator and the CPU in their steady state.
        let warm = Instant::now();
        let mut k = 0;
        while warm.elapsed() < crate::WARMUP {
            let mut job = jobs[k % jobs.len()].spec.clone();
            job.seed = job_seed(run.seed, crate::WARMUP_BASE + k);
            let (_, device, dataset, config) = search_inputs(&job)?;
            out.attempted += 1;
            out.warmup_jobs += 1;
            if let Err(e) = run_search(&device, &dataset, &config, &RunOptions::new()) {
                out.failed += 1;
                eprintln!("warm-up search failed: {e}");
            }
            k += 1;
        }
        let cache_dir_str = cache_dir
            .to_str()
            .ok_or("cache path is not UTF-8")?
            .to_string();

        let mut seen: Vec<Seen> = Vec::new();
        let index_of: BTreeMap<String, usize> = jobs
            .iter()
            .enumerate()
            .map(|(k, j)| (j.spec.id.clone(), k))
            .collect();
        let mut submit_s = (0.0, 0usize);
        let mut ticks = 0u64;
        let mut traced_ticks = (0.0, 0usize);
        let mut untraced_ticks = (0.0, 0usize);

        let threads = elivagar_repro::sim::num_threads();
        let mut speed = crate::speed::Speed::new(threads);
        speed.sample();
        // CPU seconds the speed samples spent, kept out of `cpu_s`.
        let mut speed_cpu = 0.0;
        let mark = ObsMark::now();
        let mut reference_mark = None;
        let cpu0 = crate::cpu_seconds();
        let t0 = Instant::now();
        // Set-up repetitions and speed samples are kept out of the window:
        // `now` is window time.
        let mut paused = 0.0;
        let now = |paused: f64| t0.elapsed().as_secs_f64() - paused;
        let mut done = 0;
        let mut in_flight = 0;
        let mut open = true;
        loop {
            let mut rep = Ok(());
            paused += crate::interleaved_setup(&mut out.setup_s, now(paused), run.seconds, || {
                rep = set_up(&jobs[0].spec, cache_dir, &rep_dir).map(|(_, t)| set_up_times.push(t));
            });
            rep?;
            if now(paused) >= run.seconds && done >= self.min_jobs() {
                open = false;
            }
            while open && in_flight < self.tenants.len() {
                let k = seen.len();
                // The reference jobs all finish before a later one starts,
                // so the counts over them repeat exactly for a seed.
                if k == self.reference_jobs && reference_mark.is_none() {
                    if in_flight > 0 {
                        break;
                    }
                    reference_mark = Some(ObsMark::now());
                }
                let Some(job) = jobs.get(k) else {
                    out.notes
                        .push(format!("the job list ran out after {k} jobs"));
                    open = false;
                    break;
                };
                let mut spec = job.spec.clone();
                spec.cache_dir = Some(cache_dir_str.clone());
                let at = now(paused);
                seen.push(Seen {
                    submitted_s: at,
                    submitted_ticks: Ticks::now(),
                    speed_from: speed.len() - 1,
                    first_tick_s: None,
                    done_s: None,
                    stolen: false,
                    speed_to: 0,
                    slices: 0,
                    slice_s: 0.0,
                });
                tracer.set_enabled(run.trace && (at as u64) % 2 == 1);
                let admitted = tracer.time("serve.submit", k as u64, || daemon.submit(spec));
                submit_s.0 += now(paused) - at;
                submit_s.1 += 1;
                tracer.set_enabled(false);
                out.attempted += 1;
                if let Err(e) = admitted {
                    out.failed += 1;
                    eprintln!("job {} rejected: {e}", job.spec.id);
                } else {
                    in_flight += 1;
                }
            }
            if !daemon.has_pending() {
                break;
            }
            if now(paused) > run.seconds + DRAIN_LIMIT.as_secs_f64() {
                return Err(format!(
                    "jobs still pending {} s after the end of the window",
                    DRAIN_LIMIT.as_secs()
                ));
            }
            let at = now(paused);
            // Which job a tick runs is known only afterwards, and
            // consecutive slices of a job differ in cost, so ticks in odd
            // seconds of the run are the traced ones.
            ticks += 1;
            let traced = run.trace && (at as u64) % 2 == 1;
            tracer.set_enabled(traced);
            let open_span = tracer.begin("serve.tick", ticks);
            let outcome = daemon.tick().map_err(|e| format!("tick: {e}"))?;
            tracer.end(open_span);
            tracer.set_enabled(false);
            let done_at = now(paused);
            if let TickOutcome::Ran { id } = outcome {
                let slot = if traced {
                    &mut traced_ticks
                } else {
                    &mut untraced_ticks
                };
                slot.0 += done_at - at;
                slot.1 += 1;
                let k = *index_of.get(&id).ok_or("daemon ran an unknown job")?;
                let s = seen.get_mut(k).ok_or("daemon ran a job never submitted")?;
                s.first_tick_s.get_or_insert(at);
                s.slices += 1;
                s.slice_s += done_at - at;
                if daemon.job(&id).is_some_and(|j| j.state.is_terminal()) {
                    s.done_s = Some(done_at);
                    s.stolen = s.submitted_ticks.stolen_until(&Ticks::now());
                    s.speed_to = speed.len() - 1;
                    done += 1;
                    in_flight -= 1;
                    // Host speed after every job, kept out of the window.
                    let spent = speed.sample();
                    paused += spent;
                    speed_cpu += spent * threads as f64;
                }
            }
        }
        let (wall_s, cpu_s) = (now(paused), crate::cpu_seconds() - cpu0 - speed_cpu);
        let delta = mark.delta();

        // Latency runs from submission to the terminal state. Jobs the
        // host stole CPU from are left out, unless too few would remain
        // for the tail percentile. Each is scaled by the host's speed over
        // its own span.
        let finished: Vec<(f64, f64, bool)> = seen
            .iter()
            .filter_map(|s| {
                let f = || speed.factor_over(s.speed_from, s.speed_to + 1);
                s.done_s.map(|d| (d - s.submitted_s, f(), s.stolen))
            })
            .collect();
        let clean = finished.iter().filter(|j| !j.2).count();
        let time_all = clean < samples_needed(self.tail_p, 10);
        if time_all {
            out.notes
                .push("host steal left too few clean jobs: timings include every job".into());
        }
        let timed: Vec<(f64, f64)> = finished
            .iter()
            .filter(|j| time_all || !j.2)
            .map(|&(l, f, _)| (l, f))
            .collect();
        out.stolen_jobs = (finished.len() - timed.len()) as u64;
        out.jobs_done = finished.len() as u64;
        let mean_factor = crate::mean(&finished.iter().map(|j| j.1).collect::<Vec<_>>());
        out.reference = crate::Timings {
            latencies: timed.iter().map(|(l, f)| l * f).collect(),
            wall_s: wall_s * mean_factor,
            cpu_s: cpu_s * mean_factor,
        };
        out.measured = crate::Timings {
            latencies: timed.iter().map(|j| j.0).collect(),
            wall_s,
            cpu_s,
        };
        out.speed = Some(speed);
        let submitted = &jobs[..seen.len()];
        self.check(&daemon, submitted, &delta, out)?;

        let verified =
            self.verify_winners(&daemon, &submitted[..self.reference_jobs], cache_dir, out)?;
        // A repeat's winner is its original's.
        let n = self.reference_jobs as f64;
        let of = |k: usize| verified[&submitted[k].repeats.unwrap_or(k)];
        out.search_executions = (0..self.reference_jobs).map(|k| of(k).0).sum::<f64>() / n;
        out.noisy_accuracy = (0..self.reference_jobs).map(|k| of(k).1).sum::<f64>() / n;
        out.notes.push(format!(
            "{} clients, {} jobs submitted ({} repeats)",
            self.tenants.len(),
            submitted.len(),
            submitted.iter().filter(|j| j.repeats.is_some()).count()
        ));

        if run.trace {
            let jobs = out.jobs_done.max(1) as f64;
            crate::search_histograms(&mut layers, &delta, jobs);
            let reference = mark.delta_to(reference_mark.as_ref().expect("reference jobs ran"));
            let reference_jobs = self.reference_jobs as f64;
            crate::obs_counts(&mut layers, &delta, &reference, jobs, reference_jobs);
            let ticks: f64 = seen.iter().map(|s| s.slice_s).sum();
            let slices: u64 = seen.iter().map(|s| s.slices).sum();
            layers.set("search.busy_s", ticks / jobs);
            let set_up_median =
                |i: usize| median(&set_up_times.iter().map(|t| t[i]).collect::<Vec<_>>());
            layers.set("datasets.load_s", set_up_median(0).unwrap_or(0.0));
            layers.set("cache.open_s", set_up_median(1).unwrap_or(0.0));
            layers.set("serve.open_s", set_up_median(2).unwrap_or(0.0));
            layers.set("serve.submit_s", submit_s.0 / submit_s.1.max(1) as f64);
            layers.set("serve.tick_s", ticks / slices.max(1) as f64);
            let waits: Vec<f64> = seen
                .iter()
                .filter_map(|s| s.first_tick_s.map(|t| t - s.submitted_s))
                .collect();
            layers.set("serve.queue_wait_s", crate::mean(&waits));
            let reference_slices: u64 = seen[..self.reference_jobs].iter().map(|s| s.slices).sum();
            layers.set(
                "serve.slices_per_job",
                reference_slices as f64 / reference_jobs,
            );
            layers.set("serve.rejected", daemon.stats().rejected as f64);
            layers.set("serve.retries", daemon.stats().retries as f64);
            // Slice service rate of untraced ticks against traced ones.
            let per_slice = |(s, c): (f64, usize)| s / c.max(1) as f64;
            layers.set(
                "obs.trace_overhead",
                per_slice(traced_ticks) / per_slice(untraced_ticks) - 1.0,
            );
            out.layers = Some(layers);
            out.spans = Some(tracer);
        }
        Ok(())
    }

    /// Daemon-level checks: every job done, the conservation invariant,
    /// cache accounting, winners, and repeats bit-identical to their
    /// originals.
    fn check(
        &self,
        daemon: &Daemon,
        jobs: &[Job],
        delta: &crate::trace::ObsDelta,
        out: &mut Outcome,
    ) -> Result<(), String> {
        if let Some(v) = daemon.verify_conservation() {
            return Err(format!("conservation: {v}"));
        }
        let (lookups, hits, misses) = (
            delta.counter("cache.lookups"),
            delta.counter("cache.hits"),
            delta.counter("cache.misses"),
        );
        if lookups != hits + misses || lookups == 0.0 {
            return Err(format!(
                "cache lookups {lookups} != hits {hits} + misses {misses}"
            ));
        }
        let mut results: Vec<Option<JobResult>> = Vec::with_capacity(jobs.len());
        for j in jobs {
            let id = &j.spec.id;
            let result = match daemon.job(id).map(|j| &j.state) {
                Some(JobState::Done { .. }) => daemon.load_result(id).map_err(|e| e.to_string()),
                Some(state) => Err(format!("ended in state {state:?}")),
                None => Err("never admitted".into()),
            };
            let result = result.and_then(|r| match j.repeats.map(|i| &results[i]) {
                Some(Some(orig))
                    if (orig.best_index, &orig.ranking) != (r.best_index, &r.ranking) =>
                {
                    Err(format!("ranking differs from its original {}", orig.id))
                }
                _ => Ok(r),
            });
            match result {
                Ok(r) => results.push(Some(r)),
                Err(e) => {
                    if daemon.job(id).is_some() {
                        out.failed += 1;
                    }
                    eprintln!("job {id}: {e}");
                    results.push(None);
                }
            }
        }
        Ok(())
    }

    /// Recomputes each distinct spec in-process with the daemon's search
    /// inputs and the shared cache, checks its ranking against the
    /// daemon's result, and evaluates the trained winner under device
    /// noise. Returns `(search executions, noisy accuracy)` per original.
    fn verify_winners(
        &self,
        daemon: &Daemon,
        jobs: &[Job],
        cache_dir: &Path,
        out: &mut Outcome,
    ) -> Result<BTreeMap<usize, (f64, f64)>, String> {
        let cache: CacheHandle =
            Cache::open(cache_dir).map_err(|e| format!("cache reopen: {e}"))?;
        let mut verified = BTreeMap::new();
        for (k, j) in jobs.iter().enumerate().filter(|(_, j)| j.repeats.is_none()) {
            match self.verify_one(daemon, &j.spec, &cache) {
                Ok(v) => {
                    verified.insert(k, v);
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("job {}: {e}", j.spec.id);
                    verified.insert(k, (0.0, 0.0));
                }
            }
        }
        Ok(verified)
    }

    fn verify_one(
        &self,
        daemon: &Daemon,
        job: &JobSpec,
        cache: &CacheHandle,
    ) -> Result<(f64, f64), String> {
        let (bench, device, dataset, config) = search_inputs(job)?;
        let result = run_search(
            &device,
            &dataset,
            &config,
            &RunOptions::new().with_cache(cache.clone()),
        )
        .map_err(|e| format!("in-process recomputation failed: {e}"))?;
        check::search(&result, job.candidates)?;
        let daemon_result = daemon.load_result(&job.id).map_err(|e| e.to_string())?;
        let ranking: Vec<(usize, u64)> = result
            .scored
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.score.map(|v| (i, v.to_bits())))
            .collect();
        if (result.best_index, ranking) != (daemon_result.best_index, daemon_result.ranking) {
            return Err("daemon ranking differs from an in-process run of the same spec".into());
        }
        let trained = result
            .trained
            .iter()
            .find(|t| t.index == result.best_index)
            .ok_or("winner was not cohort-trained")?;
        let model = QuantumClassifier::try_new(result.best.circuit.clone(), bench.classes)
            .map_err(|e| format!("winner is not a classifier: {e}"))?;
        let clean = accuracy(&model, &trained.params, dataset.test());
        let noise = circuit_noise(&device, &result.best.physical_circuit(&device))
            .map_err(|e| format!("noise model: {e}"))?;
        let mut rng = StdRng::seed_from_u64(job.seed);
        let noisy = noisy_accuracy(
            &model,
            &trained.params,
            dataset.test(),
            &noise,
            self.trajectories,
            &mut rng,
        );
        check::accuracy("accuracy", clean)?;
        check::accuracy("noisy_accuracy", noisy)?;
        Ok((result.executions.total() as f64, noisy))
    }
}

/// Set-up: the first arrival's device and dataset, the pool, the shared
/// cache, and a daemon over `state_dir` with journal recovery. Returns the
/// daemon and the seconds spent loading the dataset, opening the cache and
/// opening the daemon.
fn set_up(
    first: &JobSpec,
    cache_dir: &Path,
    state_dir: &Path,
) -> Result<(Daemon, [f64; 3]), String> {
    let device = device_by_name(&first.device).ok_or("unknown device")?;
    let s = spec(&first.benchmark).ok_or("unknown benchmark")?;
    let t = Instant::now();
    black_box(load_sized(
        &first.benchmark,
        first.seed,
        first.train_size.min(s.train),
        first.test_size.min(s.test),
    ));
    let load_s = t.elapsed().as_secs_f64();
    black_box((device, elivagar_repro::sim::num_threads()));
    let t = Instant::now();
    black_box(Cache::open(cache_dir).map_err(|e| format!("cache open: {e}"))?);
    let cache_open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut config = ServeConfig::new(state_dir);
    // Far deeper than the jobs in flight, so none is turned away; a
    // rejection would count as a failed job.
    config.queue_depth = 64;
    let daemon = Daemon::open(config).map_err(|e| format!("daemon open: {e}"))?;
    Ok((daemon, [load_s, cache_open_s, t.elapsed().as_secs_f64()]))
}

/// The daemon's search inputs for a spec (kept in step with
/// `Daemon::run_slice`): the job's dataset and a `fast()` config that
/// cohort-trains the top two candidates.
fn search_inputs(
    job: &JobSpec,
) -> Result<(&'static BenchmarkSpec, Device, Dataset, SearchConfig), String> {
    let bench = spec(&job.benchmark).ok_or("unknown benchmark")?;
    let device = device_by_name(&job.device).ok_or("unknown device")?;
    let dataset = load_sized(
        &job.benchmark,
        job.seed,
        job.train_size.min(bench.train),
        job.test_size.min(bench.test),
    );
    let mut config =
        SearchConfig::for_task(bench.qubits, bench.params, bench.feature_dim, bench.classes).fast();
    config.num_candidates = job.candidates;
    config.seed = job.seed;
    config = config.with_train(TrainConfig {
        epochs: job.train_epochs.ok_or("serve jobs train")?,
        batch_size: 8,
        seed: job.seed,
        cohort: 2,
        ..TrainConfig::default()
    });
    Ok((bench, device, dataset, config))
}
