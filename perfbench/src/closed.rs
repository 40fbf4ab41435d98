//! Closed-loop workloads: one client runs full jobs back to back and
//! issues the next only after the previous returned.
//!
//! * `funnel_4q` / `funnel_10q` — the paper's pipeline, the same calls
//!   `elivagar-cli search` makes: generate → CNR → RepCap → score
//!   (`run_search`), `train` the winner, then `accuracy` and
//!   `noisy_accuracy`.
//! * `baselines_4q` — Table 4's comparison: `quantum_nas_search` (SABRE
//!   routed), `train_quantumnat`, `quantumnat_noisy_accuracy`.

use crate::stats::samples_needed;
use crate::trace::{ObsMark, Tracer};
use crate::{check, job_seed, Layers, Outcome, Run, Ticks};
use elivagar_bench::compact_circuit;
use elivagar_repro::baselines::{
    quantum_nas_search, quantumnat_noisy_accuracy, train_quantumnat, QuantumNasConfig,
    QuantumNatConfig, SuperTrainConfig,
};
use elivagar_repro::circuit::Circuit;
use elivagar_repro::compiler::route;
use elivagar_repro::datasets::{load_sized, spec, Dataset};
use elivagar_repro::device::{circuit_noise, device_by_name, Device};
use elivagar_repro::elivagar::{clifford_replica, run_search, RunOptions, SearchConfig};
use elivagar_repro::ml::{accuracy, noisy_accuracy, try_train, QuantumClassifier, TrainConfig};
use elivagar_repro::sim::{
    noisy_clifford_distribution, noisy_distribution, AdjointProgram, CircuitNoise, Gradients,
    Program, ZObservable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// What one closed-loop workload runs.
pub struct ClosedLoop {
    /// `(benchmark, device)` pairs the job stream rotates over.
    pub tasks: &'static [(&'static str, &'static str)],
    pub kind: JobKind,
    /// Percentile reported as `job_tail_s`; the run goes on until at
    /// least ten jobs lie beyond it.
    pub tail_p: u32,
    /// Jobs whose deterministic outputs (executions, accuracies, counts)
    /// are reported: always the first ones of the seeded stream, so the
    /// figures repeat exactly for a seed whatever the machine's speed.
    pub reference_jobs: usize,
}

/// Knobs of one job; `train_n`/`test_n` cap the Table 2 split sizes.
#[derive(Clone, Copy)]
pub enum JobKind {
    Funnel {
        candidates: usize,
        /// RepCap samples per class and parameter initializations.
        repcap_per_class: usize,
        repcap_inits: usize,
        epochs: usize,
        train_n: usize,
        test_n: usize,
        trajectories: usize,
    },
    Baselines {
        super_epochs: usize,
        nat_epochs: usize,
        train_n: usize,
        test_n: usize,
        trajectories: usize,
    },
}

/// CNR replicas, as `elivagar-cli search` sets them.
const CLIFFORD_REPLICAS: usize = 16;
/// RepCap samples per class of the engine replay batch.
const REPCAP_PER_CLASS: usize = 8;
/// Traced jobs below this index also replay single layers on their winner.
const REPLAY_BELOW: usize = 10;
/// Trajectories of the frame-engine replay.
const FRAME_REPLAY_TRAJECTORIES: usize = 1024;
/// Samples of the adjoint replay (one training minibatch).
const ADJOINT_REPLAY_SAMPLES: usize = 32;
/// Test samples of the noisy-trajectory replay.
const TRAJECTORY_REPLAY_SAMPLES: usize = 8;

/// One job of the stream: its index, task and seed.
pub struct JobSpec {
    pub index: usize,
    pub bench: &'static str,
    pub device: usize,
    pub seed: u64,
}

/// Inputs for replaying single layers on a finished job's winner.
struct Winner {
    circuit: Circuit,
    params: Vec<f64>,
    noise: CircuitNoise,
    device: usize,
    dataset: Dataset,
    seed: u64,
    /// The QuantumNAS logical circuit and mapping, for the routing replay.
    qnas: Option<(Circuit, Vec<usize>)>,
}

struct JobOut {
    executions: u64,
    noisy_accuracy: f64,
    winner: Winner,
}

impl ClosedLoop {
    pub fn largest_state_bytes(&self) -> usize {
        let qubits = self
            .tasks
            .iter()
            .map(|(b, _)| spec(b).expect("known benchmark").qubits)
            .max();
        16 << qubits.expect("at least one task")
    }

    pub fn min_jobs(&self) -> usize {
        self.reference_jobs.max(samples_needed(self.tail_p, 10))
    }

    pub fn job(&self, run: &Run, devices_by_task: &[usize], index: usize) -> JobSpec {
        let t = index % self.tasks.len();
        JobSpec {
            index,
            bench: self.tasks[t].0,
            device: devices_by_task[t],
            seed: job_seed(run.seed, index),
        }
    }

    /// The job stream's first `min_jobs` specs, one line each.
    pub fn describe_jobs(&self, run: &Run) -> Vec<String> {
        let devices: Vec<usize> = (0..self.tasks.len()).collect();
        (0..self.min_jobs())
            .map(|i| {
                let j = self.job(run, &devices, i);
                format!(
                    "{} {} {} {}",
                    j.index, j.bench, self.tasks[j.device].1, j.seed
                )
            })
            .collect()
    }

    fn dataset(&self, job: &JobSpec) -> Dataset {
        let s = spec(job.bench).expect("known benchmark");
        let (train_n, test_n) = match self.kind {
            JobKind::Funnel {
                train_n, test_n, ..
            }
            | JobKind::Baselines {
                train_n, test_n, ..
            } => (train_n, test_n),
        };
        load_sized(
            job.bench,
            job.seed,
            train_n.min(s.train),
            test_n.min(s.test),
        )
    }

    /// Set-up: every task's device and first dataset, and the pool.
    fn set_up(&self, run: &Run) -> (Vec<Device>, Vec<usize>) {
        let mut devices: Vec<Device> = Vec::new();
        let mut by_task = Vec::with_capacity(self.tasks.len());
        for (_, name) in self.tasks {
            let d = device_by_name(name).expect("known device");
            by_task.push(
                devices
                    .iter()
                    .position(|x| x.name() == d.name())
                    .unwrap_or_else(|| {
                        devices.push(d);
                        devices.len() - 1
                    }),
            );
        }
        for t in 0..self.tasks.len() {
            black_box(self.dataset(&self.job(run, &by_task, t)));
        }
        black_box(elivagar_repro::sim::num_threads());
        (devices, by_task)
    }

    pub fn run(&self, run: &Run, started: Instant) -> Outcome {
        let mut out = Outcome::default();
        let mut tracer = Tracer::new();

        // Set-up, timed from process start: its first repetition also pays
        // process start-up and spawns the pool. The other repetitions are
        // spread over the measured window.
        let (devices, by_task) = self.set_up(run);
        out.setup_s.push(started.elapsed().as_secs_f64());

        let min_jobs = self.min_jobs();
        let mut executions = Vec::new();
        let mut noisy = Vec::new();
        let mut traced_latency = (0.0, 0usize);
        let mut untraced_latency = (0.0, 0usize);
        let mut winners = Vec::new();
        let mut layers = Layers::default();

        // Warm-up: untimed jobs from a disjoint part of the seeded stream,
        // so the measured window starts with the pool, the allocator and
        // the CPU in their steady state. Their failures still count.
        let warm = Instant::now();
        let mut k = 0;
        while warm.elapsed() < crate::WARMUP {
            let job = self.job(run, &by_task, crate::WARMUP_BASE + k);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_job(&job, &devices[job.device], &mut tracer)
                    .map(|_| ())
            }));
            out.attempted += 1;
            out.warmup_jobs += 1;
            if !matches!(result, Ok(Ok(()))) {
                out.failed += 1;
                eprintln!(
                    "warm-up job {} ({} seed {}) failed",
                    job.index, job.bench, job.seed
                );
            }
            k += 1;
        }

        let start_mark = ObsMark::now();
        let mut reference_mark = None;
        // (latency, CPU seconds, speed sample taken before it, stolen) of
        // every completed job.
        let mut done = Vec::new();
        let mut clean = 0;
        let mut speed = crate::speed::Speed::new(elivagar_repro::sim::num_threads());
        let t0 = Instant::now();
        let mut paused = 0.0;
        let mut index = 0;
        loop {
            paused += crate::interleaved_setup(
                &mut out.setup_s,
                t0.elapsed().as_secs_f64() - paused,
                run.seconds,
                || {
                    black_box(self.set_up(run));
                },
            );
            let elapsed = t0.elapsed().as_secs_f64() - paused;
            let enough_timed = clean >= min_jobs;
            if elapsed >= run.seconds
                && index >= min_jobs
                && (enough_timed || elapsed >= run.seconds + crate::STEAL_GRACE_S)
            {
                break;
            }
            // Host speed, kept out of the window like set-up.
            paused += speed.sample();
            let job = self.job(run, &by_task, index);
            let traced = run.trace && index % 2 == 1;
            tracer.set_enabled(traced);
            let ticks = Ticks::now();
            let cpu = crate::cpu_seconds();
            let begun = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let open = tracer.begin("job", index as u64);
                let r = self.run_job(&job, &devices[job.device], &mut tracer);
                tracer.end(open);
                r
            }));
            let latency = begun.elapsed().as_secs_f64();
            let cpu = crate::cpu_seconds() - cpu;
            let was_stolen = ticks.stolen_until(&Ticks::now());
            tracer.set_enabled(false);
            out.attempted += 1;
            let result = result.unwrap_or_else(|p| {
                Err(format!(
                    "panicked: {}",
                    elivagar_repro::sim::panic_message(p.as_ref())
                ))
            });
            match result {
                Ok(job_out) => {
                    done.push((latency, cpu, speed.len() - 1, was_stolen));
                    clean += usize::from(!was_stolen);
                    let slot = if traced {
                        &mut traced_latency
                    } else {
                        &mut untraced_latency
                    };
                    slot.0 += latency;
                    slot.1 += 1;
                    if index < self.reference_jobs {
                        executions.push(job_out.executions as f64);
                        noisy.push(job_out.noisy_accuracy);
                    }
                    if traced && index < REPLAY_BELOW {
                        winners.push(job_out.winner);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("job {index} ({} seed {}) failed: {e}", job.bench, job.seed);
                }
            }
            index += 1;
            if index == self.reference_jobs && run.trace {
                reference_mark = Some(ObsMark::now());
            }
        }
        // The speed after the last job.
        speed.sample();
        let time_all = clean < min_jobs;
        if time_all {
            out.notes
                .push("host steal left too few clean jobs: timings include every job".into());
        }
        for &(latency, cpu, k, was_stolen) in &done {
            if was_stolen && !time_all {
                out.stolen_jobs += 1;
                continue;
            }
            let f = speed.factor_over(k, k + 1);
            out.measured.add(latency, cpu);
            out.reference.add(latency * f, cpu * f);
        }
        out.jobs_done = out.measured.latencies.len() as u64;
        out.speed = Some(speed);
        out.search_executions = crate::mean(&executions);
        out.noisy_accuracy = crate::mean(&noisy);
        out.tail_p = self.tail_p;
        out.job_digest = crate::digest(&self.describe_jobs(run));

        if run.trace {
            let all = start_mark.delta();
            let reference =
                start_mark.delta_to(reference_mark.as_ref().expect("reference jobs ran"));
            // Replays run after the measured window, outside every count.
            let mut replays = Replays::default();
            for w in &winners {
                replays.replay(w, &devices[w.device]);
            }
            let jobs = out.jobs_done.max(1) as f64;
            let reference_jobs = self.reference_jobs as f64;
            let traced = traced_latency.1.max(1) as f64;
            let job_s = tracer.total_s("job");

            layers.set(
                "datasets.load_s",
                tracer.total_s("datasets.load_sized") / traced,
            );
            layers.set(
                "search.busy_s",
                tracer.total_s("elivagar.run_search") / traced,
            );
            layers.set(
                "search.share",
                tracer.total_s("elivagar.run_search") / job_s,
            );
            crate::search_histograms(&mut layers, &all, jobs);
            crate::obs_counts(&mut layers, &all, &reference, jobs, reference_jobs);
            layers.set("ml.train.busy_s", tracer.total_s("ml.train") / traced);
            layers.set("ml.train.share", tracer.total_s("ml.train") / job_s);
            layers.set("ml.eval.busy_s", tracer.total_s("ml.eval") / traced);
            layers.set("ml.eval.share", tracer.total_s("ml.eval") / job_s);
            layers.set(
                "baselines.qnas_s",
                tracer.total_s("baselines.quantum_nas_search") / traced,
            );
            layers.set(
                "baselines.nat_train_s",
                tracer.total_s("baselines.train_quantumnat") / traced,
            );
            layers.set("job.self_s", tracer.self_s("job") / traced);
            replays.report(&mut layers);
            let rate = |(s, n): (f64, usize)| n as f64 / s;
            layers.set(
                "obs.trace_overhead",
                rate(untraced_latency) / rate(traced_latency) - 1.0,
            );
            out.layers = Some(layers);
            out.spans = Some(tracer);
        }
        out
    }

    fn run_job(&self, job: &JobSpec, device: &Device, tr: &mut Tracer) -> Result<JobOut, String> {
        let j = job.index as u64;
        let s = spec(job.bench).expect("known benchmark");
        let dataset = tr.time("datasets.load_sized", j, || self.dataset(job));
        match self.kind {
            JobKind::Funnel {
                candidates,
                repcap_per_class,
                repcap_inits,
                epochs,
                trajectories,
                ..
            } => {
                let mut config =
                    SearchConfig::for_task(s.qubits, s.params, s.feature_dim, s.classes);
                config.num_candidates = candidates;
                config.clifford_replicas = CLIFFORD_REPLICAS;
                config.repcap_param_inits = repcap_inits;
                config.repcap_samples_per_class = repcap_per_class;
                config.seed = job.seed;
                let result = tr
                    .time("elivagar.run_search", j, || {
                        run_search(device, &dataset, &config, &RunOptions::new())
                    })
                    .map_err(|e| format!("search failed: {e}"))?;
                check::search(&result, config.num_candidates)?;

                let model = QuantumClassifier::try_new(result.best.circuit.clone(), s.classes)
                    .map_err(|e| format!("winner is not a classifier: {e}"))?;
                let train = TrainConfig {
                    epochs,
                    batch_size: 32,
                    seed: job.seed,
                    ..Default::default()
                };
                let params = tr
                    .time("ml.train", j, || try_train(&model, dataset.train(), &train))
                    .map_err(|e| format!("training failed: {e}"))?
                    .params;
                let physical = result.best.physical_circuit(device);
                let noise =
                    circuit_noise(device, &physical).map_err(|e| format!("noise model: {e}"))?;
                let (clean, noisy) = tr.time("ml.eval", j, || {
                    let clean = accuracy(&model, &params, dataset.test());
                    let mut rng = StdRng::seed_from_u64(job.seed);
                    let noisy = noisy_accuracy(
                        &model,
                        &params,
                        dataset.test(),
                        &noise,
                        trajectories,
                        &mut rng,
                    );
                    (clean, noisy)
                });
                check::accuracy("accuracy", clean)?;
                check::accuracy("noisy_accuracy", noisy)?;
                Ok(JobOut {
                    executions: result.executions.total(),
                    noisy_accuracy: noisy,
                    winner: Winner {
                        circuit: result.best.circuit.clone(),
                        params,
                        noise,
                        device: job.device,
                        dataset,
                        seed: job.seed,
                        qnas: None,
                    },
                })
            }
            JobKind::Baselines {
                super_epochs,
                nat_epochs,
                trajectories,
                ..
            } => {
                let config = QuantumNasConfig {
                    num_blocks: (s.params / s.qubits).clamp(2, 8),
                    population: 12,
                    generations: 6,
                    valid_samples: dataset.test().len().min(48),
                    train: SuperTrainConfig {
                        epochs: super_epochs,
                        batch_size: 32,
                        seed: job.seed,
                        ..Default::default()
                    },
                    seed: job.seed,
                    ..Default::default()
                };
                let result = tr.time("baselines.quantum_nas_search", j, || {
                    quantum_nas_search(device, &dataset, s.qubits, &config)
                });
                check::routed(&result.physical_circuit, device)?;
                if result.executions == 0 {
                    return Err("QuantumNAS reported zero search executions".into());
                }
                let model = QuantumClassifier::try_new(
                    compact_circuit(&result.physical_circuit),
                    s.classes,
                )
                .map_err(|e| format!("winner is not a classifier: {e}"))?;
                let nat_config = QuantumNatConfig {
                    epochs: nat_epochs,
                    injection_std: 0.08,
                    seed: job.seed,
                    ..Default::default()
                };
                let nat = tr.time("baselines.train_quantumnat", j, || {
                    train_quantumnat(&model, dataset.train(), &nat_config)
                });
                let noise = circuit_noise(device, &result.physical_circuit)
                    .map_err(|e| format!("noise model: {e}"))?;
                let (clean, noisy) = tr.time("ml.eval", j, || {
                    let clean = accuracy(&model, &nat.params, dataset.test());
                    let mut rng = StdRng::seed_from_u64(job.seed);
                    let noisy = quantumnat_noisy_accuracy(
                        &model,
                        &nat,
                        dataset.test(),
                        &noise,
                        trajectories,
                        &mut rng,
                    );
                    (clean, noisy)
                });
                check::accuracy("accuracy", clean)?;
                check::accuracy("noisy_accuracy", noisy)?;
                Ok(JobOut {
                    executions: result.executions,
                    noisy_accuracy: noisy,
                    winner: Winner {
                        circuit: model.circuit().clone(),
                        params: nat.params,
                        noise,
                        device: job.device,
                        dataset,
                        seed: job.seed,
                        qnas: Some((result.circuit, result.mapping)),
                    },
                })
            }
        }
    }
}

/// Single-layer timings replayed on finished jobs' winners.
#[derive(Default)]
struct Replays {
    engine: (f64, usize),
    engine_bytes: (f64, usize),
    adjoint: (f64, usize),
    frame: (f64, usize),
    trajectory: (f64, usize),
    route: (f64, usize),
    swaps: (f64, usize),
}

fn add(acc: &mut (f64, usize), value: f64, n: usize) {
    acc.0 += value;
    acc.1 += n;
}

fn per(acc: (f64, usize)) -> f64 {
    if acc.1 == 0 {
        0.0
    } else {
        acc.0 / acc.1 as f64
    }
}

impl Replays {
    fn replay(&mut self, w: &Winner, device: &Device) {
        let mut rng = StdRng::seed_from_u64(w.seed ^ 0x5eed);
        let n = w.circuit.num_qubits();

        // Engine: compile → bind → batch execute over a RepCap-sized batch.
        let (batch, _) = w.dataset.sample_per_class(REPCAP_PER_CLASS, &mut rng);
        let t = Instant::now();
        let bound = Program::compile(&w.circuit).bind(&w.params);
        black_box(bound.run_batch(&batch));
        add(&mut self.engine, t.elapsed().as_nanos() as f64, batch.len());
        // Computed, not measured: every fused op reads and writes the state.
        let bytes = bound.num_ops() as f64 * (16usize << n) as f64 * 2.0;
        add(&mut self.engine_bytes, bytes, 1);

        // Streamed adjoint over one training minibatch.
        let train = w.dataset.train();
        let samples = ADJOINT_REPLAY_SAMPLES.min(train.len());
        let program = AdjointProgram::compile_params_only(&w.circuit);
        let mut observable = ZObservable::z(w.circuit.measured()[0]);
        let mut grads = Gradients {
            expectation: 0.0,
            params: Vec::new(),
            features: Vec::new(),
        };
        let t = Instant::now();
        for x in &train.features[..samples] {
            program.run_adjoint_with(&w.params, x, &mut observable, |_, _| (), &mut grads);
            black_box(&grads);
        }
        add(&mut self.adjoint, t.elapsed().as_nanos() as f64, samples);

        // Pauli-frame engine on one Clifford replica.
        let replica = clifford_replica(&w.circuit, &mut rng);
        let t = Instant::now();
        let d = noisy_clifford_distribution(
            &replica,
            &[],
            &[],
            &w.noise,
            FRAME_REPLAY_TRAJECTORIES,
            &mut rng,
        )
        .expect("a Clifford replica is Clifford");
        black_box(d);
        add(
            &mut self.frame,
            t.elapsed().as_nanos() as f64,
            FRAME_REPLAY_TRAJECTORIES,
        );

        // Per-instruction noisy trajectories on test samples.
        let test = w.dataset.test();
        let samples = TRAJECTORY_REPLAY_SAMPLES.min(test.len());
        let trajectories = 16;
        let t = Instant::now();
        for x in &test.features[..samples] {
            black_box(noisy_distribution(
                &w.circuit,
                &w.params,
                x,
                &w.noise,
                trajectories,
                &mut rng,
            ));
        }
        add(
            &mut self.trajectory,
            t.elapsed().as_nanos() as f64,
            samples * trajectories,
        );

        // SABRE routing of the QuantumNAS winner on its mapping.
        if let Some((circuit, mapping)) = &w.qnas {
            let t = Instant::now();
            let routed = route(circuit, device.topology(), mapping, &mut rng);
            add(&mut self.route, t.elapsed().as_secs_f64(), 1);
            add(&mut self.swaps, routed.swaps_inserted as f64, 1);
        }
    }

    fn report(&self, layers: &mut Layers) {
        layers.set("sim.engine.ns_per_sample", per(self.engine));
        layers.set("sim.engine.bytes_computed", per(self.engine_bytes));
        layers.set("sim.adjoint.ns_per_sample", per(self.adjoint));
        layers.set("sim.frame.ns_per_trajectory", per(self.frame));
        layers.set("sim.trajectory.ns_per_trajectory", per(self.trajectory));
        layers.set("compiler.route_s", per(self.route));
        layers.set("compiler.swaps", per(self.swaps));
    }
}
