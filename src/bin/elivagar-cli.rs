//! Command-line front end for the Elivagar reproduction.
//!
//! ```text
//! elivagar-cli search --benchmark moons --device ibm-lagos [--candidates 24] [--seed 0]
//!                     [--strategy oneshot|nsga2] [--population N] [--generations N]
//!                     [--train-batch N] [--train-topk R]
//!                     [--checkpoint journal.json] [--resume journal.json]
//!                     [--cache DIR] [--stats] [--trace-out trace.jsonl]
//! elivagar-cli submit --spool DIR --id NAME [--benchmark moons] [--device ibm-lagos]
//!                     [--tenant NAME] [--priority N] [--candidates N] [--seed N] ...
//! elivagar-cli devices
//! elivagar-cli benchmarks
//! ```
//!
//! `submit` writes a job-spec JSON file into a spool directory for
//! `elivagar-served`, the search-as-a-service daemon (see the
//! `elivagar-serve` crate): the daemon ingests `*.json` specs from its
//! `--spool` directory, schedules them as fair-share evaluation slices,
//! and survives `kill -9` with bit-identical results.
//!
//! `--strategy nsga2` replaces the one-shot sample-and-rank pipeline
//! with NSGA-II evolution (`--population` circuits per generation,
//! `--generations` rounds); the final Pareto front — every mutually
//! non-dominated circuit over (RepCap, CNR, two-qubit count, depth) —
//! is printed to stderr, and the front member with the best composite
//! score is trained like a one-shot winner.
//!
//! `--train-batch N` trains the top-N scored candidates as one cohort
//! through fused cross-candidate engine dispatches instead of training
//! only the winner afterwards; `--train-topk R` adds R successive-halving
//! rungs that prune the worse half of the cohort at geometric epoch
//! milestones. The winner's parameters come out of the cohort, bit
//! identical to solo training when halving is off.
//!
//! `search` runs the full pipeline (search, train, noisy evaluation) and
//! prints the selected circuit as OpenQASM with the trained angles bound
//! to the first test sample. `--checkpoint` journals completed candidate
//! evaluations so an interrupted run can be picked up with `--resume`
//! (which implies checkpointing to the same file); the resumed search
//! reproduces the uninterrupted ranking bit for bit.
//!
//! `--cache DIR` attaches a persistent content-addressed result cache:
//! CNR and RepCap evaluations whose full input fingerprint (circuit,
//! placement, device calibration, predictor knobs, per-candidate seed)
//! matches a stored entry are replayed instead of recomputed, bit for
//! bit. The same directory can back many runs — and, via `submit
//! --cache-dir`, many tenants of the serve daemon searching the same
//! device. Corrupt entries are discarded and recomputed, never trusted.
//!
//! `--stats` prints the end-of-run telemetry report (candidate funnel,
//! per-stage counts, wall time, p50/p99 latencies) to stderr; `--trace-out
//! FILE` enables span tracing and writes a Chrome Trace Event JSON file
//! loadable in `chrome://tracing` or Perfetto. QASM output on stdout is
//! unaffected by either flag.

use elivagar::{run_search, Nsga2Config, RunOptions, SearchConfig};
use elivagar_circuit::to_qasm;
use elivagar_datasets::{load_sized, spec, BENCHMARKS};
use elivagar_device::{all_devices, circuit_noise, device_by_name};
use elivagar_ml::{accuracy, noisy_accuracy, train, QuantumClassifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Writes `text` to stdout and flushes it. A reader that closed the pipe
/// early (`elivagar-cli devices | head -2`) wants no more output, so a
/// broken pipe ends the command quietly and successfully.
fn write_stdout(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("failed writing to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  elivagar-cli search --benchmark <name> --device <name> \
         [--candidates N] [--params N] [--epochs N] [--seed N] \
         [--strategy oneshot|nsga2] [--population N] [--generations N] \
         [--train-batch N] [--train-topk R] \
         [--checkpoint FILE] [--resume FILE] [--cache DIR] [--stats] [--trace-out FILE]\n  \
         elivagar-cli submit --spool DIR --id NAME [--benchmark <name>] [--device <name>] \
         [--tenant NAME] [--priority N] [--candidates N] [--seed N] \
         [--train-size N] [--test-size N] [--epochs N] [--slice-records N] \
         [--deadline-slices N] [--deadline-ms N] [--max-retries N] [--cache-dir DIR]\n  \
         elivagar-cli devices\n  elivagar-cli benchmarks"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("devices") => {
            let mut out = String::new();
            for d in all_devices() {
                let _ = writeln!(
                    out,
                    "{:<20} {:>4} qubits  median 2Q err {:.1e}",
                    d.name(),
                    d.num_qubits(),
                    d.calibration().median_gate2q_error()
                );
            }
            write_stdout(&out)
        }
        Some("benchmarks") => {
            let mut out = String::new();
            for b in BENCHMARKS {
                let _ = writeln!(
                    out,
                    "{:<10} {} classes, {} features, {} params, {} qubits",
                    b.name, b.classes, b.feature_dim, b.params, b.qubits
                );
            }
            write_stdout(&out)
        }
        Some("search") => {
            let Some(bench_name) = flag_value(&args, "--benchmark") else {
                return usage();
            };
            let Some(device_name) = flag_value(&args, "--device") else {
                return usage();
            };
            let Some(bench) = spec(&bench_name) else {
                eprintln!("unknown benchmark {bench_name}; try `elivagar-cli benchmarks`");
                return ExitCode::FAILURE;
            };
            let Some(device) = device_by_name(&device_name) else {
                eprintln!("unknown device {device_name}; try `elivagar-cli devices`");
                return ExitCode::FAILURE;
            };
            let parse = |name: &str, default: usize| {
                flag_value(&args, name)
                    .map(|v| v.parse().unwrap_or(default))
                    .unwrap_or(default)
            };
            let candidates = parse("--candidates", 24);
            let params = parse("--params", bench.params);
            let epochs = parse("--epochs", 60);
            let seed = parse("--seed", 0) as u64;

            let dataset = load_sized(&bench_name, seed, 400.min(bench.train), 120.min(bench.test));
            let mut config =
                SearchConfig::for_task(bench.qubits, params, bench.feature_dim, bench.classes);
            config.num_candidates = candidates;
            config.clifford_replicas = 16;
            config.repcap_param_inits = 8;
            config.repcap_samples_per_class = 8;
            config.seed = seed;
            match flag_value(&args, "--strategy").as_deref() {
                None | Some("oneshot") => {}
                Some("nsga2") => {
                    let defaults = Nsga2Config::default();
                    let params = Nsga2Config::default()
                        .with_population(parse("--population", defaults.population))
                        .with_generations(parse("--generations", defaults.generations));
                    config = config.with_nsga2(params);
                }
                Some(other) => {
                    eprintln!("unknown strategy {other}; expected oneshot or nsga2");
                    return ExitCode::FAILURE;
                }
            }

            // Cohort training inside the search stage: the top-k scored
            // candidates train together through fused dispatches, with
            // optional successive-halving rungs pruning the cohort.
            let solo = TrainConfig { epochs, batch_size: 32, seed, ..Default::default() };
            if args.iter().any(|a| a == "--train-batch" || a == "--train-topk") {
                config = config.with_train(TrainConfig {
                    cohort: parse("--train-batch", 1).max(1),
                    halving_rungs: parse("--train-topk", 0),
                    ..solo
                });
            }

            let want_stats = args.iter().any(|a| a == "--stats");
            let trace_out = flag_value(&args, "--trace-out").map(std::path::PathBuf::from);
            if trace_out.is_some() {
                if !elivagar_obs::compiled_in() {
                    eprintln!(
                        "warning: --trace-out requested but this binary was built without \
                         the `telemetry` feature; the trace will be empty"
                    );
                }
                elivagar_obs::set_tracing(true);
            }

            let checkpoint = flag_value(&args, "--checkpoint").map(std::path::PathBuf::from);
            let resume = flag_value(&args, "--resume").map(std::path::PathBuf::from);
            let mut options = RunOptions::new();
            // --resume without --checkpoint keeps journaling to the
            // same file, so a second interruption is also resumable.
            if let Some(path) = checkpoint.or_else(|| resume.clone()) {
                options = options.with_checkpoint(path);
            }
            if let Some(path) = resume {
                options = options.with_resume(path);
            }
            if let Some(dir) = flag_value(&args, "--cache") {
                match elivagar::Cache::open(&dir) {
                    Ok(cache) => options = options.with_cache(cache),
                    Err(e) => {
                        eprintln!("failed to open result cache at {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }

            match &config.strategy {
                elivagar::StrategyChoice::Nsga2(p) => eprintln!(
                    "evolving population {} for {} generations on {} ...",
                    p.population,
                    p.generations,
                    device.name()
                ),
                _ => eprintln!("searching {candidates} candidates on {} ...", device.name()),
            }
            let result = match run_search(&device, &dataset, &config, &options) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("search failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for q in &result.quarantined {
                eprintln!("warning: {q}");
            }
            if let Some(front) = &result.pareto {
                eprintln!("Pareto front ({} non-dominated circuits):", front.members.len());
                for m in &front.members {
                    eprintln!(
                        "  #{:<4} repcap {:.4}  cnr {:.4}  2q-gates {:>3}  depth {:>3}  score {}",
                        m.index,
                        m.objectives.repcap,
                        m.objectives.cnr,
                        m.objectives.two_qubit_count,
                        m.objectives.depth,
                        m.score.map_or_else(|| "-".into(), |s| format!("{s:.4}")),
                    );
                }
            }
            let best = &result.best;
            eprintln!(
                "selected: {} gates, depth {}, placed on {:?} ({} CNR + {} RepCap executions)",
                best.circuit.len(),
                best.circuit.depth(),
                best.placement,
                result.executions.cnr,
                result.executions.repcap,
            );

            let model = QuantumClassifier::new(best.circuit.clone(), bench.classes);
            let params = if config.train.is_some() {
                if let Some(t) = result.trained.iter().find(|t| t.index == result.best_index) {
                    eprintln!(
                        "cohort-trained {} candidates in fused batches ({} pruned early)",
                        result.trained.len(),
                        result
                            .trained
                            .iter()
                            .filter(|t| t.pruned_at_epoch.is_some())
                            .count()
                    );
                    t.params.clone()
                } else {
                    eprintln!(
                        "warning: cohort training quarantined the winner; \
                         training solo for {epochs} epochs ..."
                    );
                    train(&model, dataset.train(), &solo).params
                }
            } else {
                eprintln!("training for {epochs} epochs ...");
                train(&model, dataset.train(), &solo).params
            };
            let clean = accuracy(&model, &params, dataset.test());
            let physical = best.physical_circuit(&device);
            let noise = circuit_noise(&device, &physical).expect("device-aware circuit");
            let mut rng = StdRng::seed_from_u64(seed);
            let noisy = noisy_accuracy(&model, &params, dataset.test(), &noise, 60, &mut rng);
            eprintln!("test accuracy: {clean:.3} noiseless, {noisy:.3} under {} noise", device.name());

            let printed = write_stdout(&format!(
                "// {} on {}: accuracy {:.3} (noiseless) / {:.3} (noisy)\n{}\n",
                bench_name,
                device.name(),
                clean,
                noisy,
                to_qasm(&best.circuit, &params, &dataset.test().features[0])
            ));

            if want_stats {
                eprint!("{}", result.stats.render());
                eprint!(
                    "{}",
                    elivagar_obs::stats::render_process_report(&elivagar_obs::metrics::snapshot())
                );
            }
            if let Some(path) = trace_out {
                elivagar_obs::set_tracing(false);
                let events = elivagar_obs::drain();
                if let Err(e) = elivagar_obs::validate_forest(&events) {
                    eprintln!("warning: trace forest is malformed: {e}");
                }
                let write = std::fs::File::create(&path).and_then(|mut f| {
                    elivagar_obs::write_chrome_trace(&events, &mut f)
                });
                match write {
                    Ok(()) => eprintln!(
                        "wrote {} trace events to {} (load in chrome://tracing)",
                        events.len(),
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("failed to write trace to {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            printed
        }
        Some("submit") => {
            let Some(spool) = flag_value(&args, "--spool") else {
                return usage();
            };
            let Some(id) = flag_value(&args, "--id") else {
                return usage();
            };
            if id.is_empty() || id.contains(['/', '\\']) {
                eprintln!("--id must be a plain name (no path separators)");
                return ExitCode::FAILURE;
            }
            let mut job = elivagar_serve::JobSpec::named(&id);
            if let Some(name) = flag_value(&args, "--benchmark") {
                if spec(&name).is_none() {
                    eprintln!("unknown benchmark {name}; try `elivagar-cli benchmarks`");
                    return ExitCode::FAILURE;
                }
                job.benchmark = name;
            }
            if let Some(name) = flag_value(&args, "--device") {
                if device_by_name(&name).is_none() {
                    eprintln!("unknown device {name}; try `elivagar-cli devices`");
                    return ExitCode::FAILURE;
                }
                job.device = name;
            }
            if let Some(tenant) = flag_value(&args, "--tenant") {
                job.tenant = tenant;
            }
            // A shared cache directory lets tenants searching the same
            // device reuse each other's CNR/RepCap evaluations.
            job.cache_dir = flag_value(&args, "--cache-dir");
            let parse_u64 = |name: &str| -> Result<Option<u64>, ExitCode> {
                match flag_value(&args, name) {
                    None => Ok(None),
                    Some(v) => v.parse().map(Some).map_err(|_| {
                        eprintln!("{name} expects an unsigned integer, got {v:?}");
                        ExitCode::FAILURE
                    }),
                }
            };
            let fields = (|| {
                job.priority = parse_u64("--priority")?.unwrap_or(0) as u8;
                job.candidates = parse_u64("--candidates")?.unwrap_or(4) as usize;
                job.seed = parse_u64("--seed")?.unwrap_or(0);
                job.train_size = parse_u64("--train-size")?.unwrap_or(24) as usize;
                job.test_size = parse_u64("--test-size")?.unwrap_or(8) as usize;
                job.train_epochs = parse_u64("--epochs")?.map(|v| v as usize);
                job.slice_records = parse_u64("--slice-records")?.map(|v| v as usize);
                job.deadline_slices = parse_u64("--deadline-slices")?;
                job.deadline_ms = parse_u64("--deadline-ms")?;
                job.max_retries = parse_u64("--max-retries")?.map(|v| v as u32);
                Ok(())
            })();
            if let Err(code) = fields {
                return code;
            }
            if job.candidates == 0 {
                eprintln!("--candidates must be >= 1");
                return ExitCode::FAILURE;
            }
            let spool = std::path::Path::new(&spool);
            if let Err(e) = std::fs::create_dir_all(spool) {
                eprintln!("failed to create spool {}: {e}", spool.display());
                return ExitCode::FAILURE;
            }
            let path = spool.join(format!("{id}.json"));
            let body = match serde_json::to_string(&job) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("failed to serialize job spec: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&path, body + "\n") {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("spooled {id} -> {}", path.display());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
