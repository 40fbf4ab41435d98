//! Records the fused-block execution trajectory point
//! (`BENCH_fusion.json`): forward-execute throughput of the fused engine
//! versus the per-instruction reference `StateVector::run` (one
//! full-state sweep per instruction), and the 32-sample adjoint minibatch
//! gradient through the streamed adjoint versus the original
//! walk-the-circuit pipeline.
//!
//! Three forward workloads exercise the engine's distinct kernels at 14
//! qubits (above `TILE_QUBITS`, so the cache-blocked executor engages):
//! a dense mix (fused 1q/2q blocks), a diagonal-heavy chain (the
//! dedicated diagonal slice kernels), and a repcap-shaped generated
//! candidate. The gradient workload mirrors
//! `minibatch_gradient_32samples` from `BENCH_runtime.json`; its
//! baseline reimplements the pre-streaming hot path — forward execute
//! for the loss, then [`adjoint_gradient_into`]'s (the reference
//! adjoint's) second forward plus
//! three sweeps per parameter slot — against `batch_gradient`'s single
//! streamed forward/backward pass. `scripts/verify.sh` gates on
//! `gradient_speedup >= 2` and on `ranking_match`: the per-sample loss
//! ordering under the streamed path must be identical to the baseline's.
//!
//! Wall times are compared within this one process (same thread count,
//! same build); per-gate throughput is also recorded because it is
//! machine-relative but workload-independent.

use elivagar_circuit::{Circuit, Gate, ParamExpr};
use elivagar_ml::{batch_gradient, cross_entropy, GradientMethod, QuantumClassifier};
use elivagar_sim::parallel::par_map;
use elivagar_sim::adjoint::reference::adjoint_gradient_into;
use elivagar_sim::{Gradients, Program, StateVector, ZObservable, TILE_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    threads: usize,
    forward: Vec<ForwardWorkload>,
    minibatch: Minibatch,
    /// `minibatch.baseline_median_ns / minibatch.fused_median_ns` hoisted
    /// to the top level for the verify gate.
    gradient_speedup: f64,
    /// Per-sample loss ordering is identical between the baseline and the
    /// streamed path (gradient descent sees the same landscape).
    ranking_match: bool,
}

#[derive(Serialize)]
struct ForwardWorkload {
    name: String,
    qubits: usize,
    instructions: usize,
    /// Compiled op count (coalesced fused blocks).
    fused_ops: usize,
    fused_median_ns: u64,
    unfused_median_ns: u64,
    speedup: f64,
    /// Nanoseconds per source instruction through the fused engine.
    fused_ns_per_gate: f64,
    /// Nanoseconds per source instruction through `StateVector::run`.
    unfused_ns_per_gate: f64,
}

#[derive(Serialize)]
struct Minibatch {
    name: String,
    samples: usize,
    baseline_median_ns: u64,
    fused_median_ns: u64,
    speedup: f64,
    /// Largest absolute difference between baseline and streamed summed
    /// parameter gradients (ULP-level re-association, not drift).
    max_grad_abs_diff: f64,
}

/// Dense mix: long static 1q runs, CX ladders, dynamic barriers — the
/// general fused-block shape.
fn dense_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..4 {
        for q in 0..n {
            c.push_gate(Gate::H, &[q], &[]);
            c.push_gate(Gate::Ry, &[q], &[ParamExpr::constant(0.1 + 0.05 * (q + layer) as f64)]);
            c.push_gate(Gate::Sx, &[q], &[]);
        }
        for q in 0..n - 1 {
            c.push_gate(Gate::Cx, &[q, q + 1], &[]);
        }
        c.push_gate(Gate::Rx, &[layer % n], &[ParamExpr::trainable(layer)]);
    }
    c
}

/// Diagonal-heavy chain: Rz/Cz/Crz/Rzz blocks that compile to the
/// dedicated diagonal slice kernels.
fn diagonal_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_gate(Gate::H, &[q], &[]);
    }
    for layer in 0..6 {
        for q in 0..n {
            c.push_gate(Gate::Rz, &[q], &[ParamExpr::constant(0.2 + 0.03 * (q * layer) as f64)]);
        }
        for q in 0..n - 1 {
            c.push_gate(Gate::Cz, &[q, q + 1], &[]);
        }
        c.push_gate(Gate::Crz, &[0, n - 1], &[ParamExpr::trainable(layer)]);
        c.push_gate(Gate::Rzz, &[1, 2], &[ParamExpr::constant(0.4)]);
    }
    c
}

fn repcap_style_circuit() -> Circuit {
    use elivagar::{generate_candidate, SearchConfig};
    let device = elivagar_device::devices::ibmq_kolkata();
    let config = SearchConfig::for_task(10, 60, 4, 4);
    let mut rng = StdRng::seed_from_u64(3);
    generate_candidate(&device, &config, &mut rng).circuit
}

fn feature_batch(samples: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..samples)
        .map(|i| (0..dim).map(|j| 0.1 * (i * dim + j) as f64).collect())
        .collect()
}

/// Times `f` over `reps` runs (after `warmup` discarded runs) and returns
/// the median in nanoseconds.
fn time_reps(warmup: usize, reps: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).expect("fits in u64 ns")
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn forward_workload(name: &str, circuit: &Circuit, params: &[f64], features: &[f64]) -> ForwardWorkload {
    let fused = Program::compile(circuit);
    let fused_median_ns = time_reps(5, 40, || {
        black_box(fused.run_with(params, features, |psi| psi.expectation_z(0)));
    });
    let unfused_median_ns = time_reps(5, 40, || {
        black_box(StateVector::run(circuit, params, features).expectation_z(0));
    });
    let instructions = circuit.instructions().len();
    ForwardWorkload {
        name: name.into(),
        qubits: circuit.num_qubits(),
        instructions,
        fused_ops: fused.num_ops(),
        fused_median_ns,
        unfused_median_ns,
        speedup: unfused_median_ns as f64 / fused_median_ns as f64,
        fused_ns_per_gate: fused_median_ns as f64 / instructions as f64,
        unfused_ns_per_gate: unfused_median_ns as f64 / instructions as f64,
    }
}

/// The pre-streaming per-sample gradient: forward execute for the loss
/// and observable weights, then the reference adjoint (its own second
/// forward plus three sweeps per slot). Returns `(loss, params_grad)`.
fn baseline_sample_gradient(
    model: &QuantumClassifier,
    program: &Program,
    params: &[f64],
    features: &[f64],
    label: usize,
) -> (f64, Vec<f64>) {
    let (loss, weights) = program.run_with(params, features, |psi| {
        let expectations = model.expectations_from_state(psi);
        let logits = model.logits_from_expectations(&expectations);
        let (loss, dlogits) = cross_entropy(&logits, label);
        (loss, model.observable_weights(&dlogits))
    });
    let obs = ZObservable::new(weights);
    let mut grads = Gradients {
        expectation: 0.0,
        params: Vec::new(),
        features: Vec::new(),
    };
    adjoint_gradient_into(model.circuit(), params, features, &obs, &mut grads);
    (loss, grads.params)
}

fn main() {
    let n = TILE_QUBITS + 2;
    let dense = dense_circuit(n);
    let diagonal = diagonal_circuit(n);
    let repcap = repcap_style_circuit();

    let mut forward = Vec::new();
    for (name, circuit) in [
        ("dense_14q", &dense),
        ("diagonal_14q", &diagonal),
        ("repcap_candidate_10q", &repcap),
    ] {
        let params: Vec<f64> = (0..circuit.num_trainable_params())
            .map(|i| 0.05 * i as f64)
            .collect();
        let features = vec![0.3; circuit.num_features_used().max(1)];
        forward.push(forward_workload(name, circuit, &params, &features));
    }

    // 32-sample adjoint minibatch gradient: the shape `BENCH_runtime.json`
    // tracks, baselined against the pre-streaming pipeline.
    let model = QuantumClassifier::new(repcap.clone(), 4);
    let mparams: Vec<f64> = (0..model.num_params()).map(|i| 0.1 * i as f64).collect();
    let x = feature_batch(32, 4);
    let y: Vec<usize> = (0..32).map(|i| i % 4).collect();
    let program = model.program();
    let indices: Vec<usize> = (0..x.len()).collect();

    let baseline_median_ns = time_reps(5, 30, || {
        black_box(par_map(&indices, |&i| {
            baseline_sample_gradient(&model, &program, &mparams, &x[i], y[i])
        }));
    });
    let fused_median_ns = time_reps(5, 30, || {
        black_box(batch_gradient(&model, &mparams, &x, &y, GradientMethod::Adjoint));
    });

    // Equivalence: per-sample losses from the streamed path (recovered
    // sample-by-sample through single-sample batches) must rank the
    // minibatch exactly as the baseline does, and the summed gradients
    // must agree to ULP-level re-association.
    let baseline_samples: Vec<(f64, Vec<f64>)> = indices
        .iter()
        .map(|&i| baseline_sample_gradient(&model, &program, &mparams, &x[i], y[i]))
        .collect();
    let streamed_losses: Vec<f64> = indices
        .iter()
        .map(|&i| {
            batch_gradient(
                &model,
                &mparams,
                std::slice::from_ref(&x[i]),
                std::slice::from_ref(&y[i]),
                GradientMethod::Adjoint,
            )
            .loss
        })
        .collect();
    let rank = |losses: &[f64]| -> Vec<usize> {
        let mut order: Vec<usize> = (0..losses.len()).collect();
        order.sort_by(|&a, &b| {
            losses[a].partial_cmp(&losses[b]).expect("finite loss").then(a.cmp(&b))
        });
        order
    };
    let baseline_losses: Vec<f64> = baseline_samples.iter().map(|(l, _)| *l).collect();
    let ranking_match = rank(&baseline_losses) == rank(&streamed_losses);

    let full = batch_gradient(&model, &mparams, &x, &y, GradientMethod::Adjoint);
    let mut baseline_sum = vec![0.0f64; model.num_params()];
    for (_, g) in &baseline_samples {
        for (acc, v) in baseline_sum.iter_mut().zip(g) {
            *acc += v;
        }
    }
    let inv = 1.0 / x.len() as f64;
    let max_grad_abs_diff = baseline_sum
        .iter()
        .zip(&full.gradient)
        .map(|(b, f)| (b * inv - f).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_grad_abs_diff < 1e-8,
        "streamed gradients drifted from baseline: {max_grad_abs_diff}"
    );

    let speedup = baseline_median_ns as f64 / fused_median_ns as f64;
    let report = Report {
        threads: elivagar_sim::num_threads(),
        forward,
        minibatch: Minibatch {
            name: "minibatch_gradient_32samples".into(),
            samples: x.len(),
            baseline_median_ns,
            fused_median_ns,
            speedup,
            max_grad_abs_diff,
        },
        gradient_speedup: speedup,
        ranking_match,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_fusion.json", &json).expect("write BENCH_fusion.json");
    println!("{json}");
}
